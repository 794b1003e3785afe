"""Unit tests of the benchmark's own reductions (no workload is run)."""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.hostspeed import NEAREST, REFERENCE_KERNEL_S, HostSpeed
from perfbench.layers import layer_of, self_seconds
from perfbench.metrics import (
    failure_accounting,
    hash_results,
    latency_metrics,
    requests_of,
    sim_span,
    write_outage,
)
from perfbench.workloads import Workload, run_once
from repro.bench.harness import ExperimentSpec
from repro.cluster.failures import FailureEvent
from repro.types import Operation, OperationResult, OpStatus, OpType

HERE = Path(__file__).resolve().parent


def result(op_type, status, start, end, node=0):
    return OperationResult(
        op=Operation(op_type, key=1), status=status, start_time=start, end_time=end, served_by=node
    )


OK, ABORTED = OpStatus.OK, OpStatus.ABORTED
READ, WRITE = OpType.READ, OpType.WRITE


def hand_built_session():
    """Seven results of one session: four single ops and a 2-op and a 3-op txn."""
    return [
        result(READ, OK, 0.0, 1.0),
        result(WRITE, OK, 1.0, 3.0),
        # A committed two-key transaction: its members share every field.
        result(READ, OK, 3.0, 6.0),
        result(WRITE, OK, 3.0, 6.0),
        result(READ, ABORTED, 6.0, 7.0),
        # An aborted read-only transaction.
        result(READ, ABORTED, 7.0, 8.0),
        result(READ, ABORTED, 7.0, 8.0),
    ]


def test_requests_collapse_transaction_members():
    requests = requests_of(hand_built_session())
    assert [(r.start, r.end) for r in requests] == [(0, 1), (1, 3), (3, 6), (6, 7), (7, 8)]
    assert [r.is_read for r in requests] == [True, False, False, True, False]
    assert [r.has_update for r in requests] == [False, True, True, False, False]
    assert [r.status for r in requests] == [OK, OK, OK, ABORTED, ABORTED]


def test_requests_split_on_serving_node():
    requests = requests_of([result(READ, OK, 0.0, 1.0, node=0), result(READ, OK, 0.0, 1.0, node=1)])
    assert len(requests) == 2


def test_failed_frac_counts_non_ok_inflight_and_unissued():
    requests = requests_of(hand_built_session())  # 5 completed, 2 not OK
    # 10 due, 8 issued: 3 issued ops never completed, 2 were never issued.
    counts = failure_accounting(requests, due=10, issued=8)
    assert counts == {"non_ok": 2, "inflight": 3, "unissued": 2, "failed": 7, "failed_frac": 0.7}


def test_failed_frac_is_zero_when_every_due_op_completed_ok():
    requests = requests_of([result(READ, OK, 0.0, 1.0), result(WRITE, OK, 1.0, 2.0)])
    assert failure_accounting(requests, due=2, issued=2)["failed_frac"] == 0.0


@pytest.mark.parametrize("due, issued", [(0, 0), (10, 4), (3, 11)])
def test_failed_frac_rejects_inconsistent_counts(due, issued):
    with pytest.raises(ValueError):
        failure_accounting(requests_of(hand_built_session()), due=due, issued=issued)


def test_write_outage_waits_for_a_write_issued_after_the_crash():
    requests = requests_of(
        [
            result(WRITE, OK, 1.0, 2.2),  # in flight at the crash: does not count
            result(READ, OK, 2.5, 2.6),  # reads never end an outage
            result(WRITE, ABORTED, 2.5, 3.0),  # nor do failed writes
            result(WRITE, OK, 3.0, 9.0),
            result(WRITE, OK, 4.0, 8.5),
            result(WRITE, OK, 9.0, 9.5),
        ]
    )
    assert write_outage(requests, since=2.0) == 6.5


def test_write_outage_counts_committed_transactions_with_a_write():
    session = hand_built_session()  # committed writes issued at 1.0 and 3.0
    assert write_outage(requests_of(session), since=0.0) == 3.0
    assert write_outage(requests_of(session), since=2.0) == 4.0


def test_write_outage_is_none_without_a_committed_write_after_the_crash():
    requests = requests_of(
        [
            result(WRITE, OK, 1.0, 2.5),  # issued before the crash
            result(READ, OK, 3.0, 3.1),
            result(WRITE, ABORTED, 3.0, 4.0),
        ]
    )
    assert write_outage(requests, since=2.0) is None


def test_sim_span_runs_from_first_issue_to_last_ok_reply():
    assert sim_span(requests_of(hand_built_session())) == 6.0
    assert sim_span(requests_of([result(READ, ABORTED, 0.0, 1.0)])) == 0.0


def test_latency_metrics_split_reads_from_updates_and_transactions():
    values = latency_metrics(requests_of(hand_built_session()))
    # OK reads: one of 1 s. OK updates/txns: 2 s and the 3 s transaction.
    assert values["sim_read_p50_us"] == pytest.approx(1e6)
    assert values["sim_write_p50_us"] == pytest.approx(2.5e6)
    assert values["sim_write_p99_us"] == pytest.approx(2.99e6)
    # No OK read at all: the class reads 0.
    assert latency_metrics(requests_of([result(READ, ABORTED, 0.0, 1.0)]))["sim_read_p50_us"] == 0


def test_a_stalled_simulation_is_reported_as_failed():
    # Hermes without membership never finishes a write once a replica is
    # down: the clients stall, the engine drains and run_clients raises.
    def stalling(seed):
        return ExperimentSpec(
            protocol="hermes",
            num_replicas=3,
            num_keys=50,
            write_ratio=0.5,
            clients_per_replica=1,
            ops_per_client=40,
            faults=(FailureEvent.crash(5e-6, 2),),
            max_sim_time=1e-3,
            seed=seed,
        )

    record = run_once(Workload(stalling), seed=1)
    assert any(v.startswith("simulation stalled") for v in record.violations)
    assert record.due == 120
    assert record.gate_failed == 120
    assert record.sim["ok_frac"] < 1.0


def test_scaled_charges_a_span_at_the_mean_kernel_time_inside_it():
    speed = HostSpeed()
    ref = REFERENCE_KERNEL_S
    # Twice as slow as the reference from clock 10 on.
    speed.samples = [(float(t), ref) for t in range(10)] + [(float(t), 2 * ref) for t in range(10, 20)]
    assert speed.scaled(2.0, 8.0) == pytest.approx(6.0)
    assert speed.scaled(12.0, 18.0) == pytest.approx(3.0)
    # Seven samples, 9.0 (reference) to 15.0 (slow): speed 1/1.857.
    assert speed.scaled(9.0, 15.0) == pytest.approx(6.0 * 7 / 13)


def test_scaled_widens_a_short_span_to_the_nearest_samples():
    speed = HostSpeed()
    ref = REFERENCE_KERNEL_S
    speed.samples = [(0.0, ref), (1.0, ref), (2.0, 2 * ref), (3.0, 2 * ref), (4.0, 2 * ref), (9.0, ref)]
    assert NEAREST == 5
    # No sample inside (2.4, 2.6): the five closest are 0.0 .. 4.0.
    assert speed.scaled(2.4, 2.6) == pytest.approx(0.2 * 5 / 8)
    speed.samples = speed.samples[:4]
    with pytest.raises(ValueError):
        speed.scaled(0.0, 1.0)


def test_mark_takes_the_kernel_out_of_the_work_clock():
    speed = HostSpeed()
    before = speed.clock()
    marks = [speed.mark() for _ in range(NEAREST)]
    kernel = sum(seconds for _, seconds in speed.samples)
    assert kernel > 0
    # Five kernel passes ran, yet the work clock barely moved.
    assert speed.clock() - before < kernel / 2
    assert marks == sorted(marks)
    assert speed.scaled(marks[0], marks[-1]) >= 0


def digest(results):
    sha = hashlib.sha256()
    hash_results(sha, results)
    return sha.hexdigest()


def test_result_hash_covers_times_and_statuses_not_op_ids():
    session = hand_built_session()
    base = digest(session)
    assert digest(hand_built_session()) == base  # fresh op ids
    session[0].end_time = 1.5
    assert digest(session) != base
    session[0].end_time = 1.0
    session[0].status = ABORTED
    assert digest(session) != base


def test_layer_of_maps_modules_by_path():
    root = os.path.join(os.sep, "x", "src", "repro")
    assert layer_of(os.path.join(root, "sim", "engine.py")) == "sim.engine"
    assert layer_of(os.path.join(root, "core", "replica.py")) == "protocols"
    assert layer_of(os.path.join(root, "protocols", "craq.py")) == "protocols"
    assert layer_of(os.path.join(root, "verification", "report.py")) is None
    assert layer_of("~") is None


class FakeStats:
    """The part of ``pstats.Stats`` the attribution reads."""

    def __init__(self, stats):
        self.stats = stats


def test_self_seconds_charges_unmapped_functions_to_their_callers():
    engine = (os.path.join(os.sep, "repro", "sim", "engine.py"), 1, "run")
    kvs = (os.path.join(os.sep, "repro", "kvs", "store.py"), 1, "get")
    helper = (os.path.join(os.sep, "repro", "types.py"), 1, "helper")
    builtin = ("~", 0, "<built-in method builtins.len>")
    root = ("bench.py", 1, "main")
    stats = FakeStats(
        {
            root: (1, 1, 0.5, 10.0, {}),
            engine: (1, 1, 2.0, 9.0, {root: (1, 1, 2.0, 9.0)}),
            kvs: (1, 1, 1.0, 3.0, {engine: (1, 1, 1.0, 3.0)}),
            # The helper is called by both, a quarter of its time from kvs.
            helper: (2, 2, 4.0, 6.0, {engine: (1, 1, 3.0, 4.0), kvs: (1, 1, 1.0, 2.0)}),
            # The builtin is reached only through the helper.
            builtin: (2, 2, 2.0, 2.0, {helper: (2, 2, 2.0, 2.0)}),
        }
    )
    layers = self_seconds(stats)
    assert layers["sim.engine"] == pytest.approx(2.0 + 3.0 + 1.5)
    assert layers["kvs"] == pytest.approx(1.0 + 1.0 + 0.5)
    assert layers["other"] == pytest.approx(0.5)
    assert sum(layers.values()) == pytest.approx(9.5)


def test_run_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hermes-skew-closed", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
