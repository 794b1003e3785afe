"""The benchmark's workloads and one timed, checked run of a workload.

Every workload runs 5 replicas on the simulated clock in this process: no
worker pool, and shards (where there are any) coupled in one simulation.
The injected delays are the library defaults: network 2 µs one way with
±10% jitter (``repro.sim.network.NetworkConfig``), client RPC 0.75 µs each
way with ±5% jitter (``repro.cluster.client``).

A run is timed in the harness's public steps, so setup, simulation,
reduction and verification are separate spans without any hook in the
library: ``build_cluster``/``build_workload``/``Cluster.preload``/
``build_clients`` (setup), ``run_clients`` (run), the harness reduction
(reduce), and ``check_all`` or, for a run without a history, the replica
invariants (check).
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.harness import (
    ExperimentSpec,
    _reduce_run,
    build_clients,
    build_cluster,
    build_workload,
)
from repro.cluster.client import run_clients
from repro.cluster.failures import FailureEvent, FailureInjector
from repro.errors import SimulationDeadlock, VerificationError
from repro.membership.detector import FailureDetectorConfig
from repro.membership.service import MembershipConfig
from repro.types import OperationResult, OpStatus
from repro.verification import (
    History,
    check_all,
    check_no_pending_updates,
    check_replica_convergence,
)

from perfbench import metrics
from perfbench.hostspeed import HostSpeed

#: Per-key search budget of the linearizability checker. The checker
#: reports a key that exhausts it as a violation, so the gate also requires
#: the states explored, summed over all keys, to stay below it: then no
#: single key can have run out.
MAX_STATES = 2_000_000

#: Node crashed by ``hermes-failover-open`` and when (simulated seconds).
CRASH_NODE = 4
CRASH_TIME = 0.020


def _skew_closed(seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        protocol="hermes",
        num_replicas=5,
        zipfian_exponent=0.99,
        write_ratio=0.2,
        num_keys=100_000,
        client_model="closed",
        clients_per_replica=10,
        ops_per_client=2_000,
        seed=seed,
    )


def _craq_txn(seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        protocol="craq",
        num_replicas=5,
        shards=4,
        shard_mode="coupled",
        zipfian_exponent=0.99,
        write_ratio=0.2,
        txn_fraction=0.2,
        txn_keys=2,
        txn_cross_shard=0.5,
        num_keys=10_000,
        client_model="closed",
        clients_per_replica=4,
        ops_per_client=500,
        record_history=True,
        seed=seed,
    )


def _failover_open(seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        protocol="hermes",
        num_replicas=5,
        write_ratio=0.05,
        num_keys=100_000,
        client_model="aggregated",
        sessions=100_000,
        offered_load=1e6,
        clients_per_replica=10,
        ops_per_client=1_200,
        run_membership=True,
        membership=MembershipConfig(
            lease_duration=5e-3,
            renewal_interval=1e-3,
            detection=FailureDetectorConfig(ping_interval=1e-3, detection_timeout=8e-3),
        ),
        faults=(FailureEvent.crash(CRASH_TIME, CRASH_NODE),),
        record_history=True,
        allow_incomplete=True,
        max_sim_time=0.080,
        seed=seed,
    )


@dataclass(frozen=True)
class Workload:
    """A workload: a spec factory and how many simulations one run makes.

    ``subruns > 1`` makes each run simulate the spec at that many seeds
    derived from the benchmark seed and pool the results. It is used where
    one seed's key-popularity layout moves the result more than host noise
    does, so that the figures of one seed stand for the workload.
    """

    spec: Callable[[int], ExperimentSpec]
    subruns: int = 1

    def specs(self, seed: int) -> List[ExperimentSpec]:
        """The specs one run simulates, in order; seed ``s`` uses ``s*k .. s*k+k-1``."""
        return [self.spec(seed * self.subruns + index) for index in range(self.subruns)]


WORKLOADS = {
    "hermes-skew-closed": Workload(_skew_closed),
    "craq-txn-checked": Workload(_craq_txn, subruns=3),
    "hermes-failover-open": Workload(_failover_open),
}

PHASES = ("setup_s", "run_s", "reduce_s", "check_s")

#: A span of host time: (start, end) readings of a work clock.
Span = Tuple[float, float]


def raw_seconds(start: float, end: float) -> float:
    """The CPU seconds of a span, unscaled."""
    return end - start


def phase_seconds(spans: Dict[str, List[Span]], seconds=raw_seconds) -> Dict[str, float]:
    """Each phase's spans, measured by ``seconds`` and summed."""
    return {name: sum(seconds(a, b) for a, b in spans[name]) for name in PHASES}


@dataclass
class RunRecord:
    """Host timings, simulated metrics and the gate verdict of one run."""

    #: Each phase's spans on the work clock, one per simulation.
    spans: Dict[str, List[Span]]
    sim: Dict[str, float]
    counters: Dict[str, float]
    digest: str
    due: int
    completed: int
    violations: List[str] = field(default_factory=list)

    @property
    def gate_failed(self) -> int:
        """Ops due of a run that failed its gate: all of them; else 0."""
        return self.due if self.violations else 0


def setup(spec: ExperimentSpec):
    """Build, preload and arm the cluster and build its clients."""
    cluster = build_cluster(spec)
    workload = build_workload(spec)
    initial = workload.initial_dataset()
    cluster.preload(initial)
    if spec.faults:
        FailureInjector(cluster, spec.faults).arm()
    history = History() if spec.record_history else None
    clients = build_clients(spec, cluster, workload, history)
    return cluster, initial, history, clients


def time_setup(workload: Workload, seed: int, speed: HostSpeed) -> List[Span]:
    """Set up every simulation of one run, timed as :func:`run_once` does; its spans."""
    spans = []
    for spec in workload.specs(seed):
        gc.collect()
        t0 = speed.mark()
        setup(spec)
        spans.append((t0, speed.mark()))
    return spans


def run_once(
    workload: Workload,
    seed: int,
    profiler: Optional[cProfile.Profile] = None,
    speed: Optional[HostSpeed] = None,
) -> RunRecord:
    """Set up, run, reduce and check every simulation of one run; time each phase.

    Phases are timed on a work clock of CPU seconds of this process: the
    clock of ``speed`` (see :mod:`perfbench.hostspeed`), each phase boundary
    a sample of the host's speed, or without it plain CPU time. The
    simulator is single-threaded and never blocks, so on an idle host CPU
    time equals wall time; on a shared virtual machine it leaves out the
    time the host ran someone else on this CPU, which wall time would count.

    With ``profiler`` the phases run under it. Profiling never feeds the
    end-to-end metrics: the caller measures those on unprofiled runs.
    """
    spans: Dict[str, List[Span]] = {name: [] for name in PHASES}
    requests: List[metrics.Request] = []
    totals: Counter = Counter()
    outages: List[float] = []
    violations: List[str] = []
    sha = hashlib.sha256()
    for spec in workload.specs(seed):
        sub = _simulate(spec, profiler, speed)
        for name in PHASES:
            spans[name].append(sub.spans[name])
        requests.extend(sub.requests)
        totals.update(sub.counts)
        outages.append(sub.outage)
        violations.extend(sub.violations)
        metrics.hash_results(sha, sub.results)
    latencies = metrics.latency_metrics(requests)
    for kind in ("read", "write"):
        if not latencies[f"sim_{kind}_p50_us"]:
            violations.append(f"no {kind} completed OK")
    sim = {
        "sim_mops": totals["ok"] / totals["sim_span"] / 1e6 if totals["sim_span"] else 0.0,
        **latencies,
        "ok_frac": 1.0 - totals["failed"] / totals["due"],
        "sim_write_outage_ms": statistics.fmean(outages) * 1e3,
    }
    counters = layer_counters(totals)
    sha.update(json.dumps({**sim, **counters}, sort_keys=True).encode())
    return RunRecord(
        spans=spans,
        sim=sim,
        counters=counters,
        digest=sha.hexdigest(),
        due=totals["due"],
        completed=totals["completed"],
        violations=violations,
    )


@dataclass
class _Simulation:
    spans: Dict[str, Span]
    results: List[OperationResult]
    requests: List[metrics.Request]
    counts: Dict[str, float]
    outage: float
    violations: List[str]


def _simulate(
    spec: ExperimentSpec, profiler: Optional[cProfile.Profile], speed: Optional[HostSpeed]
) -> _Simulation:
    # The previous simulation's cluster is cyclic garbage: free it now, so it
    # neither adds to this one's peak memory nor gets collected on its clock.
    gc.collect()
    clock = speed.mark if speed is not None else time.process_time
    if profiler is not None:
        profiler.enable()
    t0 = clock()
    cluster, initial, history, clients = setup(spec)
    t1 = clock()
    violations: List[str] = []
    try:
        duration = run_clients(
            cluster, clients, max_time=spec.max_sim_time, allow_incomplete=spec.allow_incomplete
        )
    except SimulationDeadlock as exc:
        # A stalled run is checked and reported like any other: its
        # unfinished ops count as failed, and the gate fails.
        violations.append(f"simulation stalled: {exc}")
        duration = cluster.sim.now
    t2 = clock()
    result = _reduce_run(spec, cluster, clients, duration, history)
    t3 = clock()
    if history is not None:
        report = check_all(
            history,
            initial_values=initial,
            migration_records=result.migration_records,
            max_states=MAX_STATES,
        )
    else:
        # Without a history (and without transactions), the gate is that
        # every op due completed OK and that the replicas converged with no
        # update left pending.
        report = None
        ok_ops = sum(1 for r in result.results if r.status is OpStatus.OK)
        replicas = list(cluster.all_replicas())
        try:
            check_replica_convergence(replicas)
            check_no_pending_updates(replicas)
            state_error = None
        except VerificationError as exc:
            state_error = str(exc)
    t4 = clock()
    if profiler is not None:
        profiler.disable()

    requests = [req for client in clients for req in metrics.requests_of(client.results)]
    due = sum(client.max_ops for client in clients)
    issued = sum(client.issued for client in clients)
    failures = metrics.failure_accounting(requests, due, issued)
    # Outage and reconfiguration are timed from the crash, or from the start.
    crash = spec.faults[0].time if spec.faults else 0.0
    counts = raw_counts(cluster, report, crash)
    counts.update(
        due=due,
        completed=len(requests),
        ok=len(requests) - failures["non_ok"],
        failed=failures["failed"],
        unissued=failures["unissued"],
        sim_span=metrics.sim_span(requests),
    )
    outage = metrics.write_outage(requests, crash)
    if outage is None:
        violations.append(f"no write issued at or after {crash} s committed")
    if report is None:
        if ok_ops < due:
            violations.append(f"{due - ok_ops} of {due} ops due did not complete OK")
        if state_error is not None:
            violations.append(state_error)
    else:
        violations.extend(report.violations)
        if counts["lin_states"] >= MAX_STATES:
            violations.append("linearizability search budget exhausted")
    return _Simulation(
        spans={"setup_s": (t0, t1), "run_s": (t1, t2), "reduce_s": (t2, t3), "check_s": (t3, t4)},
        results=[r for client in clients for r in client.results],
        requests=requests,
        counts=counts,
        # 0 stands in for a missing outage; the violation fails the run.
        outage=outage if outage is not None else 0.0,
        violations=violations,
    )


def raw_counts(cluster, report, crash: float) -> Dict[str, float]:
    """Additive counts read from one simulation's public objects."""
    network = cluster.network.stats
    processes = list((cluster.hosts if cluster.sharded else cluster.replicas).values())
    service = cluster.membership_service
    if service is not None:
        processes.append(service)
    reconfigs = service.reconfiguration_times if service is not None else []
    lin = report.checker("linearizability") if report is not None else None
    lin_details = lin.details if lin is not None else {}
    return {
        "events": cluster.sim.events_executed,
        "frames": sum(p.messages_processed for p in processes),
        "messages": network.messages_sent,
        "bytes": network.bytes_sent,
        "dropped": network.messages_dropped_loss
        + network.messages_dropped_partition
        + network.messages_dropped_crashed,
        "writes_committed": cluster.total_stat("writes_committed"),
        "reads_local": cluster.total_stat("reads_served_locally"),
        "reads_remote": cluster.total_stat("reads_served_remotely"),
        "rmws_aborted": cluster.total_stat("rmws_aborted"),
        "replays": cluster.total_stat("replays_started"),
        "inv_retransmissions": cluster.total_stat("inv_retransmissions"),
        "view_changes": len(reconfigs),
        # Crash to first view installed, for simulations that had one.
        "reconfig_s": reconfigs[0] - crash if reconfigs else 0.0,
        "reconfigured": 1 if reconfigs else 0,
        "txns_committed": cluster.txn_stat("txns_committed"),
        "txns_aborted": cluster.txn_stat("txns_aborted"),
        "txns_timedout": cluster.txn_stat("txns_timedout"),
        "txns_cross_shard": cluster.txn_stat("txns_cross_shard"),
        "lin_keys": lin_details.get("keys_checked", 0),
        "lin_states": lin_details.get("explored_states", 0),
        "lin_ops": lin_details.get("operations", 0),
    }


#: Unit of each per-layer count :func:`layer_counters` reports.
COUNTER_UNITS = {
    "sim.engine.events": "count",
    "sim.engine.events_per_op": "events/op",
    "sim.node.frames": "count",
    "sim.network.messages": "count",
    "sim.network.bytes": "bytes",
    "sim.network.msgs_per_op": "msgs/op",
    "sim.network.bytes_per_op": "bytes/op",
    "sim.network.dropped": "count",
    "protocols.writes_committed": "count",
    "protocols.local_read_frac": "ratio",
    "protocols.rmws_aborted": "count",
    "protocols.replays": "count",
    "protocols.inv_retransmissions": "count",
    "membership.view_changes": "count",
    "membership.reconfig_ms": "ms",
    "cluster.txn.commit_ratio": "ratio",
    "cluster.txn.aborted": "count",
    "cluster.txn.timedout": "count",
    "cluster.txn.cross_shard": "count",
    "cluster.client.unissued_ops": "count",
    "verification.keys": "count",
    "verification.explored_states": "count",
    "verification.states_per_op": "states/op",
}


def layer_counters(totals: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from counts summed over a run's simulations.

    Ratios with an empty base read 0 (no transactions, no history, no view
    change).
    """

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    completed = totals["completed"]
    txns_done = totals["txns_committed"] + totals["txns_aborted"] + totals["txns_timedout"]
    reads = totals["reads_local"] + totals["reads_remote"]
    return {
        "sim.engine.events": totals["events"],
        "sim.engine.events_per_op": ratio(totals["events"], completed),
        "sim.node.frames": totals["frames"],
        "sim.network.messages": totals["messages"],
        "sim.network.bytes": totals["bytes"],
        "sim.network.msgs_per_op": ratio(totals["messages"], completed),
        "sim.network.bytes_per_op": ratio(totals["bytes"], completed),
        "sim.network.dropped": totals["dropped"],
        "protocols.writes_committed": totals["writes_committed"],
        "protocols.local_read_frac": ratio(totals["reads_local"], reads),
        "protocols.rmws_aborted": totals["rmws_aborted"],
        "protocols.replays": totals["replays"],
        "protocols.inv_retransmissions": totals["inv_retransmissions"],
        "membership.view_changes": totals["view_changes"],
        "membership.reconfig_ms": ratio(totals["reconfig_s"], totals["reconfigured"]) * 1e3,
        "cluster.txn.commit_ratio": ratio(totals["txns_committed"], txns_done),
        "cluster.txn.aborted": totals["txns_aborted"],
        "cluster.txn.timedout": totals["txns_timedout"],
        "cluster.txn.cross_shard": totals["txns_cross_shard"],
        "cluster.client.unissued_ops": totals["unissued"],
        "verification.keys": totals["lin_keys"],
        "verification.explored_states": totals["lin_states"],
        "verification.states_per_op": ratio(totals["lin_states"], totals["lin_ops"]),
    }
