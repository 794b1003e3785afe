"""Reductions from one finished run to the benchmark's simulated metrics.

Everything here reads public objects after a run (client sessions, the
cluster, the verification report) and is exact for a given seed: the same
seed gives the same numbers and the same digest on every host.

A *request* is what a client session issued: a single operation, or a
multi-key transaction. Sessions record one ``OperationResult`` per member
operation of a transaction, appended back to back with the transaction's
shared start time, end time, status and serving node, so consecutive
results of one session that agree on all four are one request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.stats import latency_summary
from repro.types import OperationResult, OpStatus, OpType


@dataclass(frozen=True)
class Request:
    """One client request, reduced from its member operation results."""

    status: OpStatus
    start: float
    end: float
    #: A single read. Everything else (updates, RMWs, transactions) is in
    #: the update/txn latency class.
    is_read: bool
    #: Whether the request writes: a committed one ends a write-outage gap.
    has_update: bool

    # ``ok`` and ``latency`` as on ``OperationResult``, for ``latency_summary``.
    @property
    def ok(self) -> bool:
        return self.status is OpStatus.OK

    @property
    def latency(self) -> float:
        return self.end - self.start


def requests_of(results: Sequence[OperationResult]) -> List[Request]:
    """Collapse one session's results into its requests, in record order."""
    requests: List[Request] = []
    group: List[OperationResult] = []

    def flush() -> None:
        if group:
            head = group[0]
            requests.append(
                Request(
                    status=head.status,
                    start=head.start_time,
                    end=head.end_time,
                    is_read=len(group) == 1 and head.op.op_type is OpType.READ,
                    has_update=any(r.op.op_type is not OpType.READ for r in group),
                )
            )
            group.clear()

    for result in results:
        if group:
            head = group[0]
            if (
                result.start_time != head.start_time
                or result.end_time != head.end_time
                or result.status is not head.status
                or result.served_by != head.served_by
            ):
                flush()
        group.append(result)
    flush()
    return requests


def failure_accounting(requests: Sequence[Request], due: int, issued: int) -> Dict[str, float]:
    """Count every request due that did not complete OK.

    Args:
        requests: The completed requests (any terminal status).
        due: Requests due, the sum of the sessions' budgets.
        issued: Requests the sessions actually issued. A generator bound to
            a crashed node stops issuing, so ``due - issued`` is work the
            run never even offered to the system.

    Returns:
        ``non_ok`` (terminal status other than OK), ``inflight`` (issued,
        never completed), ``unissued``, their sum ``failed`` and
        ``failed_frac``, that sum over ``due``.
    """
    if due < 1 or not len(requests) <= issued <= due:
        raise ValueError(f"inconsistent counts: {len(requests)} completed, {issued} issued, {due} due")
    non_ok = sum(1 for r in requests if not r.ok)
    inflight = issued - len(requests)
    unissued = due - issued
    failed = non_ok + inflight + unissued
    return {
        "non_ok": non_ok,
        "inflight": inflight,
        "unissued": unissued,
        "failed": failed,
        "failed_frac": failed / due,
    }


def write_outage(requests: Iterable[Request], since: float) -> Optional[float]:
    """Simulated time without write service from ``since`` on.

    The time from ``since`` (a crash; the start of the run on workloads
    without a fault, where this is the first write's latency) until the
    first write *issued at or after it* commits. Writes already in flight
    at a crash may still commit just after it, so they do not end the
    outage; a write issued after the crash commits only once the cluster
    serves writes again. ``None`` if no such write committed.
    """
    ends = [r.end for r in requests if r.has_update and r.ok and r.start >= since]
    return min(ends) - since if ends else None


def latency_metrics(requests: Sequence[Request]) -> Dict[str, float]:
    """Median and p99 simulated latency of OK reads and OK updates/txns, in µs.

    A class without an OK request reads 0 (``latency_summary``'s empty
    summary).
    """
    reads = latency_summary([r for r in requests if r.is_read])
    writes = latency_summary([r for r in requests if not r.is_read])
    return {
        "sim_read_p50_us": reads.median * 1e6,
        "sim_read_p99_us": reads.p99 * 1e6,
        "sim_write_p50_us": writes.median * 1e6,
        "sim_write_p99_us": writes.p99 * 1e6,
    }


def sim_span(requests: Sequence[Request]) -> float:
    """Simulated seconds from the first request issued to the last OK reply; 0 if none is OK."""
    ends = [r.end for r in requests if r.ok]
    return max(ends) - min(r.start for r in requests) if ends else 0.0


def hash_results(sha, results: Iterable[OperationResult]) -> None:
    """Feed every op's (status, start, end, served_by) into ``sha``, in op order.

    Operation ids are left out: they come from a process-wide counter, so
    they differ between two runs of one seed in the same process.
    """
    for r in results:
        sha.update(f"{r.status.value},{r.start_time!r},{r.end_time!r},{r.served_by}\n".encode())
