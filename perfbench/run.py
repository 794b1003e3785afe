"""The repository benchmark: one workload, timed, checked, reported as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hermes-skew-closed --seed 1 --seconds 40 --trace 0

The workload runs back to back, each run set up from scratch, for about
``--seconds`` wall seconds in all (at least once). Host times are CPU
seconds of this thread, scaled to a reference host speed sampled while
the runs go (see ``perfbench.hostspeed``), medians over the runs.
Simulated metrics are exact for a seed; every run of the seed must give
the same digest, or the result is marked incorrect.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` makes fewer
unprofiled runs, leaving time for one more under ``cProfile``, and prints
the per-layer metrics: exact counts from the run's public objects, each
layer's self seconds from the profile, and host figures of the unprofiled
runs. Profiled numbers never feed end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``attempted`` counts
the ops due over all runs made; ``failed`` counts the ops of runs that
failed the correctness gate (see README.md).
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent

#: Set-up is measured at least this many times per invocation.
MIN_SETUPS = 3

#: A profiled run takes about this many times as long as an unprofiled one;
#: ``--trace 1`` keeps room for it inside ``--seconds``.
PROFILED_COST = 3.5

#: Gate violations printed; a broken protocol can fail thousands of keys.
MAX_PROBLEMS_SHOWN = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_cpu_s": "ops/s",
    "cpu_s": "s",
    "sim_mops": "Mops/sim-s",
    "sim_read_p50_us": "us",
    "sim_read_p99_us": "us",
    "sim_write_p50_us": "us",
    "sim_write_p99_us": "us",
    "ok_frac": "ratio",
    "sim_write_outage_ms": "ms",
}


def parse_args(argv: Optional[Sequence[str]], workloads: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.hostspeed import REFERENCE_KERNEL_S, HostSpeed
    from perfbench.layers import LAYERS, self_seconds
    from perfbench.workloads import (
        COUNTER_UNITS,
        WORKLOADS,
        phase_seconds,
        run_once,
        time_setup,
    )

    args = parse_args(argv, list(WORKLOADS))
    workload = WORKLOADS[args.workload]

    records = []
    walls: List[float] = []
    started = time.perf_counter()
    speed = HostSpeed()
    with speed:
        while True:
            t0 = time.perf_counter()
            records.append(run_once(workload, args.seed, speed=speed))
            walls.append(time.perf_counter() - t0)
            upcoming = statistics.median(walls) * (1.0 + (PROFILED_COST if args.trace else 0.0))
            if time.perf_counter() - started + upcoming > args.seconds:
                break
        setup_spans = [r.spans["setup_s"] for r in records]
        while len(setup_spans) < MIN_SETUPS:
            setup_spans.append(time_setup(workload, args.seed, speed))
    # Before any profiled run, whose bookkeeping would add to it.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    phases = [phase_seconds(r.spans, speed.scaled) for r in records]
    setups = [sum(speed.scaled(a, b) for a, b in spans) for spans in setup_spans]

    def median_phase(name: str) -> float:
        return statistics.median(p[name] for p in phases)

    cpu_s = statistics.median(sum(p.values()) for p in phases)

    checked = list(records)
    if args.trace:
        profiler = cProfile.Profile()
        traced = run_once(workload, args.seed, profiler)
        checked.append(traced)
        layer_self = self_seconds(pstats.Stats(profiler))
        values: Dict[str, float] = dict(records[0].counters)
        values.update({f"{layer}.self_s": layer_self[layer] for layer in LAYERS})
        values["phase.run_s"] = median_phase("run_s")
        values["phase.reduce_s"] = median_phase("reduce_s")
        values["phase.check_s"] = median_phase("check_s")
        # Both unscaled: the profiled run is not sampled.
        unprofiled_cpu_s = statistics.median(sum(phase_seconds(r.spans).values()) for r in records)
        values["trace.overhead_frac"] = (
            sum(phase_seconds(traced.spans).values()) / unprofiled_cpu_s - 1.0
        )
        values["host.peak_rss_mb"] = peak_rss_mb
        units = dict(COUNTER_UNITS)
        units.update({f"{layer}.self_s": "s" for layer in LAYERS})
        units.update(
            {
                "phase.run_s": "s",
                "phase.reduce_s": "s",
                "phase.check_s": "s",
                "trace.overhead_frac": "ratio",
                "host.peak_rss_mb": "MiB",
            }
        )
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_cpu_s": statistics.median(
                r.completed / p["run_s"] for r, p in zip(records, phases)
            ),
            "cpu_s": cpu_s,
            **records[0].sim,
        }
        units = END_TO_END_UNITS

    digests = sorted({r.digest for r in checked})
    problems: List[str] = [v for r in checked for v in r.violations]
    if len(digests) > 1:
        problems.append(f"runs of seed {args.seed} disagree: digests {digests}")
    for problem in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"perfbench: FAILED: {problem}", file=sys.stderr)
    if len(problems) > MAX_PROBLEMS_SHOWN:
        print(f"perfbench: ... and {len(problems) - MAX_PROBLEMS_SHOWN} more", file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed}: {len(records)} runs, digest {digests[0]}")
    kernels = [seconds for _, seconds in speed.samples]
    print(
        f"host speed: {len(kernels)} kernel passes, median {statistics.median(kernels) * 1e3:.2f} ms"
        f" (reference {REFERENCE_KERNEL_S * 1e3:.2f} ms); unscaled cpu_s"
        f" {statistics.median(sum(phase_seconds(r.spans).values()) for r in records):.6g} s"
    )
    for name in units:
        print(f"  {name:36s} {values[name]:>16.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(r.due for r in checked),
                "failed": sum(r.gate_failed for r in checked),
                "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
