"""Per-layer self time from a cProfile run of the simulator.

A function's layer is decided by the module it is defined in (its path
below the ``repro`` package). Functions without a layer — builtins such as
``heapq.heappush``, the standard library, dataclass-generated ``__init__``
methods, shared helpers like ``repro/types.py`` — are charged to the layers
of the functions that called them, in proportion to the time each caller
edge spent in them and through any chain of unmapped callers, because those
are the layers whose code asked for the work. Time reached only from
unmapped roots (the harness reduction, the benchmark's own gate) lands in
``other``.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Optional, Tuple

#: (path below ``repro/``, layer). The first matching prefix wins.
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("sim/engine.py", "sim.engine"),
    ("sim/node.py", "sim.node"),
    ("sim/network.py", "sim.network"),
    ("core/", "protocols"),
    ("protocols/", "protocols"),
    ("membership/", "membership"),
    ("kvs/", "kvs"),
    ("cluster/txn.py", "cluster.txn"),
    ("cluster/sharding.py", "cluster.sharding"),
    ("cluster/client.py", "cluster.client"),
    ("workloads/", "workloads"),
    ("verification/linearizability.py", "verification.linearizability"),
    ("verification/transactions.py", "verification.transactions"),
    ("verification/history.py", "verification.history"),
)

#: Every layer reported, ``other`` last.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for _, layer in LAYER_PREFIXES)) + ("other",)

_MARKER = os.sep + "repro" + os.sep


def layer_of(filename: str) -> Optional[str]:
    """The layer of a function defined in ``filename``; ``None`` if unmapped."""
    cut = filename.rfind(_MARKER)
    if cut < 0:
        return None
    relative = filename[cut + len(_MARKER):].replace(os.sep, "/")
    for prefix, layer in LAYER_PREFIXES:
        if relative.startswith(prefix):
            return layer
    return None


def self_seconds(stats: pstats.Stats) -> Dict[str, float]:
    """Self seconds per layer; the values sum to the profile's total time."""
    table = stats.stats  # type: ignore[attr-defined]
    shares: Dict[tuple, Dict[str, float]] = {}

    def share_of(func: tuple) -> Dict[str, float]:
        # Fraction of ``func``'s calls made on behalf of each layer: 1 for its
        # own layer when mapped, else its callers' shares weighted by the
        # time each caller edge spent in it. Cycles and root frames: other.
        if func in shares:
            return shares[func]
        layer = layer_of(func[0])
        if layer is not None:
            shares[func] = {layer: 1.0}
            return shares[func]
        shares[func] = {"other": 1.0}  # provisional, breaks recursion cycles
        callers = table[func][4] if func in table else {}
        weights = {caller: edge[2] for caller, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {caller: edge[1] for caller, edge in callers.items()}
            total = sum(weights.values())
        if total > 0:
            merged: Dict[str, float] = {}
            for caller, weight in weights.items():
                for name, part in share_of(caller).items():
                    merged[name] = merged.get(name, 0.0) + part * weight / total
            shares[func] = merged
        return shares[func]

    totals = dict.fromkeys(LAYERS, 0.0)
    for func, (_, _, self_time, _, _) in table.items():
        for name, part in share_of(func).items():
            totals[name] += self_time * part
    return totals
