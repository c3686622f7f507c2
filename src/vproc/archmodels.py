"""Analytic models of the two baseline architectures.

The fully tiled option maps every operation of a dataflow kernel to its own
hardware unit, so latency is the critical path of the graph plus a final
synchronisation barrier.  The fully sequential option is the degenerate
vector core with one unit per arithmetic class.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CoreConfig
from .isa import CLASS_LAT, OpClass


class CyclicGraphError(Exception):
    pass


@dataclass
class DataflowKernel:
    """Acyclic operation graph, replicated R times in parallel."""

    nodes: list[tuple[str, OpClass]]
    edges: list[tuple[str, str]]
    replication: int = 24

    def op_counts(self) -> dict[OpClass, int]:
        counts: dict[OpClass, int] = {}
        for _, cls in self.nodes:
            counts[cls] = counts.get(cls, 0) + 1
        return counts

    def topological_order(self) -> list[str]:
        """Node ids in a dependency order (Kahn); rejects cyclic graphs."""
        succs: dict[str, list[str]] = {nid: [] for nid, _ in self.nodes}
        indeg: dict[str, int] = {nid: 0 for nid, _ in self.nodes}
        for src, dst in self.edges:
            succs[src].append(dst)
            indeg[dst] += 1
        ready = [nid for nid, d in indeg.items() if d == 0]
        order = []
        while ready:
            nid = ready.pop()
            order.append(nid)
            for nxt in succs[nid]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
        if len(order) != len(self.nodes):
            raise CyclicGraphError("dataflow graph contains a cycle")
        return order


def _node_latency(cls: OpClass, cfg: CoreConfig) -> int:
    if cls not in CLASS_LAT:
        raise ValueError(f"dataflow nodes must be arithmetic, got {cls}")
    return getattr(cfg, CLASS_LAT[cls])


def tiled_latency(k: DataflowKernel, cfg: CoreConfig, barrier_cost: int = 1) -> int:
    """Critical-path latency of the fully tiled circuit.

    Replication does not appear: replicas run in parallel.  The tiled
    circuit has no controller, so no per-instruction issue cost is charged.
    """
    if barrier_cost < 0:
        raise ValueError(f"barrier cost {barrier_cost} must be >= 0")
    weight = {nid: _node_latency(cls, cfg) for nid, cls in k.nodes}
    preds: dict[str, list[str]] = {nid: [] for nid, _ in k.nodes}
    for src, dst in k.edges:
        preds[dst].append(src)
    # Longest-path finish time of each node, in dependency order.
    finish: dict[str, int] = {}
    for nid in k.topological_order():
        finish[nid] = weight[nid] + max((finish[p] for p in preds[nid]),
                                        default=0)
    return max(finish.values()) + barrier_cost


def sequential_config(base: CoreConfig) -> CoreConfig:
    """The fully sequential architecture: one unit per arithmetic class."""
    return base.with_mix(1, 1, 1)
