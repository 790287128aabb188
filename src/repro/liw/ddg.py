"""Data-dependence graph over the body of one basic block.

Nodes are positions of non-terminator instructions in the block; edges
carry a minimum cycle distance: flow dependences need one full cycle
(``latency=1``), anti dependences may resolve in the same long
instruction because operand fetch precedes write-back in lock-step
execution (``latency=0``), and output dependences need a cycle.

Array accesses are disambiguated only by array name (the paper treats
array accesses as compile-time unpredictable); reads and writes of the
same array are ordered conservatively, loads commute with loads.
I/O instructions are chained to preserve the program's input/output
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from ..ir import tac
from ..ir.cfg import BasicBlock
from ..ir.tac import Value


class DepEdge(NamedTuple):
    src: int
    dst: int
    kind: str  # 'flow' | 'anti' | 'output' | 'mem' | 'io'
    latency: int


@dataclass(slots=True)
class DependenceGraph:
    """DAG over block-body instruction positions."""

    num_nodes: int
    edges: list[DepEdge] = field(default_factory=list)
    succs: list[list[DepEdge]] = field(default_factory=list)
    preds: list[list[DepEdge]] = field(default_factory=list)

    def add_edge(self, src: int, dst: int, kind: str, latency: int) -> None:
        if src == dst:
            return
        edge = DepEdge(src, dst, kind, latency)
        self.edges.append(edge)
        self.succs[src].append(edge)
        self.preds[dst].append(edge)

    def heights(self) -> list[int]:
        """Longest-path height of each node (list-scheduling priority)."""
        height = [0] * self.num_nodes
        # Nodes are in program order, and all edges go forward, so a
        # reverse sweep computes longest paths in one pass.
        for node in range(self.num_nodes - 1, -1, -1):
            best = 0
            for edge in self.succs[node]:
                best = max(best, edge.latency + height[edge.dst])
            height[node] = best
        return height


def build_ddg(block: BasicBlock) -> DependenceGraph:
    """Build the dependence DAG for ``block.body`` (renamed TAC)."""
    body = block.body
    n = len(body)
    ddg = DependenceGraph(n, [], [[] for _ in range(n)], [[] for _ in range(n)])

    last_def: dict[int, int] = {}  # value id -> node
    uses_since_def: dict[int, list[int]] = {}  # value id -> reader nodes
    last_array_store: dict[str, int] = {}
    loads_since_store: dict[str, list[int]] = {}
    last_io: int | None = None

    for i, instr in enumerate(body):
        # scalar flow/anti/output dependences
        for u in instr.uses():
            if not isinstance(u, Value):
                continue
            vid = u.id
            if vid in last_def:
                ddg.add_edge(last_def[vid], i, "flow", 1)
            uses_since_def.setdefault(vid, []).append(i)
        for d in instr.defs():
            if not isinstance(d, Value):
                continue
            vid = d.id
            for reader in uses_since_def.get(vid, ()):  # anti
                ddg.add_edge(reader, i, "anti", 0)
            if vid in last_def:  # output
                ddg.add_edge(last_def[vid], i, "output", 1)
            last_def[vid] = i
            uses_since_def[vid] = []

        # array dependences by name
        access = instr.ARRAY_ACCESS
        if access is not None:
            array = instr.array  # type: ignore[attr-defined]
            if array in last_array_store:
                ddg.add_edge(last_array_store[array], i, "mem", 1)
            if access == tac.LOAD:
                loads_since_store.setdefault(array, []).append(i)
            else:
                for reader in loads_since_store.get(array, ()):
                    ddg.add_edge(reader, i, "mem", 0)
                last_array_store[array] = i
                loads_since_store[array] = []

        # I/O ordering
        if instr.IO:
            if last_io is not None:
                ddg.add_edge(last_io, i, "io", 1)
            last_io = i

    return ddg
