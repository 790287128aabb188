"""Dominators, natural loops, and program regions.

The paper performs memory-module assignment either for the whole program
(STOR1) or one *region* at a time (STOR2), where a region is a
single-entry program fragment in the sense of Ferrante/Ottenstein/Warren.
We use the standard loop-nest notion: every natural loop body is a
region, and the remaining top-level code forms the outermost region.
A data value is *global* when its definition/use blocks span more than
one region (it is live across a region boundary).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cfg import Cfg
from .rename import DataValue, RenamedProgram


def compute_dominators(cfg: Cfg) -> list[set[int]]:
    """Iterative dominator sets; dom[i] = blocks dominating block i."""
    n = len(cfg.blocks)
    all_blocks = set(range(n))
    dom: list[set[int]] = [all_blocks.copy() for _ in range(n)]
    dom[0] = {0}
    changed = True
    while changed:
        changed = False
        for block in cfg.blocks:
            bi = block.index
            if bi == 0:
                continue
            preds = block.preds
            if preds:
                new = set.intersection(*(dom[p] for p in preds)) | {bi}
            else:  # unreachable blocks are pruned by build_cfg, but be safe
                new = {bi}
            if new != dom[bi]:
                dom[bi] = new
                changed = True
    return dom


@dataclass(slots=True)
class Loop:
    """A natural loop: header block plus body blocks (header included)."""

    header: int
    body: set[int]
    depth: int = 0
    parent: int | None = None  # index into Regions.loops


@dataclass(slots=True)
class Regions:
    """Region assignment for a CFG.

    Region 0 is the top-level code; region ``i`` (>0) is loop ``i-1`` in
    ``loops``.  ``block_region[b]`` is the *innermost* region of block b.
    """

    loops: list[Loop]
    block_region: list[int]

    @property
    def count(self) -> int:
        return len(self.loops) + 1

    def regions_of_value(self, value: DataValue) -> set[int]:
        return {self.block_region[b] for b in value.blocks}

    def is_global(self, value: DataValue) -> bool:
        """A value is global when it appears in more than one region."""
        return len(self.regions_of_value(value)) > 1


def find_loops(cfg: Cfg) -> list[Loop]:
    """Natural loops from back edges; loops with the same header merge."""
    dom = compute_dominators(cfg)
    loops_by_header: dict[int, set[int]] = {}
    for block in cfg.blocks:
        for succ in block.succs:
            if succ in dom[block.index]:  # back edge block -> succ
                body = loops_by_header.setdefault(succ, {succ})
                # Walk predecessors backwards from the latch.
                stack = [block.index]
                while stack:
                    b = stack.pop()
                    if b in body:
                        continue
                    body.add(b)
                    stack.extend(cfg.blocks[b].preds)
    loops = [Loop(h, body) for h, body in sorted(loops_by_header.items())]

    # Nesting: loop A is inside loop B if A's body is a subset of B's.
    for i, a in enumerate(loops):
        best: int | None = None
        for j, b in enumerate(loops):
            if i == j:
                continue
            if a.body < b.body or (a.body == b.body and j < i):
                if best is None or len(loops[best].body) > len(b.body):
                    best = j
        a.parent = best
    for loop in loops:
        depth = 0
        p = loop.parent
        while p is not None:
            depth += 1
            p = loops[p].parent
        loop.depth = depth
    return loops


def compute_regions(cfg: Cfg) -> Regions:
    """Assign every block to its innermost loop region."""
    loops = find_loops(cfg)
    n = len(cfg.blocks)
    block_region = [0] * n
    # Process loops outermost-first so inner loops overwrite outer ones.
    for li in sorted(range(len(loops)), key=lambda i: loops[i].depth):
        for b in loops[li].body:
            block_region[b] = li + 1
    return Regions(loops, block_region)


@dataclass(slots=True)
class ValuePartition:
    """STOR2's split of data values into globals and per-region locals."""

    global_values: list[DataValue] = field(default_factory=list)
    locals_by_region: dict[int, list[DataValue]] = field(default_factory=dict)


def partition_values(renamed: RenamedProgram) -> ValuePartition:
    """Split the renamed program's values for the STOR2 strategy."""
    regions = compute_regions(renamed.cfg)
    part = ValuePartition()
    for value in renamed.values:
        value_regions = regions.regions_of_value(value)
        if len(value_regions) > 1:
            part.global_values.append(value)
        elif value_regions:
            region = next(iter(value_regions))
            part.locals_by_region.setdefault(region, []).append(value)
        # Values with no sites at all (dead declared vars) are ignored.
    return part
