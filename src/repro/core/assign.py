"""Overall memory-module assignment (paper Fig. 2).

``assign_modules`` is the package's central entry point: given the
operand sets of a (scheduled) instruction stream and ``k`` memory
modules, it

1. builds the access conflict graph,
2. colours it (atom decomposition + the Fig. 4 heuristic),
3. resolves the remaining conflicts by duplication — either the
   backtracking approach (Fig. 6) or the hitting-set approach
   (Figs. 7/9/10),
4. places every remaining value (pinned multi-definition values,
   dest-only values) so the allocation is total.

Composition support for the STOR2/STOR3 strategies: an ``initial``
allocation imports earlier-phase placements; its single-copy values act
as pre-assigned colours, and its multi-copy values are left out of the
colouring (they can already dodge) but participate in conflict checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .allocation import Allocation
from .backtrack import backtrack_duplication
from .coloring import ColoringResult, color_graph
from .conflict_graph import ConflictGraph
from .duplication import hitting_set_duplication
from .verify import ConflictIndex, conflicting_instructions


@dataclass(slots=True)
class AssignmentStats:
    k: int
    num_values: int
    num_instructions: int
    colored: int
    removed: int
    pinned: list[int] = field(default_factory=list)
    copies_created: int = 0
    residual_instructions: list[frozenset[int]] = field(default_factory=list)
    num_edges: int = 0

    @property
    def conflict_free(self) -> bool:
        return not self.residual_instructions


@dataclass(slots=True)
class AssignmentResult:
    allocation: Allocation
    coloring: ColoringResult
    stats: AssignmentStats
    method: str

    @property
    def single_copy_values(self) -> list[int]:
        return self.allocation.single_copy_values()

    @property
    def multi_copy_values(self) -> list[int]:
        return self.allocation.multi_copy_values()


def _place_pinned(value: int, alloc: Allocation, index: ConflictIndex) -> None:
    """Single-copy placement of a non-duplicable value removed during
    colouring: pick the module leaving the least conflict *weight*
    (execution count when profiled, instruction count otherwise) among
    the instructions that use the value, each trial module tested as a
    trial copy on the index."""
    rows = index.rows
    # Instructions with unplaced operands impose no constraint yet
    # (they are re-checked once the allocation is total).
    involved = [
        r
        for r in index.rows_of.get(value, ())
        if all(alloc.is_placed(v) for v in rows[r] if v != value)
    ]
    best_module, best_conflicts = 0, None
    for m in range(alloc.k):
        bad = sum(
            index.weight[r]
            for r in involved
            if not index.conflict_free(rows[r], alloc, value, m)
        )
        if best_conflicts is None or bad < best_conflicts:
            best_module, best_conflicts = m, bad
    alloc.add_copy(value, best_module)


def assign_modules(
    operand_sets: Iterable[Iterable[int]],
    k: int,
    method: str = "hitting_set",
    duplicable: set[int] | None = None,
    initial: Allocation | None = None,
    all_values: Iterable[int] | None = None,
    use_atoms: bool = True,
    module_choice: str = "first",
    tie_break: str = "random",
    seed: int = 0,
    weights: Sequence[int] | None = None,
    max_atom_nodes: int | None = None,
) -> AssignmentResult:
    """Run the paper's full assignment pipeline.

    Parameters
    ----------
    operand_sets:
        Per-instruction sets of data-value ids (the paper's instruction
        operand lists).
    k:
        Number of parallel memory modules.
    method:
        ``'hitting_set'`` (Fig. 7, the paper's reported configuration) or
        ``'backtrack'`` (Fig. 6).
    duplicable:
        Values that may be replicated; default: all.  Multi-definition
        values must be excluded by the caller (see
        :mod:`repro.ir.rename`).
    initial:
        Allocation from an earlier phase (STOR2/STOR3); imported copies
        are preserved.
    all_values:
        If given, every listed value is guaranteed placed (values that
        never appear as operands get a least-used-module single copy).
    weights:
        Optional per-instruction execution counts (profile-guided mode,
        paper §3 closing discussion): conflict-graph counts and pinned
        placement then minimise *dynamic* conflicts.
    max_atom_nodes:
        Clique-separator decomposition bound (components above it are
        coloured whole); defaults to
        :data:`repro.core.atoms.DEFAULT_MAX_NODES`.  Changing it
        changes results, so it is part of cache/job keys upstream.
    """
    raw = [frozenset(s) for s in operand_sets]
    if weights is not None:
        weights = list(weights)
        if len(weights) != len(raw):
            raise ValueError("weights must align with operand_sets")
        # Never-executed instructions impose no run-time constraint.
        pairs = [(s, w) for s, w in zip(raw, weights) if s and w > 0]
        sets = [s for s, _ in pairs]
        weights = [w for _, w in pairs]
    else:
        sets = [s for s in raw if s]
    rng = random.Random(seed)
    index = ConflictIndex(sets, weights)

    graph = ConflictGraph.from_operand_sets(sets, weights)
    if duplicable is None:
        duplicable = set(graph.nodes)
        if all_values is not None:
            duplicable |= set(all_values)

    alloc = initial.copy() if initial is not None else Allocation(k)
    preassigned = {
        v: next(iter(alloc.modules(v)))
        for v in alloc.values()
        if alloc.copy_count(v) == 1 and v in graph.nodes
    }
    flexible = {
        v for v in alloc.values() if alloc.copy_count(v) > 1 and v in graph.nodes
    }

    color_nodes = graph.nodes - flexible
    # Non-duplicable values cannot be repaired by copies if removed, so
    # colour them before everything else (extension over Fig. 4).
    pinned_first = {v for v in color_nodes if v not in duplicable}
    coloring = color_graph(
        graph.subgraph(color_nodes) if flexible else graph,
        k,
        preassigned,
        module_choice,
        use_atoms,
        prefer=pinned_first,
        max_atom_nodes=max_atom_nodes,
    )

    # Single copies for freshly coloured values.
    for v, m in coloring.assignment.items():
        if not alloc.is_placed(v):
            alloc.add_copy(v, m)

    removed = list(coloring.unassigned)
    pinned = sorted(v for v in removed if v not in duplicable)
    dup_targets = [v for v in removed if v in duplicable]

    for v in pinned:
        # A non-duplicable value demoted out of an earlier phase already
        # holds its (immovable) single copy; fresh pinned values get the
        # least-conflicting module.
        if not alloc.is_placed(v):
            _place_pinned(v, alloc, index)

    copies_before = alloc.total_copies
    if method == "hitting_set":
        hitting_set_duplication(
            index, alloc, dup_targets, duplicable, rng, tie_break
        )
    elif method == "backtrack":
        backtrack_duplication(index, alloc, dup_targets, rng, tie_break)
        # Cross-phase conflicts among fixed operands (none in single-phase
        # use) are repaired with the generic combination machinery.
        if conflicting_instructions(index, alloc):
            hitting_set_duplication(index, alloc, [], duplicable, rng, tie_break)
    else:
        raise ValueError(f"unknown method {method!r}")

    # Make the allocation total.
    if all_values is not None:
        load = [0] * k
        for v in alloc.values():
            for m in alloc.modules(v):
                load[m] += 1
        for v in sorted(set(all_values)):
            if not alloc.is_placed(v):
                m = min(range(k), key=lambda i: (load[i], i))
                alloc.add_copy(v, m)
                load[m] += 1

    stats = AssignmentStats(
        k=k,
        num_values=len(graph.nodes),
        num_instructions=len(sets),
        colored=len(coloring.assignment),
        removed=len(removed),
        pinned=pinned,
        copies_created=alloc.total_copies - copies_before,
        residual_instructions=conflicting_instructions(index, alloc),
        num_edges=graph.num_edges,
    )
    return AssignmentResult(alloc, coloring, stats, method)
