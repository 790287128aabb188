"""Frozen reference implementations of the allocation kernels and of
the front end's renaming and list scheduling.

The live modules in :mod:`repro.core` run on the integer-bitmask kernels
of :mod:`repro.core.bitset`.  This module retains the original
``set``/``dict`` implementations they were ported from, verbatim except
for naming, so that

- the differential suite (``tests/core/test_bitset_differential.py``)
  can fuzz the bitset kernels against them — the ports are required to
  be *byte-identical*, not merely equivalent;
- the allocation gate (``benchmarks/test_alloc_gate.py``) can check
  that the live kernels allocate identically and are not slower on
  real programs.

The same holds for the front end: the whole-program reaching-definitions
renamer and the sweep-rebuilding list scheduler are the oracles of
:func:`repro.ir.rename.rename` and
:func:`repro.liw.scheduler.schedule_block`; and for the array-layout
search (the last section), whose per-call cost model re-prices every
word on every trial and is the oracle of
:func:`repro.core.arraylayout.optimize_arrays`.

Everything here shares the result dataclasses of the live modules
(:class:`~repro.core.coloring.ColoringResult`,
:class:`~repro.core.backtrack.BacktrackStats`,
:class:`~repro.core.assign.AssignmentResult`, ...), so results compare
directly.  Do not "improve" this module: its value is that it does not
change.
"""

from __future__ import annotations

import copy
import heapq
import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from repro.core.allocation import Allocation
from repro.core.arrayaccess import (
    AccessProfile,
    ArrayRef,
    LiwProfile,
    analyze_accesses,
)
from repro.core.arraylayout import (
    _MAX_COMBOS,
    _SWEEPS,
    ArrayLayoutPlan,
    _candidate_specs,
    _default_specs,
    _optimize_moves,
)
from repro.core.assign import AssignmentResult, AssignmentStats
from repro.core.backtrack import BacktrackStats
from repro.core.coloring import ColoringResult, ColoringStep
from repro.core.duplication import DuplicationStats
from repro.core.verify import sdr_exists
from repro.ir import tac
from repro.ir.cfg import BasicBlock, Cfg
from repro.ir.rename import RENAME_MODES, DataValue, RenamedProgram
from repro.liw.ddg import build_ddg
from repro.liw.machine import MachineConfig
from repro.liw.reorder import verify_schedule
from repro.liw.schedule import BlockSchedule, LiwInstruction, Schedule
from repro.memsim.interleave import LayoutSpec
from repro.memsim.simulator import ScalarLoadMemo


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class ReferenceConflictGraph:
    """The original pair-hashing conflict graph (paper §2)."""

    __slots__ = ("nodes", "adj", "conf", "instructions")

    def __init__(self) -> None:
        self.nodes: set[int] = set()
        self.adj: dict[int, set[int]] = {}
        self.conf: dict[tuple[int, int], int] = {}
        self.instructions: list[frozenset[int]] = []

    @classmethod
    def from_operand_sets(
        cls,
        operand_sets: Iterable[Iterable[int]],
        weights: Iterable[int] | None = None,
    ) -> "ReferenceConflictGraph":
        graph = cls()
        if weights is None:
            for operands in operand_sets:
                graph.add_instruction(operands)
        else:
            for operands, w in zip(operand_sets, weights):
                graph.add_instruction(operands, w)
        return graph

    def add_node(self, v: int) -> None:
        if v not in self.nodes:
            self.nodes.add(v)
            self.adj[v] = set()

    def add_instruction(self, operands: Iterable[int], weight: int = 1) -> None:
        if weight < 0:
            raise ValueError("weight must be non-negative")
        ops = frozenset(operands)
        self.instructions.append(ops)
        for v in ops:
            self.add_node(v)
        if weight == 0:
            return
        ops_sorted = sorted(ops)
        for i, u in enumerate(ops_sorted):
            for v in ops_sorted[i + 1 :]:
                self.adj[u].add(v)
                self.adj[v].add(u)
                key = _edge(u, v)
                self.conf[key] = self.conf.get(key, 0) + weight

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> set[int]:
        return self.adj[v]

    def conflict_count(self, u: int, v: int) -> int:
        return self.conf.get(_edge(u, v), 0)

    def has_edge(self, u: int, v: int) -> bool:
        return _edge(u, v) in self.conf

    def edges(self) -> Iterator[tuple[int, int]]:
        return iter(self.conf.keys())

    @property
    def num_edges(self) -> int:
        return len(self.conf)

    def is_clique(self, vertices: Iterable[int]) -> bool:
        vs = list(vertices)
        for i, u in enumerate(vs):
            for v in vs[i + 1 :]:
                if v not in self.adj[u]:
                    return False
        return True

    def subgraph(
        self, vertices: Iterable[int], with_instructions: bool = False
    ) -> "ReferenceConflictGraph":
        keep = {v for v in vertices if v in self.nodes}
        sub = ReferenceConflictGraph()
        for v in keep:
            sub.add_node(v)
        for u in keep:
            for v in self.adj[u]:
                if u < v and v in keep:
                    sub.adj[u].add(v)
                    sub.adj[v].add(u)
                    sub.conf[(u, v)] = self.conf[(u, v)]
        if with_instructions:
            for ops in self.instructions:
                projected = ops & keep
                if projected:
                    sub.instructions.append(projected)
        return sub

    def components(self) -> list[set[int]]:
        seen: set[int] = set()
        out: list[set[int]] = []
        for start in sorted(self.nodes):
            if start in seen:
                continue
            comp: set[int] = set()
            stack = [start]
            while stack:
                v = stack.pop()
                if v in comp:
                    continue
                comp.add(v)
                stack.extend(self.adj[v] - comp)
            seen |= comp
            out.append(comp)
        return out

    def __contains__(self, v: int) -> bool:
        return v in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)


# --------------------------------------------------------------------------
# Atom decomposition (original set-walking version)
# --------------------------------------------------------------------------

REFERENCE_MAX_NODES = 800


def reference_mcs_m(
    graph: ReferenceConflictGraph,
) -> tuple[dict[int, set[int]], list[int]]:
    vertices = sorted(graph.nodes)
    weight: dict[int, int] = {v: 0 for v in vertices}
    numbered: set[int] = set()
    h_adj: dict[int, set[int]] = {v: set(graph.adj[v]) for v in vertices}
    numbering: list[int] = []

    heap: list[tuple[int, int]] = [(0, v) for v in vertices]
    heapq.heapify(heap)

    for _ in range(len(vertices)):
        while True:
            neg_w, v = heapq.heappop(heap)
            if v not in numbered and -neg_w == weight[v]:
                break
        minimax: dict[int, int] = {}
        search: list[tuple[int, int]] = []
        for u in graph.adj[v]:
            if u not in numbered:
                minimax[u] = -1
                search.append((-1, u))
        heapq.heapify(search)
        while search:
            d, u = heapq.heappop(search)
            if d > minimax.get(u, 1 << 60):
                continue
            through = max(d, weight[u])
            for w in graph.adj[u]:
                if w in numbered or w == v:
                    continue
                if through < minimax.get(w, 1 << 60):
                    minimax[w] = through
                    heapq.heappush(search, (through, w))
        reached = {u for u, d in minimax.items() if d < weight[u]}
        for u in reached:
            weight[u] += 1
            heapq.heappush(heap, (-weight[u], u))
            h_adj[v].add(u)
            h_adj[u].add(v)
        numbered.add(v)
        numbering.append(v)

    return h_adj, list(reversed(numbering))


def _component_of(
    adj: dict[int, set[int]],
    start: int,
    universe: set[int],
    excluded: frozenset[int],
) -> set[int]:
    comp: set[int] = set()
    stack = [start]
    while stack:
        v = stack.pop()
        if v in comp or v in excluded or v not in universe:
            continue
        comp.add(v)
        stack.extend(adj[v])
    return comp


def _reference_decompose_component(
    graph: ReferenceConflictGraph,
    component: set[int],
    out_atoms: list[set[int]],
    out_separators: list[frozenset[int]],
) -> None:
    sub = graph.subgraph(component)
    h_adj, order = reference_mcs_m(sub)
    position = {v: i for i, v in enumerate(order)}

    work: list[set[int]] = [set(component)]
    while work:
        piece = work.pop()
        if len(piece) <= 2:
            out_atoms.append(piece)
            continue
        split = None
        for v in sorted(piece, key=position.__getitem__):
            madj = frozenset(
                u
                for u in h_adj[v]
                if u in piece and position[u] > position[v]
            )
            if not madj or len(madj) >= len(piece) - 1:
                continue
            if not graph.is_clique(madj):
                continue
            comp = _component_of(graph.adj, v, piece, madj)
            if len(comp) + len(madj) < len(piece):
                split = (madj, comp)
                break
        if split is None:
            out_atoms.append(piece)
            continue
        madj, comp = split
        out_separators.append(madj)
        work.append(comp | madj)
        work.append(piece - comp)


def reference_decompose_atoms(
    graph: ReferenceConflictGraph, max_nodes: int = REFERENCE_MAX_NODES
) -> tuple[list[ReferenceConflictGraph], list[frozenset[int]]]:
    atom_sets: list[set[int]] = []
    separators: list[frozenset[int]] = []

    comps = graph.components()
    if len(comps) > 1:
        separators.append(frozenset())

    for comp in comps:
        if len(comp) <= 2 or len(comp) > max_nodes:
            atom_sets.append(comp)
        else:
            _reference_decompose_component(graph, comp, atom_sets, separators)

    return [graph.subgraph(s) for s in atom_sets], separators


# --------------------------------------------------------------------------
# Verify (original set-based checks)
# --------------------------------------------------------------------------


def reference_instruction_conflict_free(
    operands: Iterable[int], alloc: Allocation
) -> bool:
    sets = [alloc.modules(v) for v in set(operands)]
    if any(not s for s in sets):
        return False
    return sdr_exists(sets)


def reference_conflicting_instructions(
    operand_sets: Iterable[Iterable[int]], alloc: Allocation
) -> list[frozenset[int]]:
    return [
        frozenset(ops)
        for ops in operand_sets
        if not reference_instruction_conflict_free(ops, alloc)
    ]


def reference_verify_allocation(
    operand_sets: Iterable[Iterable[int]], alloc: Allocation
) -> bool:
    return not reference_conflicting_instructions(operand_sets, alloc)


# --------------------------------------------------------------------------
# Colouring (original dict-weight version of Fig. 4)
# --------------------------------------------------------------------------


def _edge_weights(
    graph: ReferenceConflictGraph, k: int
) -> dict[tuple[int, int], int]:
    wt: dict[tuple[int, int], int] = {}
    for u, v in graph.edges():
        c = graph.conflict_count(u, v)
        wt[(u, v)] = 0 if graph.degree(u) < k else c
        wt[(v, u)] = 0 if graph.degree(v) < k else c
    return wt


def reference_color_atom(
    graph: ReferenceConflictGraph,
    k: int,
    preassigned: dict[int, int] | None = None,
    module_choice: str = "first",
    module_use: list[int] | None = None,
    prefer: set[int] | None = None,
) -> ColoringResult:
    result = ColoringResult(k)
    preassigned = preassigned or {}
    prefer = prefer or set()
    nodes = sorted(graph.nodes)
    if not nodes:
        return result

    wt = _edge_weights(graph, k)

    if module_use is None:
        module_use = [0] * k
    incoming: dict[int, int] = {v: 0 for v in nodes}
    neighbor_colors: dict[int, set[int]] = {v: set() for v in nodes}
    rest = set(nodes)

    def assign(node: int, module: int, action: str, urgency_num: int) -> None:
        result.assignment[node] = module
        module_use[module] += 1
        result.trace.append(
            ColoringStep(node, urgency_num, k - len(neighbor_colors[node]),
                         action, module)
        )
        for nb in graph.adj[node]:
            if nb in rest:
                incoming[nb] += wt[(node, nb)]
                neighbor_colors[nb].add(module)

    for node, module in preassigned.items():
        if node in rest:
            rest.discard(node)
            assign(node, module, "preassigned", 0)

    if not preassigned:
        s_val = {
            v: sum(wt[(v, u)] for u in graph.adj[v]) for v in nodes
        }
        pool = sorted(prefer & rest) or nodes
        first = max(pool, key=lambda v: (s_val[v], -v))
        rest.discard(first)
        if module_choice == "least_used":
            first_module = min(range(k), key=lambda m: (module_use[m], m))
        else:
            first_module = 0
        assign(first, first_module, "first", s_val[first])

    while rest:
        pool = sorted(prefer & rest) or sorted(rest)
        best: int | None = None
        best_num, best_den = -1, 1
        best_inf = False
        for v in pool:
            k_v = k - len(neighbor_colors[v])
            if k_v == 0:
                if not best_inf or best is None:
                    best, best_inf = v, True
                    break
            elif not best_inf:
                num = incoming[v]
                if best is None or num * best_den > best_num * k_v:
                    best, best_num, best_den = v, num, k_v
        assert best is not None
        rest.discard(best)

        k_best = k - len(neighbor_colors[best])
        if k_best == 0:
            result.unassigned.append(best)
            result.trace.append(
                ColoringStep(best, incoming[best], 0, "removed", None)
            )
            continue
        available = [m for m in range(k) if m not in neighbor_colors[best]]
        if module_choice == "least_used":
            module = min(available, key=lambda m: (module_use[m], m))
        elif module_choice == "first":
            module = available[0]
        else:
            raise ValueError(f"unknown module_choice {module_choice!r}")
        assign(best, module, "assigned", incoming[best])

    return result


def reference_color_graph(
    graph: ReferenceConflictGraph,
    k: int,
    preassigned: dict[int, int] | None = None,
    module_choice: str = "first",
    use_atoms: bool = True,
    prefer: set[int] | None = None,
) -> ColoringResult:
    preassigned = dict(preassigned or {})
    if not use_atoms:
        result = reference_color_atom(
            graph, k, preassigned, module_choice, prefer=prefer
        )
        result.num_atoms = 1 if graph.nodes else 0
        _reference_repair_improper_edges(graph, result, set(preassigned))
        return result

    combined = ColoringResult(k)
    combined.assignment.update(
        {v: m for v, m in preassigned.items() if v in graph.nodes}
    )
    atoms, _seps = reference_decompose_atoms(graph)
    atoms = [a for a in atoms if a.nodes]
    combined.num_atoms = len(atoms)
    module_use = [0] * k
    for atom in atoms:
        pre = {
            v: combined.assignment[v]
            for v in atom.nodes
            if v in combined.assignment
        }
        pre.update(
            {v: m for v, m in preassigned.items() if v in atom.nodes}
        )
        sub = reference_color_atom(
            atom, k, pre, module_choice, module_use, prefer
        )
        combined.merge(sub)
    combined.unassigned = [
        v for v in combined.unassigned if v not in combined.assignment
    ]
    _reference_repair_improper_edges(graph, combined, set(preassigned))
    return combined


def _reference_repair_improper_edges(
    graph: ReferenceConflictGraph,
    result: ColoringResult,
    caller_fixed: set[int],
) -> None:
    for u, v in sorted(graph.edges()):
        cu = result.assignment.get(u)
        cv = result.assignment.get(v)
        if cu is None or cv is None or cu != cv:
            continue
        u_fixed, v_fixed = u in caller_fixed, v in caller_fixed
        if u_fixed and not v_fixed:
            demote = v
        elif v_fixed and not u_fixed:
            demote = u
        else:
            demote = max(u, v)
        del result.assignment[demote]
        result.unassigned.append(demote)
        result.trace.append(
            ColoringStep(demote, 0, 0, "removed", None)
        )


# --------------------------------------------------------------------------
# Backtracking duplication (original exhaustive enumeration, Fig. 6)
# --------------------------------------------------------------------------


def _reference_enumerate_placements(
    operands: Sequence[int],
    forbidden: frozenset[int],
    alloc: Allocation,
) -> list[tuple[int, tuple[int, ...]]]:
    k = alloc.k
    results: list[tuple[int, tuple[int, ...]]] = []
    chosen: list[int] = []

    def backtrack(i: int, cost: int) -> None:
        if i == len(operands):
            results.append((cost, tuple(chosen)))
            return
        v = operands[i]
        existing = alloc.modules(v)
        candidates = sorted(
            (m for m in range(k) if m not in forbidden and m not in chosen),
            key=lambda m: (m not in existing, m),
        )
        for m in candidates:
            chosen.append(m)
            backtrack(i + 1, cost + (m not in existing))
            chosen.pop()

    backtrack(0, 0)
    return results


def reference_backtrack_duplication(
    operand_sets: Sequence[frozenset[int]],
    alloc: Allocation,
    unassigned: Sequence[int],
    rng: random.Random | None = None,
    tie_break: str = "random",
) -> BacktrackStats:
    rng = rng or random.Random(0)
    stats = BacktrackStats()
    unassigned_set = set(unassigned)

    relevant = [ops for ops in operand_sets if ops & unassigned_set]
    relevant.sort(key=lambda ops: (len(ops & unassigned_set), sorted(ops)))

    for ops in relevant:
        todo = sorted(ops & unassigned_set)
        fixed = ops - unassigned_set
        forbidden: set[int] = set()
        for v in fixed:
            mods = alloc.modules(v)
            if not mods:
                raise ValueError(f"fixed operand {v} is unplaced")
            if len(mods) == 1:
                forbidden.add(next(iter(mods)))
        placements = _reference_enumerate_placements(
            todo, frozenset(forbidden), alloc
        )
        multi_fixed = [
            alloc.modules(v) for v in fixed if alloc.copy_count(v) > 1
        ]
        if multi_fixed:
            fixed_sets = [alloc.modules(v) for v in fixed]
            placements = [
                (c, p)
                for c, p in placements
                if sdr_exists(fixed_sets + [{m} for m in p])
            ]
        stats.instructions_processed += 1
        stats.placements_enumerated += len(placements)
        if not placements:
            stats.residual_instructions.append(ops)
            for v in todo:
                if not alloc.is_placed(v):
                    alloc.add_copy(v, 0)
                    stats.copies_created += 1
            continue
        best_cost = min(c for c, _ in placements)
        best = [p for c, p in placements if c == best_cost]
        if len(best) == 1 or tie_break == "first":
            modules = best[0]
        elif tie_break == "random":
            modules = rng.choice(best)
        else:
            raise ValueError(f"unknown tie_break {tie_break!r}")
        for v, m in zip(todo, modules):
            if m not in alloc.modules(v):
                alloc.add_copy(v, m)
                stats.copies_created += 1

    for v in sorted(unassigned_set):
        if not alloc.is_placed(v):
            alloc.add_copy(v, 0)
            stats.copies_created += 1
            stats.unreferenced_placed.append(v)
    return stats


# --------------------------------------------------------------------------
# Hitting sets (original list-rescanning versions, Fig. 9)
# --------------------------------------------------------------------------


def reference_paper_hitting_set(
    sets: Iterable[Iterable[int]], k: int
) -> set[int]:
    families = [frozenset(s) for s in sets]
    for s in families:
        if not 1 <= len(s) <= k:
            raise ValueError(f"set size {len(s)} outside [1, {k}]")

    counts: dict[int, list[int]] = {}
    for s in families:
        p = len(s)
        for v in s:
            row = counts.setdefault(v, [0] * (k + 1))
            if p <= k:
                row[p] += 1

    hitting: set[int] = {v for s in families if len(s) == 1 for v in s}

    for size in range(2, k + 1):
        for s in families:
            if len(s) != size or s & hitting:
                continue

            def vector(v: int) -> tuple[int, ...]:
                return tuple(counts[v][size : k + 1])

            best = max(sorted(s), key=lambda v: (vector(v), -v))
            hitting.add(best)
    return hitting


def reference_greedy_hitting_set(sets: Iterable[Iterable[int]]) -> set[int]:
    remaining = [frozenset(s) for s in sets if s]
    hitting: set[int] = set()
    while remaining:
        coverage: dict[int, int] = {}
        for s in remaining:
            for v in s:
                coverage[v] = coverage.get(v, 0) + 1
        best = max(sorted(coverage), key=lambda v: (coverage[v], -v))
        hitting.add(best)
        remaining = [s for s in remaining if best not in s]
    return hitting


# --------------------------------------------------------------------------
# Copy placement (original unweighted rescan version, Fig. 10)
# --------------------------------------------------------------------------


def _reference_group_instructions(
    operand_sets: Sequence[frozenset[int]],
    duplicable: set[int],
    k: int,
) -> dict[int, list[frozenset[int]]]:
    groups: dict[int, list[frozenset[int]]] = {y: [] for y in range(1, k + 1)}
    for ops in operand_sets:
        y = len(ops & duplicable)
        if 1 <= y <= k:
            groups[y].append(ops)
    return groups


def _reference_fix_score(
    value: int,
    module: int,
    conflicting: Iterable[frozenset[int]],
    alloc: Allocation,
) -> int:
    base = alloc.modules(value)
    if module in base:
        return 0
    augmented = base | {module}
    fixed = 0
    for ops in conflicting:
        if value not in ops:
            continue
        sets = [
            augmented if v == value else alloc.modules(v) for v in ops
        ]
        if all(sets) and sdr_exists(sets):
            fixed += 1
    return fixed


def reference_place_copies(
    values: Iterable[int],
    alloc: Allocation,
    operand_sets: Sequence[frozenset[int]],
    duplicable: set[int],
    rng: random.Random | None = None,
    tie_break: str = "random",
) -> None:
    k = alloc.k
    rng = rng or random.Random(0)
    groups = _reference_group_instructions(operand_sets, duplicable, k)

    initial_conflicting: dict[int, list[frozenset[int]]] = {
        y: [
            ops
            for ops in groups[y]
            if not reference_instruction_conflict_free(ops, alloc)
        ]
        for y in range(1, k + 1)
    }

    def involvement(v: int) -> tuple[int, ...]:
        return tuple(
            sum(1 for ops in initial_conflicting[y] if v in ops)
            for y in range(1, k + 1)
        )

    ordered = sorted(
        set(values), key=lambda v: (involvement(v), -v), reverse=True
    )

    for v in ordered:
        candidates = [m for m in range(k) if m not in alloc.modules(v)]
        if not candidates:
            continue
        relevant: dict[int, list[frozenset[int]]] = {
            y: [
                ops
                for ops in groups[y]
                if v in ops
                and not reference_instruction_conflict_free(ops, alloc)
            ]
            for y in range(1, k + 1)
        }
        score: dict[int, tuple[int, ...]] = {}
        for m in candidates:
            score[m] = tuple(
                _reference_fix_score(v, m, relevant[y], alloc)
                for y in range(1, k + 1)
            )
        best_vec = max(score.values())
        best_modules = [m for m in candidates if score[m] == best_vec]
        if len(best_modules) == 1 or tie_break == "first":
            chosen = best_modules[0]
        elif tie_break == "random":
            chosen = rng.choice(best_modules)
        else:
            raise ValueError(f"unknown tie_break {tie_break!r}")
        alloc.add_copy(v, chosen)


# --------------------------------------------------------------------------
# Hitting-set duplication driver (original per-instruction rescans, Fig. 7)
# --------------------------------------------------------------------------


def _reference_conflicting_combos(
    operand_sets: Sequence[frozenset[int]],
    size: int,
    alloc: Allocation,
) -> list[frozenset[int]]:
    combos: set[frozenset[int]] = set()
    for ops in operand_sets:
        if len(ops) < size:
            continue
        if reference_instruction_conflict_free(ops, alloc):
            continue
        for c in combinations(sorted(ops), size):
            combos.add(frozenset(c))
    return sorted(
        (
            c
            for c in combos
            if not reference_instruction_conflict_free(c, alloc)
        ),
        key=sorted,
    )


def reference_hitting_set_duplication(
    operand_sets: Sequence[frozenset[int]],
    alloc: Allocation,
    unassigned: Sequence[int],
    duplicable: set[int],
    rng: random.Random | None = None,
    tie_break: str = "random",
    max_rounds: int = 64,
) -> DuplicationStats:
    rng = rng or random.Random(0)
    stats = DuplicationStats()
    k = alloc.k
    unassigned = sorted(set(unassigned))
    relevant = [ops for ops in operand_sets if len(ops) >= 2]

    def place(values: Sequence[int]) -> None:
        before = alloc.total_copies
        reference_place_copies(
            values, alloc, relevant, set(duplicable), rng, tie_break
        )
        stats.copies_created += alloc.total_copies - before

    first = [v for v in unassigned if alloc.copy_count(v) < 1]
    if first:
        place(first)
    second = [v for v in unassigned if alloc.copy_count(v) < 2]
    if second:
        place(second)

    for v in unassigned:
        if not alloc.is_placed(v):
            alloc.add_copy(v, 0)
            stats.copies_created += 1
            stats.unreferenced_placed.append(v)

    for size in range(2, k + 1):
        rounds = 0
        hopeless: set[frozenset[int]] = set()
        while rounds < max_rounds:
            conflicting = [
                c
                for c in _reference_conflicting_combos(relevant, size, alloc)
                if c not in hopeless
            ]
            candidate_sets: list[frozenset[int]] = []
            for combo in conflicting:
                multi = frozenset(
                    v
                    for v in combo
                    if v in duplicable and 2 <= alloc.copy_count(v) < k
                )
                cands = multi or frozenset(
                    v
                    for v in combo
                    if v in duplicable and alloc.copy_count(v) < k
                )
                if cands:
                    candidate_sets.append(cands)
                else:
                    hopeless.add(combo)
            if not candidate_sets:
                break
            rounds += 1
            v_dup = reference_paper_hitting_set(candidate_sets, k)
            before = alloc.total_copies
            place(sorted(v_dup))
            if alloc.total_copies == before:
                hopeless.update(
                    c
                    for c in conflicting
                    if not reference_instruction_conflict_free(c, alloc)
                )
                break
        stats.rounds_per_size[size] = rounds
        stats.residual_combos.extend(
            c
            for c in sorted(hopeless, key=sorted)
            if not reference_instruction_conflict_free(c, alloc)
        )

    return stats


# --------------------------------------------------------------------------
# Full assignment driver (original trial-allocation pinning)
# --------------------------------------------------------------------------


def _reference_place_pinned(
    value: int,
    alloc: Allocation,
    operand_sets: Sequence[frozenset[int]],
    weights: Sequence[int] | None = None,
) -> None:
    k = alloc.k
    involved = [
        (ops, weights[i] if weights is not None else 1)
        for i, ops in enumerate(operand_sets)
        if value in ops
    ]
    best_module, best_conflicts = 0, None
    for m in range(k):
        trial = alloc.copy()
        trial.add_copy(value, m)
        bad = sum(
            w
            for ops, w in involved
            if all(trial.modules(v) for v in ops)
            and not reference_instruction_conflict_free(ops, trial)
        )
        if best_conflicts is None or bad < best_conflicts:
            best_module, best_conflicts = m, bad
    alloc.add_copy(value, best_module)


def reference_assign_modules(
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
) -> AssignmentResult:
    """The original :func:`repro.core.assign.assign_modules` on the
    reference kernels — same driver logic, set-based machinery."""
    raw = [frozenset(s) for s in operand_sets]
    if weights is not None:
        weights = list(weights)
        if len(weights) != len(raw):
            raise ValueError("weights must align with operand_sets")
        pairs = [(s, w) for s, w in zip(raw, weights) if s and w > 0]
        sets = [s for s, _ in pairs]
        weights = [w for _, w in pairs]
    else:
        sets = [s for s in raw if s]
    rng = random.Random(seed)

    graph = ReferenceConflictGraph.from_operand_sets(sets, weights)
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
        v
        for v in alloc.values()
        if alloc.copy_count(v) > 1 and v in graph.nodes
    }

    color_nodes = graph.nodes - flexible
    pinned_first = {v for v in color_nodes if v not in duplicable}
    coloring = reference_color_graph(
        graph.subgraph(color_nodes),
        k,
        preassigned,
        module_choice,
        use_atoms,
        prefer=pinned_first,
    )

    for v, m in coloring.assignment.items():
        if not alloc.is_placed(v):
            alloc.add_copy(v, m)

    removed = list(coloring.unassigned)
    pinned = sorted(v for v in removed if v not in duplicable)
    dup_targets = [v for v in removed if v in duplicable]

    for v in pinned:
        if not alloc.is_placed(v):
            _reference_place_pinned(v, alloc, sets, weights)

    copies_before = alloc.total_copies
    if method == "hitting_set":
        reference_hitting_set_duplication(
            sets, alloc, dup_targets, duplicable, rng, tie_break
        )
    elif method == "backtrack":
        reference_backtrack_duplication(sets, alloc, dup_targets, rng, tie_break)
        if reference_conflicting_instructions(sets, alloc):
            reference_hitting_set_duplication(
                sets, alloc, [], duplicable, rng, tie_break
            )
    else:
        raise ValueError(f"unknown method {method!r}")

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
        residual_instructions=reference_conflicting_instructions(sets, alloc),
        num_edges=graph.num_edges,
    )
    return AssignmentResult(alloc, coloring, stats, method)


# --------------------------------------------------------------------------
# Front end: dataflow, renaming and list scheduling
# --------------------------------------------------------------------------
#
# The original ``repro.ir.dataflow`` module, ``repro.ir.rename.rename``
# on top of its reaching definitions, and ``repro.liw.scheduler``'s
# sweep-rebuilding ``schedule_block``.  The live renamer and scheduler
# must give byte-identical CFGs, value tables and schedules
# (``tests/ir/test_rename_differential.py``,
# ``tests/liw/test_scheduler_differential.py``,
# ``benchmarks/test_frontend_gate.py``).


@dataclass(slots=True)
class Liveness:
    """live_in/live_out per block index, over Sym names."""

    live_in: list[set[str]]
    live_out: list[set[str]]


def reference_liveness(cfg: Cfg) -> Liveness:
    n = len(cfg.blocks)
    use_b: list[set[str]] = [set() for _ in range(n)]
    def_b: list[set[str]] = [set() for _ in range(n)]
    for block in cfg.blocks:
        seen_def: set[str] = set()
        for instr in block.instrs:
            for u in instr.uses():
                assert isinstance(u, tac.Sym)
                if u.name not in seen_def:
                    use_b[block.index].add(u.name)
            for d in instr.defs():
                assert isinstance(d, tac.Sym)
                seen_def.add(d.name)
        def_b[block.index] = seen_def

    live_in: list[set[str]] = [set() for _ in range(n)]
    live_out: list[set[str]] = [set() for _ in range(n)]
    changed = True
    while changed:
        changed = False
        for block in reversed(cfg.blocks):
            bi = block.index
            out: set[str] = set()
            for s in block.succs:
                out |= live_in[s]
            inn = use_b[bi] | (out - def_b[bi])
            if out != live_out[bi] or inn != live_in[bi]:
                live_out[bi] = out
                live_in[bi] = inn
                changed = True
    return Liveness(live_in, live_out)


@dataclass(frozen=True, slots=True)
class DefSite:
    """One definition of a scalar.  ``block == -1`` marks the entry
    pseudo-definition that models a variable's initial (uninitialised)
    storage, so every use has at least one reaching definition."""

    id: int
    var: str
    block: int
    pos: int

    @property
    def is_entry(self) -> bool:
        return self.block == -1


@dataclass(slots=True)
class ReachingDefs:
    """Reaching-definition results.

    ``use_defs`` maps each use site ``(block, pos, var)`` to the ids of
    definitions that may reach it.
    """

    defs: list[DefSite]
    #: per-block reach-in as integer bitmasks over def ids
    reach_in_masks: list[int]
    use_defs: dict[tuple[int, int, str], frozenset[int]] = field(
        default_factory=dict
    )

    def def_by_id(self, def_id: int) -> DefSite:
        return self.defs[def_id]

    def reach_in(self, block: int) -> frozenset[int]:
        """Def ids reaching the top of ``block`` (decoded on demand)."""
        return _bits(self.reach_in_masks[block])


def _bits(mask: int) -> frozenset[int]:
    out = set()
    while mask:
        low = mask & -mask
        out.add(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def reference_reaching(cfg: Cfg) -> ReachingDefs:
    """Reaching definitions with integer-bitset dataflow (def sites are
    bit positions), which keeps the fixpoint fast on unrolled programs
    with thousands of definitions."""
    # Enumerate definition sites.  Entry pseudo-defs cover declared
    # variables only; temporaries are always defined before use.
    defs: list[DefSite] = []
    var_mask: dict[str, int] = {}

    def add_def(var: str, block: int, pos: int) -> int:
        d = DefSite(len(defs), var, block, pos)
        defs.append(d)
        var_mask[var] = var_mask.get(var, 0) | (1 << d.id)
        return d.id

    for var in cfg.scalars:
        add_def(var, -1, 0)
    def_at: dict[tuple[int, int], list[int]] = {}
    for block in cfg.blocks:
        for pos, instr in enumerate(block.instrs):
            for d in instr.defs():
                assert isinstance(d, tac.Sym)
                def_at.setdefault((block.index, pos), []).append(
                    add_def(d.name, block.index, pos)
                )

    n = len(cfg.blocks)
    gen = [0] * n
    kill = [0] * n
    for block in cfg.blocks:
        bi = block.index
        latest: dict[str, int] = {}
        for pos, _ in enumerate(block.instrs):
            for did in def_at.get((bi, pos), ()):
                latest[defs[did].var] = did
        for var, did in latest.items():
            gen[bi] |= 1 << did
            kill[bi] |= var_mask[var] & ~(1 << did)
        # A block that redefines var kills all other defs of var, even the
        # non-latest defs inside itself (handled by `latest` above).

    entry_mask = 0
    for d in defs:
        if d.is_entry:
            entry_mask |= 1 << d.id

    reach_in = [0] * n
    reach_out = [0] * n
    reach_out[0] = gen[0] | (entry_mask & ~kill[0])

    changed = True
    while changed:
        changed = False
        for block in cfg.blocks:
            bi = block.index
            inn = entry_mask if bi == 0 else 0
            for p in block.preds:
                inn |= reach_out[p]
            out = gen[bi] | (inn & ~kill[bi])
            if inn != reach_in[bi] or out != reach_out[bi]:
                reach_in[bi] = inn
                reach_out[bi] = out
                changed = True

    result = ReachingDefs(defs, list(reach_in))
    # Per-use resolution by a forward scan of each block.
    decode_cache: dict[int, frozenset[int]] = {}
    for block in cfg.blocks:
        bi = block.index
        current: dict[str, int] = {}
        inn = reach_in[bi]
        for pos, instr in enumerate(block.instrs):
            for u in instr.uses():
                assert isinstance(u, tac.Sym)
                mask = current.get(u.name)
                if mask is None:
                    mask = inn & var_mask.get(u.name, 0)
                    current[u.name] = mask
                reaching = decode_cache.get(mask)
                if reaching is None:
                    reaching = _bits(mask)
                    decode_cache[mask] = reaching
                result.use_defs[(bi, pos, u.name)] = reaching
            for did in def_at.get((bi, pos), ()):
                current[defs[did].var] = 1 << did
    return result


class _UnionFind:
    def __init__(self, n: int):
        self._parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[max(ra, rb)] = min(ra, rb)


def reference_rename(cfg: Cfg, mode: str = "web") -> RenamedProgram:
    """Compute data values over ``cfg`` and return a rewritten copy.

    ``mode='web'`` (default) renames at du-chain web granularity — the
    paper's "each definition creates a distinct data value", made sound
    under control flow.  ``mode='variable'`` keeps one value per source
    variable (no renaming), the baseline the paper's §3 closing remark
    says renaming improves on; it exists for that ablation
    (`benchmarks/test_ablations.py::test_ablation_renaming`).

    The input CFG is not modified.
    """
    if mode not in RENAME_MODES:
        raise ValueError(f"unknown rename mode {mode!r}")
    reaching = reference_reaching(cfg)
    uf = _UnionFind(len(reaching.defs))
    for def_ids in reaching.use_defs.values():
        ids = sorted(def_ids)
        for other in ids[1:]:
            uf.union(ids[0], other)
    if mode == "variable":
        # Collapse every definition of the same variable into one value.
        by_var: dict[str, int] = {}
        for d in reaching.defs:
            first = by_var.setdefault(d.var, d.id)
            uf.union(first, d.id)

    # Assign value ids to web roots in first-encounter order so numbering
    # is stable and readable.
    root_to_value: dict[int, int] = {}
    values: list[DataValue] = []
    per_origin_count: dict[str, int] = {}

    def value_for_root(root: int) -> DataValue:
        vid = root_to_value.get(root)
        if vid is not None:
            return values[vid]
        origin = reaching.defs[root].var
        seq = per_origin_count.get(origin, 0)
        per_origin_count[origin] = seq + 1
        is_temp = origin.startswith("%")
        name = origin if is_temp or seq == 0 else f"{origin}#{seq}"
        dv = DataValue(len(values), name, origin, is_temp)
        root_to_value[root] = dv.id
        values.append(dv)
        return dv

    # Deterministic order: walk defs by id (entry defs first, then program
    # order), so web numbering follows the program text.
    for d in reaching.defs:
        root = uf.find(d.id)
        dv = value_for_root(root)
        if d.is_entry:
            dv.from_entry = True
        else:
            dv.def_sites.append((d.block, d.pos))

    def value_of_def(def_id: int) -> DataValue:
        return values[root_to_value[uf.find(def_id)]]

    # Rewrite a deep copy of the CFG block by block.
    new_blocks: list[BasicBlock] = []
    def_at: dict[tuple[int, int, str], int] = {}
    for d in reaching.defs:
        if not d.is_entry:
            def_at[(d.block, d.pos, d.var)] = d.id

    for block in cfg.blocks:
        new_instrs: list[tac.TacInstr] = []
        for pos, instr in enumerate(block.instrs):
            new_instr = copy.copy(instr)

            # Uses before defs: that fixes the order of ``use_sites``.
            for slot in new_instr.USES:
                op = getattr(new_instr, slot)
                if isinstance(op, tac.Sym):
                    def_ids = reaching.use_defs[(block.index, pos, op.name)]
                    dv = value_of_def(next(iter(def_ids)))
                    dv.use_sites.append((block.index, pos))
                    setattr(new_instr, slot, tac.Value(dv.id))
            for slot in new_instr.DEFS:
                op = getattr(new_instr, slot)
                assert isinstance(op, tac.Sym)
                dv = value_of_def(def_at[(block.index, pos, op.name)])
                setattr(new_instr, slot, tac.Value(dv.id))
            new_instrs.append(new_instr)
        new_blocks.append(
            BasicBlock(
                block.index, block.label, new_instrs,
                list(block.succs), list(block.preds),
            )
        )

    new_cfg = Cfg(
        cfg.name,
        new_blocks,
        dict(cfg.arrays),
        list(cfg.scalars),
        dict(cfg.const_table),
    )
    return RenamedProgram(new_cfg, values)


def _access_cost(
    instr: tac.TacInstr, current_operands: set[int]
) -> tuple[int, set[int]]:
    """Extra memory accesses ``instr`` adds to an instruction already
    touching ``current_operands`` (scalar value ids, R+W).  Array loads
    and stores each cost one access.  Returns (cost, new ids)."""
    new_ids: set[int] = set()
    for op in (*instr.uses(), *instr.defs()):
        if isinstance(op, tac.Value) and op.id not in current_operands:
            new_ids.add(op.id)
    arrays = 1 if instr.ARRAY_ACCESS else 0
    return len(new_ids) + arrays, new_ids


def reference_schedule_block(
    block: BasicBlock, machine: MachineConfig
) -> BlockSchedule:
    body = block.body
    terminator = block.terminator
    ddg = build_ddg(block)
    heights = ddg.heights()
    n = len(body)

    cycle_of: dict[int, int] = {}
    unscheduled = set(range(n))
    liws: list[LiwInstruction] = []
    ports = machine.ports

    cycle = 0
    while unscheduled:
        liw = LiwInstruction()
        operands: set[int] = set()
        accesses = 0
        placed_any = True
        # Keep sweeping the ready list: placing a node can make a
        # 0-latency (anti-dependent) successor ready within this cycle.
        while placed_any and len(liw.ops) < machine.num_fus:
            placed_any = False
            ready = [
                i
                for i in unscheduled
                if all(
                    e.src in cycle_of and cycle_of[e.src] + e.latency <= cycle
                    for e in ddg.preds[i]
                )
            ]
            # Highest first; ties broken by program order for determinism.
            ready.sort(key=lambda i: (-heights[i], i))
            for i in ready:
                if len(liw.ops) >= machine.num_fus:
                    break
                cost, new_ids = _access_cost(body[i], operands)
                if accesses + cost > ports:
                    continue
                liw.ops.append(body[i])
                operands |= new_ids
                accesses += cost
                cycle_of[i] = cycle
                unscheduled.discard(i)
                placed_any = True
        if not liw.ops:
            # Port budget smaller than one op's fetch count (ports=1
            # machines): force the best ready op so scheduling always
            # terminates; the memory system serialises the fetches.
            ready = [
                i
                for i in unscheduled
                if all(
                    e.src in cycle_of and cycle_of[e.src] + e.latency <= cycle
                    for e in ddg.preds[i]
                )
            ]
            if not ready:
                raise RuntimeError(
                    f"scheduler made no progress in block {block.label!r}"
                )
            ready.sort(key=lambda i: (-heights[i], i))
            forced = ready[0]
            liw.ops.append(body[forced])
            cycle_of[forced] = cycle
            unscheduled.discard(forced)
        liws.append(liw)
        cycle += 1

    # Attach the terminator.  It must issue no earlier than one cycle
    # after the flow-dependence producing its condition; since the
    # producer is in some earlier-or-equal cycle and the terminator goes
    # into the last (or a fresh) instruction, only the last-cycle case
    # needs a check.
    if not liws:
        liws.append(LiwInstruction())
    last = liws[-1]
    cond_ids = {u.id for u in terminator.uses() if isinstance(u, tac.Value)}
    produced_last = last.scalar_dests() & cond_ids
    extra = len(cond_ids - last.scalar_operands())
    if produced_last or last.mem_accesses + extra > ports:
        liws.append(LiwInstruction(branch=terminator))
    else:
        last.branch = terminator

    return BlockSchedule(block.index, block.label, liws)


def reference_schedule_program(
    renamed: RenamedProgram, machine: MachineConfig | None = None
) -> Schedule:
    """``schedule_program`` over :func:`reference_schedule_block`."""
    machine = machine or MachineConfig()
    blocks = [reference_schedule_block(b, machine) for b in renamed.cfg.blocks]
    return Schedule(renamed.cfg, machine, blocks)


# --------------------------------------------------------------------------
# Array-layout search (per-call pricing of every word)
# --------------------------------------------------------------------------


class _ReferenceRand:
    __slots__ = ("state",)

    def __init__(self, state: int):
        self.state = state or 1

    def next(self, bound: int) -> int:
        self.state = (self.state * 1103515245 + 12345) & 0x7FFFFFFF
        return self.state % bound


def reference_placements(
    accesses: Iterable[ArrayRef],
    specs: dict[str, LayoutSpec],
    k: int,
) -> tuple[list[int], list[list[int]]]:
    exact: list[int] = []
    groups: dict[object, list[int]] = {}
    singleton = 0
    for ref in accesses:
        spec = specs.get(ref.array, LayoutSpec("interleaved", 0))
        if spec.kind == "module":
            exact.append(spec.base)
            continue
        expr = ref.expr
        if expr is not None and expr.is_constant:
            exact.append(spec.module_of(expr.const, k))
            continue
        if expr is None:
            singleton += 1
            groups[("?", singleton)] = [0]
            continue
        if spec.kind == "skewed":
            key = ("skew", ref.array, expr.terms, expr.const)
            groups.setdefault(key, []).append(0)
            continue
        key = ("lin", ref.array, expr.terms)
        groups.setdefault(key, []).append((spec.base + expr.const) % k)
    return exact, list(groups.values())


def reference_liw_cost(
    vec: Sequence[int],
    exact: Sequence[int],
    groups: Sequence[Sequence[int]],
    k: int,
    seed: int,
) -> float:
    base = list(vec)
    for m in exact:
        base[m] += 1
    if not groups:
        return float(max(base)) if base else 0.0

    combos = k ** len(groups)
    if combos <= _MAX_COMBOS:
        total = 0
        for combo in range(combos):
            loads = list(base)
            c = combo
            for group in groups:
                shift = c % k
                c //= k
                for residue in group:
                    loads[(residue + shift) % k] += 1
            total += max(loads)
        return total / combos

    rand = _ReferenceRand(seed & 0xFFFFFFFF)
    total = 0
    for _ in range(_MAX_COMBOS):
        loads = list(base)
        for group in groups:
            shift = rand.next(k)
            for residue in group:
                loads[(residue + shift) % k] += 1
        total += max(loads)
    return total / _MAX_COMBOS


class ReferenceCostModel:
    def __init__(
        self,
        profile: AccessProfile,
        alloc: Allocation,
        k: int,
        seed: int,
        eager_copies: bool = True,
    ):
        self.profile = profile
        self.alloc = alloc
        self.k = k
        self.seed = seed
        self.eager_copies = eager_copies
        self.scalar_vec = ScalarLoadMemo(alloc, k, eager_copies)
        self._exact_cost: dict[
            tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]],
            float,
        ] = {}
        self._word_cost: dict[tuple[int, int], float] = {}
        self.words_of: dict[str, set[tuple[int, int]]] = {}
        for b, bp in enumerate(profile.blocks):
            for lp in bp.liws:
                for ref in lp.accesses:
                    self.words_of.setdefault(ref.array, set()).add(
                        (b, lp.cycle)
                    )

    def word_cost(self, block_pos: int, lp: LiwProfile,
                  specs: dict[str, LayoutSpec]) -> float:
        exact, groups = reference_placements(lp.accesses, specs, self.k)
        vec = self.scalar_vec(lp.scalar_sources, lp.scalar_dests)
        if self.k ** len(groups) > _MAX_COMBOS:
            return reference_liw_cost(
                vec, exact, groups, self.k,
                self.seed ^ (block_pos * 7919 + lp.cycle),
            )
        key = (
            vec,
            tuple(sorted(exact)),
            tuple(sorted(tuple(sorted(group)) for group in groups)),
        )
        cost = self._exact_cost.get(key)
        if cost is None:
            cost = self._exact_cost[key] = reference_liw_cost(
                vec, exact, groups, self.k, 0
            )
        return cost

    def total(self, specs: dict[str, LayoutSpec]) -> float:
        cost = 0.0
        for b, bp in enumerate(self.profile.blocks):
            for lp in bp.liws:
                word = self.word_cost(b, lp, specs)
                self._word_cost[(b, lp.cycle)] = word
                cost += bp.weight * word
        return cost

    def delta_for_array(
        self,
        array: str,
        specs: dict[str, LayoutSpec],
        current_total: float,
    ) -> float:
        cost = current_total
        for b, cycle in self.words_of.get(array, ()):
            bp = self.profile.blocks[b]
            lp = bp.liws[cycle]
            new = self.word_cost(b, lp, specs)
            cost += bp.weight * (new - self._word_cost[(b, cycle)])
        return cost

    def commit_array(self, array: str, specs: dict[str, LayoutSpec]) -> None:
        for b, cycle in self.words_of.get(array, ()):
            bp = self.profile.blocks[b]
            self._word_cost[(b, cycle)] = self.word_cost(
                b, bp.liws[cycle], specs
            )


def reference_search_layouts(
    model: ReferenceCostModel,
    arrays: Sequence[str],
    k: int,
) -> tuple[dict[str, LayoutSpec], float, float]:
    specs = _default_specs(arrays, k)
    before = model.total(specs)
    if not model.words_of:
        return specs, before, before

    weights = model.profile.arrays_touched()
    order = sorted(arrays, key=lambda a: (-weights.get(a, 0), a))
    candidates = _candidate_specs(k)

    best_total = before
    for _ in range(_SWEEPS):
        improved = False
        for array in order:
            if array not in model.words_of:
                continue
            current = specs[array]
            best_spec, best_cost = current, best_total
            for cand in candidates:
                if cand == current:
                    continue
                specs[array] = cand
                cost = model.delta_for_array(array, specs, best_total)
                if cost < best_cost - 1e-9:
                    best_spec, best_cost = cand, cost
            specs[array] = best_spec
            if best_spec != current:
                model.commit_array(array, specs)
                best_total = best_cost
                improved = True
        if not improved:
            break
    return specs, before, best_total


def reference_optimize_arrays(
    schedule: Schedule,
    storage,
    seed: int = 0,
    eager_copies: bool = True,
    enable_moves: bool = True,
) -> ArrayLayoutPlan:
    """``optimize_arrays`` over :class:`ReferenceCostModel` and
    :func:`reference_search_layouts`; the move stage is the live one."""
    arrays = sorted(schedule.cfg.arrays)
    k = schedule.machine.k
    profile = analyze_accesses(schedule)
    model = ReferenceCostModel(
        profile, storage.allocation, k, seed, eager_copies
    )

    specs, before, after_layout = reference_search_layouts(model, arrays, k)

    moves: tuple = ()
    after = after_layout
    if enable_moves and model.words_of:
        weights = {bp.block_index: bp.weight for bp in profile.blocks}
        reordered, moves, delta = _optimize_moves(
            schedule, model, specs, weights  # type: ignore[arg-type]
        )
        if moves:
            if verify_schedule(reordered):
                moves = ()
            else:
                after = after_layout + delta

    return ArrayLayoutPlan(
        k=k,
        specs=specs,
        moves=moves,
        predicted_before=before,
        predicted_after=after,
        affine_fraction=profile.affine_fraction(),
    )
