"""Compile-time bank-conflict minimization for array accesses.

The paper's Table 2 accepts array conflicts as fate: with arrays
uniformly spread the program pays t_ave, and nothing in the compiler
tries to do better.  This module is the "do better" stage:

1. :func:`repro.core.arrayaccess.analyze_accesses` recovers which
   (array, affine-index) pairs each long instruction fetches in
   parallel and what the instruction's scalar module loads are under
   the chosen allocation;
2. a **predicted-conflict cost model** scores a candidate set of
   per-array :class:`~repro.memsim.interleave.LayoutSpec` s against
   that profile — exactly for compile-time-known module distances,
   in expectation for unknown ones;
3. a **greedy seeded search** picks each array's layout (interleaved /
   skewed / pinned-module, each with a free base offset), holding the
   others fixed, over a few deterministic sweeps;
4. a **scheduler co-optimization** pass then moves array operations
   between adjacent long instructions when dependence-legal
   (:mod:`repro.liw.reorder`) and the predicted conflict count drops —
   the lever that helps even when indices are data-dependent;
5. the result is an :class:`ArrayLayoutPlan` — a small, JSON-able,
   deterministic artifact the memory simulator executes *exactly*
   (``repro.memsim`` applies the plan's layout and moves; nothing is
   model-predicted at measurement time).

The plan is only computed when the pipeline runs with
``array_layout="optimize"``; the default path never builds one, so
default allocations, fingerprints, and cache keys are untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add, mul, sub
from typing import TYPE_CHECKING, Iterable, Sequence

from ..liw.reorder import (
    Move,
    block_cycle_map,
    copy_schedule,
    move_fits,
    move_keeps_dependences,
    verify_schedule,
)
from ..memsim.interleave import LayoutSpec, PlannedLayout
from ..memsim.simulator import ScalarLoadMemo
from .arrayaccess import (
    AccessProfile,
    AffineExpr,
    ArrayRef,
    LiwProfile,
    analyze_accesses,
    block_index_exprs,
    word_profile,
)

if TYPE_CHECKING:
    from ..liw.ddg import DependenceGraph
    from ..liw.schedule import Schedule
    from .allocation import Allocation
    from .strategies import StorageResult

__all__ = [
    "ArrayLayoutPlan",
    "optimize_arrays",
    "predicted_cost",
    "ARRAY_LAYOUT_MODES",
]

#: Valid values of the pipeline/CLI/server ``array_layout`` knob.
ARRAY_LAYOUT_MODES = ("fixed", "optimize")

#: Cap on the exact enumeration of independent uniform group shifts per
#: long instruction; beyond it a deterministic LCG sample keeps the
#: cost model O(1) per word.
_MAX_COMBOS = 512
#: Greedy sweeps over the arrays (two passes let early choices adapt to
#: later ones).
_SWEEPS = 2
#: Sweeps of the move stage.
_MOVE_SWEEPS = 2
#: The spec of an array a spec table leaves out.
_UNSPECIFIED = LayoutSpec("interleaved", 0)


# --------------------------------------------------------------------------
# The plan artifact
# --------------------------------------------------------------------------


@dataclass(slots=True)
class ArrayLayoutPlan:
    """The chosen array layouts plus the schedule moves, as one typed,
    JSON-able artifact.

    ``specs`` is deterministic (sorted by array name); ``moves`` replay
    in order via :func:`repro.liw.reorder.apply_moves`.  The predicted
    numbers are the cost model's weighted conflict counts before/after
    — reporting only; the simulator measures the real effect.
    """

    k: int
    specs: dict[str, LayoutSpec] = field(default_factory=dict)
    moves: tuple[Move, ...] = ()
    predicted_before: float = 0.0
    predicted_after: float = 0.0
    affine_fraction: float = 1.0

    def build_layout(self, arrays: Sequence[str]) -> PlannedLayout:
        return PlannedLayout(arrays, self.k, self.specs)

    def apply_to(self, schedule: "Schedule") -> "Schedule":
        from ..liw.reorder import apply_moves

        if not self.moves:
            return schedule
        return apply_moves(schedule, self.moves)

    @property
    def num_moves(self) -> int:
        return len(self.moves)

    def as_dict(self) -> dict[str, object]:
        return {
            "k": self.k,
            "specs": {
                name: {"kind": spec.kind, "base": spec.base}
                for name, spec in sorted(self.specs.items())
            },
            "moves": [m.as_dict() for m in self.moves],
            "predicted_before": round(self.predicted_before, 3),
            "predicted_after": round(self.predicted_after, 3),
            "affine_fraction": round(self.affine_fraction, 3),
        }


# --------------------------------------------------------------------------
# Predicted conflict cost of one long instruction
# --------------------------------------------------------------------------


def _lcg(seed: int) -> "_Rand":
    return _Rand(seed & 0xFFFFFFFF)


class _Rand:
    """Tiny deterministic LCG — sampling must be reproducible across
    processes and interpreter versions (no ``random`` module state)."""

    __slots__ = ("state",)

    def __init__(self, state: int):
        self.state = state or 1

    def next(self, bound: int) -> int:
        self.state = (self.state * 1103515245 + 12345) & 0x7FFFFFFF
        return self.state % bound


def _placements(
    accesses: Iterable[ArrayRef],
    specs: dict[str, LayoutSpec],
    k: int,
) -> tuple[list[int], list[list[int]]]:
    """Split a word's array accesses into exact module hits and groups
    of residues that shift together uniformly.

    - a pinned-module spec or a constant index gives an **exact**
      module;
    - affine accesses to one array with the *same symbolic signature*
      under a linear (interleaved) layout form one **group**: their
      pairwise module distances are the compile-time-known constant
      differences, and only the group's absolute position is unknown
      (uniform over k);
    - everything else (unknown indices; skewed layouts, whose carry
      term scrambles distances) is its own singleton group.
    """
    exact: list[int] = []
    groups: dict[object, list[int]] = {}
    singleton = 0
    for ref in accesses:
        spec = specs.get(ref.array, _UNSPECIFIED)
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
            # Same index -> same module even under skew; different
            # consts have scrambled distances -> independent.
            key = ("skew", ref.array, expr.terms, expr.const)
            groups.setdefault(key, []).append(0)
            continue
        key = ("lin", ref.array, expr.terms)
        groups.setdefault(key, []).append((spec.base + expr.const) % k)
    return exact, list(groups.values())


def _shift_rows(group: Sequence[int], k: int) -> list[tuple[int, ...]]:
    """The module loads ``group`` adds under each uniform shift 0..k-1."""
    row = [0] * k
    for residue in group:
        row[residue % k] += 1
    loads = tuple(row)
    return [loads[k - s:] + loads[:k - s] for s in range(k)]


def _enumerate_total(
    base: tuple[int, ...], rows: Sequence[Sequence[tuple[int, ...]]]
) -> int:
    """Sum, over every combination of group shifts, of the max module
    load: ``base`` plus one shifted row per group (``rows`` is not
    empty).

    Put a singleton group last: one residue shifted over all k modules
    adds k·max(loads) plus the number of modules at that max to the
    sum, with no enumeration.
    """
    loads = [base]
    for group_rows in rows[:-1]:
        loads = [tuple(map(add, ls, r)) for ls in loads for r in group_rows]
    last = rows[-1]
    if sum(last[0]) == 1:
        k = len(last)
        total = 0
        for ls in loads:
            top = max(ls)
            total += k * top + ls.count(top)
        return total
    return sum(max(map(add, ls, r)) for ls in loads for r in last)


def _canonical(group: Sequence[int], k: int) -> tuple[int, ...]:
    """``group``'s residues up to rotation: the least sorted form among
    the rotations that bring one of its residues to 0.

    A group's shift is uniform over k, so rotating its residues by c
    maps the shift combinations one to one onto themselves (the shift s
    becomes s + c mod k) and leaves the exact total unchanged.
    """
    if len(group) == 1:
        return (0,)
    return min(
        tuple(sorted((r - r0) % k for r in group)) for r0 in set(group)
    )


def _exact_cost(
    base: Sequence[int], groups: Sequence[Sequence[int]], k: int
) -> float:
    """Expected max module load of one word, exactly: ``base`` (scalar
    loads plus exact array hits) is deterministic and each group shifts
    uniformly over k, independently of the others.

    The total is an integer sum over the shift combinations, so the
    groups' order does not change it; they are enumerated largest first
    so that a singleton, if any, closes the enumeration.
    """
    if not groups:
        return float(max(base)) if base else 0.0
    rows = [
        _shift_rows(group, k)
        for group in sorted(groups, key=len, reverse=True)
    ]
    return _enumerate_total(tuple(base), rows) / k ** len(groups)


def _sampled_cost(
    base: Sequence[int],
    groups: Sequence[Sequence[int]],
    k: int,
    seed: int,
) -> float:
    """:func:`_exact_cost` estimated from :data:`_MAX_COMBOS` shift
    combinations drawn by a deterministic LCG, for words whose shift
    space is larger than that."""
    rand = _lcg(seed)
    total = 0
    for _ in range(_MAX_COMBOS):
        loads = list(base)
        for group in groups:
            shift = rand.next(k)
            for residue in group:
                loads[(residue + shift) % k] += 1
        total += max(loads)
    return total / _MAX_COMBOS


#: Placement of one part: its exact module hits (sorted) and its
#: residue groups up to rotation (sorted).
_Placement = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]


class _CostModel:
    """Weighted predicted transfer cost of a profile under per-array
    specs, pricing each word at most once per layout of its arrays.

    A word's cost depends only on the specs of the arrays it touches.
    Its accesses to one array (a *part*) place the same way wherever
    they occur, and groups never merge across arrays, since every
    group key carries its array; so a word's placement is the
    concatenation of its parts'.  Kept per call, on this model:

    - per word, at build: its weight, scalar load vector and parts;
    - per (part, spec): the part's placement, interned as an integer,
      so specs that place a part alike share one id;
    - per (word, placement ids of its parts): the word's cost; the
      search's trials and :meth:`commit_array` are lookups in this
      table;
    - across words: the exact expected cost per (base loads, groups up
      to rotation).

    A word with enough groups to reach the seeded sampling path (see
    :func:`_sampled_cost`) keys its costs by spec ids instead: its
    sampled cost depends on the groups' raw residues and their order.

    Spec ids are indices into ``candidates``, which hold every spec
    valid for k.
    """

    def __init__(
        self,
        profile: AccessProfile,
        alloc: "Allocation",
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
        #: spec id -> spec
        self.candidates = _candidate_specs(k)
        self._spec_ids = {
            spec: i for i, spec in enumerate(self.candidates)
        }
        #: part id -> its accesses; (array, index exprs) -> part id
        self._part_refs: list[tuple[ArrayRef, ...]] = []
        self._part_ids: dict[
            tuple[str, tuple[AffineExpr | None, ...]], int
        ] = {}
        #: part id -> placement id under each candidate
        self._candidate_rows: dict[int, list[int]] = {}
        self._placements: list[_Placement] = []
        self._placement_ids: dict[_Placement, int] = {}
        #: (base loads, sorted groups) -> exact expected cost
        self._exact_cost: dict[
            tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], float
        ] = {}

        # Per word, in block/word order.
        self._weight: list[int] = []
        self._vec: list[tuple[int, ...]] = []
        self._arrays: list[tuple[str, ...]] = []
        self._parts: list[tuple[int, ...]] = []
        #: word -> (accesses, sampling seed), for the words whose costs
        #: are keyed by spec ids
        self._sampled: dict[int, tuple[tuple[ArrayRef, ...], int]] = {}
        #: (word, table key) -> cost
        self._table: dict[tuple[int, tuple[int, ...]], float] = {}
        #: table key and cost under the committed specs
        self._keys: list[list[int]] = []
        self._cost: list[float] = []

        keys_of: dict[str, set[tuple[int, int]]] = {}
        word_of: dict[tuple[int, int], int] = {}
        for b, bp in enumerate(profile.blocks):
            for lp in bp.liws:
                w = word_of[(b, lp.cycle)] = len(self._weight)
                arrays, parts = self._parts_of(lp.accesses)
                # skewing splits a part into the most groups
                most_groups = sum(
                    len(self._base_placement(part, "skewed")[1])
                    for part in parts
                )
                self._weight.append(bp.weight)
                self._vec.append(
                    self.scalar_vec(lp.scalar_sources, lp.scalar_dests)
                )
                self._arrays.append(arrays)
                self._parts.append(parts)
                if k ** most_groups > _MAX_COMBOS:
                    self._sampled[w] = (
                        lp.accesses, seed ^ (b * 7919 + lp.cycle)
                    )
                self._keys.append([])
                self._cost.append(0.0)
                for ref in lp.accesses:
                    keys_of.setdefault(ref.array, set()).add((b, lp.cycle))
        #: array -> the words touching it, in the order their cost
        #: changes are summed
        self.words_of: dict[str, list[int]] = {
            array: [word_of[key] for key in keys]
            for array, keys in keys_of.items()
        }

    # -- interning ---------------------------------------------------------

    def _parts_of(
        self, accesses: Sequence[ArrayRef]
    ) -> tuple[tuple[str, ...], tuple[int, ...]]:
        by_array: dict[str, list[ArrayRef]] = {}
        for ref in accesses:
            by_array.setdefault(ref.array, []).append(ref)
        parts = []
        for array, refs in by_array.items():
            key = (array, tuple(ref.expr for ref in refs))
            part = self._part_ids.get(key)
            if part is None:
                part = self._part_ids[key] = len(self._part_refs)
                self._part_refs.append(tuple(refs))
            parts.append(part)
        return tuple(by_array), tuple(parts)

    def _candidate_row(self, part: int) -> list[int]:
        """The placement id of ``part`` under each candidate spec."""
        row = self._candidate_rows.get(part)
        if row is None:
            k = self.k
            row = self._candidate_rows[part] = []
            kind: str | None = None
            for spec in self.candidates:
                if spec.kind != kind:
                    kind = spec.kind
                    exact, groups = self._base_placement(part, kind)
                    # without exact hits, every base places alike
                    alike = None if exact else self._intern((), groups)
                row.append(alike if alike is not None else self._intern(
                    tuple(sorted([(m + spec.base) % k for m in exact])),
                    groups,
                ))
        return row

    def _intern(
        self, exact: tuple[int, ...], groups: tuple[tuple[int, ...], ...]
    ) -> int:
        placement = (exact, groups)
        pid = self._placement_ids.get(placement)
        if pid is None:
            pid = self._placement_ids[placement] = len(self._placements)
            self._placements.append(placement)
        return pid

    def _base_placement(self, part: int, kind: str) -> _Placement:
        """The part's placement under ``kind`` at base 0.

        A spec's base adds to every module it maps an index to
        (:meth:`LayoutSpec.module_of`), so it rotates the part's exact
        hits and each group's residues: one placement per kind gives
        every base's exact hits, and the same groups up to rotation.
        """
        refs = self._part_refs[part]
        exact, groups = _placements(
            refs, {refs[0].array: LayoutSpec(kind, 0)}, self.k
        )
        return (
            tuple(exact),
            tuple(sorted(_canonical(group, self.k) for group in groups)),
        )

    # -- pricing -----------------------------------------------------------

    def _exact(self, base: list[int], groups: list[tuple[int, ...]]) -> float:
        """:func:`_exact_cost` of ``base`` and ``groups`` (each up to
        rotation, as :func:`_canonical` gives it), memoized."""
        if not groups:
            return float(max(base)) if base else 0.0
        key = (tuple(base), tuple(sorted(groups)))
        cost = self._exact_cost.get(key)
        if cost is None:
            cost = self._exact_cost[key] = _exact_cost(key[0], key[1], self.k)
        return cost

    def _price_specs(
        self,
        vec: tuple[int, ...],
        accesses: Sequence[ArrayRef],
        specs: dict[str, LayoutSpec],
        seed: int,
    ) -> float:
        exact, groups = _placements(accesses, specs, self.k)
        base = list(vec)
        for m in exact:
            base[m] += 1
        if self.k ** len(groups) > _MAX_COMBOS:
            # seeded sampling: the word's own seed matters, no memo
            return _sampled_cost(base, groups, self.k, seed)
        return self._exact(base, [_canonical(g, self.k) for g in groups])

    def _lookup(self, w: int, key: tuple[int, ...]) -> float:
        """Word ``w``'s cost under ``key``: its parts' spec ids or
        placement ids, as ``_sampled`` says."""
        cost = self._table.get((w, key))
        if cost is None:
            sampled = self._sampled.get(w)
            if sampled is not None:
                accesses, seed = sampled
                specs = {
                    array: self.candidates[sid]
                    for array, sid in zip(self._arrays[w], key)
                }
                cost = self._price_specs(self._vec[w], accesses, specs, seed)
            else:
                base = list(self._vec[w])
                groups: list[tuple[int, ...]] = []
                for pid in key:
                    exact, canonical = self._placements[pid]
                    for m in exact:
                        base[m] += 1
                    groups += canonical
                cost = self._exact(base, groups)
            self._table[(w, key)] = cost
        return cost

    def _key(self, w: int, slot: int, sid: int) -> int:
        """The entry of word ``w``'s table key for its ``slot``-th
        array at spec ``sid``."""
        if w in self._sampled:
            return sid
        return self._candidate_row(self._parts[w][slot])[sid]

    def _row(self, w: int, slot: int) -> list[float]:
        """Word ``w``'s cost with its ``slot``-th array at each
        candidate spec and its other arrays at their committed specs."""
        key = list(self._keys[w])
        ids: Sequence[int]
        if w in self._sampled:
            ids = range(len(self.candidates))
        else:
            ids = self._candidate_row(self._parts[w][slot])
        costs: dict[int, float] = {}
        for i in ids:
            if i not in costs:
                key[slot] = i
                costs[i] = self._lookup(w, tuple(key))
        return [costs[i] for i in ids]

    # -- the search's interface ---------------------------------------------

    def word_cost(self, block_pos: int, lp: LiwProfile,
                  specs: dict[str, LayoutSpec]) -> float:
        """Cost of one word, which need not be in the profile (the move
        stage prices trial words)."""
        return self._price_specs(
            self.scalar_vec(lp.scalar_sources, lp.scalar_dests),
            lp.accesses,
            specs,
            self.seed ^ (block_pos * 7919 + lp.cycle),
        )

    def total(self, specs: dict[str, LayoutSpec]) -> float:
        """Commit ``specs`` (default: interleaved, base 0; each valid
        for k) and return the weighted cost, summed in block/word
        order."""
        current = {
            array: self._spec_ids[specs.get(array, _UNSPECIFIED)]
            for array in self.words_of
        }
        cost = 0.0
        for w, weight in enumerate(self._weight):
            key = self._keys[w] = [
                self._key(w, slot, current[array])
                for slot, array in enumerate(self._arrays[w])
            ]
            word = self._cost[w] = self._lookup(w, tuple(key))
            cost += weight * word
        return cost

    def trial_totals(self, array: str, current_total: float) -> list[float]:
        """Total cost with ``array`` at each candidate spec (by index)
        and every other array at its committed spec.

        Each total adds the changed words' weighted cost differences to
        ``current_total`` one at a time, in ``words_of`` order.
        """
        words = self.words_of[array]
        weights = [self._weight[w] for w in words]
        olds = [self._cost[w] for w in words]
        rows = [
            self._row(w, self._arrays[w].index(array)) for w in words
        ]
        return [
            reduce(
                add, map(mul, weights, map(sub, column, olds)), current_total
            )
            for column in zip(*rows)
        ]

    def commit_array(self, array: str, sid: int) -> None:
        """Make candidate ``sid`` ``array``'s committed spec."""
        for w in self.words_of[array]:
            key = self._keys[w]
            slot = self._arrays[w].index(array)
            key[slot] = self._key(w, slot, sid)
            self._cost[w] = self._lookup(w, tuple(key))


def predicted_cost(
    profile: AccessProfile,
    alloc: "Allocation",
    k: int,
    specs: dict[str, LayoutSpec],
    seed: int = 0,
    eager_copies: bool = True,
) -> float:
    """Weighted expected transfer cost of a profile under ``specs`` —
    the quantity the greedy search and the move stage both minimize."""
    return _CostModel(profile, alloc, k, seed, eager_copies).total(specs)


# --------------------------------------------------------------------------
# Greedy layout search
# --------------------------------------------------------------------------


def _candidate_specs(k: int) -> list[LayoutSpec]:
    out = [LayoutSpec("interleaved", b) for b in range(k)]
    out += [LayoutSpec("skewed", b) for b in range(k)]
    out += [LayoutSpec("module", m) for m in range(k)]
    return out


def _default_specs(arrays: Sequence[str], k: int) -> dict[str, LayoutSpec]:
    """The identity plan: plain interleaving with declaration-order
    bases — byte-for-byte the default ``InterleavedLayout``."""
    return {
        name: LayoutSpec("interleaved", i % k)
        for i, name in enumerate(arrays)
    }


def _search_layouts(
    model: _CostModel,
    arrays: Sequence[str],
    k: int,
) -> tuple[dict[str, LayoutSpec], float, float]:
    specs = _default_specs(arrays, k)
    before = model.total(specs)
    if not model.words_of:
        return specs, before, before

    weights = model.profile.arrays_touched()
    order = sorted(arrays, key=lambda a: (-weights.get(a, 0), a))
    candidates = model.candidates

    best_total = before
    for _ in range(_SWEEPS):
        improved = False
        for array in order:
            if array not in model.words_of:
                continue
            current = candidates.index(specs[array])
            best, best_cost = current, best_total
            for cand, cost in enumerate(model.trial_totals(array, best_total)):
                if cand != current and cost < best_cost - 1e-9:
                    best, best_cost = cand, cost
            if best != current:
                specs[array] = candidates[best]
                model.commit_array(array, best)
                best_total = best_cost
                improved = True
        if not improved:
            break
    return specs, before, best_total


# --------------------------------------------------------------------------
# Scheduler co-optimization: dependence-legal moves of array ops
# --------------------------------------------------------------------------


def _optimize_moves(
    schedule: "Schedule",
    model: _CostModel,
    specs: dict[str, LayoutSpec],
    weights: dict[int, int],
) -> tuple["Schedule", tuple[Move, ...], float]:
    """Greedy adjacent-word moves of array operations; returns the
    reordered copy, the replayable move list, and the cost change."""
    from ..liw.ddg import build_ddg

    working = copy_schedule(schedule)
    machine = schedule.machine
    moves: list[Move] = []
    total_delta = 0.0

    for bs in working.blocks:
        block = working.cfg.blocks[bs.block_index]
        body = block.body
        if len(bs.liws) < 2 or not body:
            continue
        if not any(op.ARRAY_ACCESS for op in body):
            continue
        pos_of = {id(instr): pos for pos, instr in enumerate(body)}
        if len(pos_of) != len(body):
            continue
        cycles = block_cycle_map(body, bs.liws)
        if cycles is None or len(cycles) != len(body):
            continue
        # built on the first trial that passes the checks that need
        # none; a block where no trial does never builds one
        ddg: "DependenceGraph | None" = None
        exprs = block_index_exprs(block)
        weight = weights.get(bs.block_index, 1)

        def cost_of(cycle: int) -> float:
            lp = word_profile(bs.liws[cycle], cycle, pos_of, exprs)
            return model.word_cost(bs.block_index, lp, specs)

        # cost of each word as it stands, priced when a trial first
        # touches it
        word_costs: dict[int, float] = {}

        def cost_now(cycle: int) -> float:
            cost = word_costs.get(cycle)
            if cost is None:
                cost = word_costs[cycle] = cost_of(cycle)
            return cost

        for _ in range(_MOVE_SWEEPS):
            changed = False
            for pos in sorted(cycles):
                op = body[pos]
                if not op.ARRAY_ACCESS:
                    continue
                from_cycle = cycles[pos]
                best: tuple[float, int] | None = None
                for to_cycle in (from_cycle - 1, from_cycle + 1):
                    if not move_fits(
                        cycles, bs.liws, pos_of, pos, to_cycle,
                        machine.num_fus, machine.ports,
                    ):
                        continue
                    if ddg is None:
                        ddg = build_ddg(block)
                    if not move_keeps_dependences(ddg, cycles, pos, to_cycle):
                        continue
                    now = cost_now(from_cycle) + cost_now(to_cycle)
                    op_index = bs.liws[from_cycle].ops.index(op)
                    bs.liws[from_cycle].ops.pop(op_index)
                    bs.liws[to_cycle].ops.append(op)
                    gain = now - cost_of(from_cycle) - cost_of(to_cycle)
                    # roll back the trial
                    bs.liws[to_cycle].ops.pop()
                    bs.liws[from_cycle].ops.insert(op_index, op)
                    if gain > 1e-9 and (best is None or gain > best[0]):
                        best = (gain, to_cycle)
                if best is None:
                    continue
                gain, to_cycle = best
                op_index = bs.liws[from_cycle].ops.index(op)
                bs.liws[from_cycle].ops.pop(op_index)
                bs.liws[to_cycle].ops.append(op)
                moves.append(
                    Move(bs.block_index, from_cycle, op_index, to_cycle)
                )
                cycles[pos] = to_cycle
                word_costs[from_cycle] = cost_of(from_cycle)
                word_costs[to_cycle] = cost_of(to_cycle)
                total_delta -= gain * weight
                changed = True
            if not changed:
                break

    return working, tuple(moves), total_delta


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def optimize_arrays(
    schedule: "Schedule",
    storage: "StorageResult",
    seed: int = 0,
    eager_copies: bool = True,
    enable_moves: bool = True,
) -> ArrayLayoutPlan:
    """Choose per-array layouts (and optional schedule moves) that
    minimize the predicted bank-conflict cost of ``schedule`` under
    ``storage``'s scalar allocation.

    Deterministic for a given (schedule, allocation, seed): the greedy
    sweeps, tie-breaks, and the cost model's shift sampling are all
    seeded and ordered.  The returned plan's ``moves`` have been
    re-verified against freshly built dependence graphs; a verification
    failure drops the moves (never the layouts) rather than risking a
    miscompiled schedule.
    """
    arrays = sorted(schedule.cfg.arrays)
    k = schedule.machine.k
    profile = analyze_accesses(schedule)
    alloc = storage.allocation
    model = _CostModel(profile, alloc, k, seed, eager_copies)

    specs, before, after_layout = _search_layouts(model, arrays, k)

    moves: tuple[Move, ...] = ()
    after = after_layout
    if enable_moves and model.words_of:
        weights = {bp.block_index: bp.weight for bp in profile.blocks}
        reordered, moves, delta = _optimize_moves(
            schedule, model, specs, weights
        )
        if moves:
            if verify_schedule(reordered):
                moves = ()  # refuse an illegal reordering wholesale
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
