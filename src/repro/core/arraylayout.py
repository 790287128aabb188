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
from typing import TYPE_CHECKING, Iterable, Sequence

from ..liw.reorder import (
    Move,
    block_cycle_map,
    copy_schedule,
    move_is_legal,
    resolve_op,
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

    @staticmethod
    def from_dict(data: dict[str, object]) -> "ArrayLayoutPlan":
        specs = {
            str(name): LayoutSpec(str(d["kind"]), int(d["base"]))  # type: ignore[index]
            for name, d in dict(data.get("specs", {})).items()  # type: ignore[arg-type]
        }
        moves = tuple(
            Move(
                int(m["block"]), int(m["from_cycle"]),
                int(m["op_index"]), int(m["to_cycle"]),
            )
            for m in list(data.get("moves", []))  # type: ignore[union-attr]
        )
        return ArrayLayoutPlan(
            k=int(data["k"]),  # type: ignore[arg-type]
            specs=specs,
            moves=moves,
            predicted_before=float(data.get("predicted_before", 0.0)),  # type: ignore[arg-type]
            predicted_after=float(data.get("predicted_after", 0.0)),  # type: ignore[arg-type]
            affine_fraction=float(data.get("affine_fraction", 1.0)),  # type: ignore[arg-type]
        )


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
            # Same index -> same module even under skew; different
            # consts have scrambled distances -> independent.
            key = ("skew", ref.array, expr.terms, expr.const)
            groups.setdefault(key, []).append(0)
            continue
        key = ("lin", ref.array, expr.terms)
        groups.setdefault(key, []).append((spec.base + expr.const) % k)
    return exact, list(groups.values())


def _liw_cost(
    vec: Sequence[int],
    exact: Sequence[int],
    groups: Sequence[Sequence[int]],
    k: int,
    seed: int,
) -> float:
    """Expected max module load of one word: scalar loads + exact array
    hits are deterministic; each group shifts uniformly over k.

    Exact expectation when the shift space is small; deterministic LCG
    sampling beyond :data:`_MAX_COMBOS`.
    """
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


class _CostModel:
    """Weighted predicted transfer cost of a profile under candidate
    specs, with per-word incremental re-evaluation."""

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
        #: canonical (vec, exact, groups) -> exact expected cost; see
        #: word_cost
        self._exact_cost: dict[
            tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]],
            float,
        ] = {}
        #: (block_pos, cycle) -> last computed cost of that word
        self._word_cost: dict[tuple[int, int], float] = {}
        #: array -> word keys touching it
        self.words_of: dict[str, set[tuple[int, int]]] = {}
        for b, bp in enumerate(profile.blocks):
            for lp in bp.liws:
                for ref in lp.accesses:
                    self.words_of.setdefault(ref.array, set()).add(
                        (b, lp.cycle)
                    )

    def word_cost(self, block_pos: int, lp: LiwProfile,
                  specs: dict[str, LayoutSpec]) -> float:
        exact, groups = _placements(lp.accesses, specs, self.k)
        vec = self.scalar_vec(lp.scalar_sources, lp.scalar_dests)
        if self.k ** len(groups) > _MAX_COMBOS:
            # seeded sampling: the word's own seed matters, no memo
            return _liw_cost(
                vec, exact, groups, self.k,
                self.seed ^ (block_pos * 7919 + lp.cycle),
            )
        # The exact path sums integer maxima over every shift combination,
        # so neither the order of the groups nor that of the residues
        # within one can change it.
        key = (
            vec,
            tuple(sorted(exact)),
            tuple(sorted(tuple(sorted(group)) for group in groups)),
        )
        cost = self._exact_cost.get(key)
        if cost is None:
            cost = self._exact_cost[key] = _liw_cost(vec, exact, groups, self.k, 0)
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
        """Total cost if only ``array``'s spec differs from the last
        fully evaluated state (re-scores only the words touching it)."""
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
        ddg: "DependenceGraph" = build_ddg(block)
        exprs = model_block_exprs(model, bs.block_index)
        weight = weights.get(bs.block_index, 1)

        def cost_of(cycle: int) -> float:
            lp = word_profile(bs.liws[cycle], cycle, pos_of, exprs)
            return model.word_cost(bs.block_index, lp, specs)

        word_costs = [cost_of(c) for c in range(len(bs.liws))]

        for _ in range(_MOVE_SWEEPS):
            changed = False
            for pos in sorted(cycles):
                op = body[pos]
                if not op.ARRAY_ACCESS:
                    continue
                from_cycle = cycles[pos]
                best: tuple[float, int] | None = None
                for to_cycle in (from_cycle - 1, from_cycle + 1):
                    if not move_is_legal(
                        ddg, cycles, bs.liws, pos_of, pos, to_cycle,
                        machine.num_fus, machine.ports,
                    ):
                        continue
                    moved = resolve_op(bs.liws[from_cycle], pos_of, pos)
                    if moved is None:
                        continue
                    op_index = bs.liws[from_cycle].ops.index(moved)
                    bs.liws[from_cycle].ops.pop(op_index)
                    bs.liws[to_cycle].ops.append(moved)
                    new_from = cost_of(from_cycle)
                    new_to = cost_of(to_cycle)
                    gain = (
                        word_costs[from_cycle] + word_costs[to_cycle]
                        - new_from - new_to
                    )
                    # roll back the trial
                    bs.liws[to_cycle].ops.pop()
                    bs.liws[from_cycle].ops.insert(op_index, moved)
                    if gain > 1e-9 and (best is None or gain > best[0]):
                        best = (gain, to_cycle)
                if best is None:
                    continue
                gain, to_cycle = best
                moved = resolve_op(bs.liws[from_cycle], pos_of, pos)
                assert moved is not None
                op_index = bs.liws[from_cycle].ops.index(moved)
                bs.liws[from_cycle].ops.pop(op_index)
                bs.liws[to_cycle].ops.append(moved)
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


def model_block_exprs(
    model: _CostModel, block_index: int
) -> dict[int, AffineExpr | None]:
    """body position -> affine expr, re-derived from the profile."""
    out: dict[int, AffineExpr | None] = {}
    for bp in model.profile.blocks:
        if bp.block_index != block_index:
            continue
        for lp in bp.liws:
            for ref in lp.accesses:
                if ref.body_pos >= 0:
                    out[ref.body_pos] = ref.expr
    return out


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
