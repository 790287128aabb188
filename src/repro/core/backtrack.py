"""Per-instruction duplication by backtracking (paper §2.2.1, Fig. 6).

After colouring, the removed values (``V_unassigned``) are placed one
instruction at a time.  Instructions are ordered by how many of their
operands are in ``V_unassigned`` (fewest first: an instruction with a
single duplicable operand has essentially one fix, so it must not be
pre-empted).  For each instruction, backtracking enumerates every
assignment of its duplicable operands to modules that makes the
instruction conflict free, preferring assignments that reuse existing
copies; the cheapest (fewest new copies) wins, ties resolved per
``tie_break``.

The enumeration runs on module bitmasks: the modules ruled out by the
instruction's fixed single-copy operands and by earlier choices
propagate down the search as one *forbidden mask*, infeasible branches
(fewer free modules than operands left) are cut by dominance pruning,
and whole enumerations are memoised on ``(existing-copy masks,
forbidden mask)`` — two instructions whose duplicable operands hold
copies in the same modules under the same forbidden set share one
search.  Pruning of cost-dominated branches never drops a cheapest
placement (a minimal-cost placement's every prefix is within the
running bound), so the chosen placements — and the ``rng`` draws that
break ties — are identical to the exhaustive reference
(``reference_backtrack_duplication`` in ``tests/reference.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from .allocation import Allocation
from .bitset import COUNTERS, iter_bits
from .verify import ConflictIndex

_Placements = list[tuple[int, tuple[int, ...]]]


@dataclass(slots=True)
class BacktrackStats:
    instructions_processed: int = 0
    placements_enumerated: int = 0
    copies_created: int = 0
    unreferenced_placed: list[int] = field(default_factory=list)
    #: instructions for which no conflict-free placement exists (wider
    #: than k, or fixed operands already clashing)
    residual_instructions: list[frozenset[int]] = field(default_factory=list)


def _enumerate_placements(
    existing_masks: Sequence[int],
    forbidden_mask: int,
    k: int,
    prune_cost: bool,
) -> _Placements:
    """All conflict-free module assignments for operands whose existing
    copies sit in ``existing_masks``.

    Returns ``(new_copy_count, modules)`` pairs in the reference
    enumeration order (reuse-first, then ascending module index at every
    level).  Assigned modules are pairwise distinct and avoid
    ``forbidden_mask``.  With ``prune_cost``, branches whose partial
    cost already exceeds the best complete cost found so far are cut —
    every minimal-cost placement still appears, in unchanged order.
    """
    all_modules = (1 << k) - 1
    results: _Placements = []
    chosen: list[int] = []
    total = len(existing_masks)
    best_cost = total + 1  # upper bound: every operand needs a new copy

    def backtrack(i: int, cost: int, used_mask: int) -> None:
        nonlocal best_cost
        if i == total:
            results.append((cost, tuple(chosen)))
            if cost < best_cost:
                best_cost = cost
            return
        avail = ~(forbidden_mask | used_mask) & all_modules
        # Dominance: fewer free modules than operands left — no
        # completion exists down this branch.
        if avail.bit_count() < total - i:
            COUNTERS.branches_pruned += 1
            return
        existing = existing_masks[i]
        # Cheapest-first: existing copies cost 0, new modules cost 1.
        for m in iter_bits(avail & existing):
            chosen.append(m)
            backtrack(i + 1, cost, used_mask | (1 << m))
            chosen.pop()
        if prune_cost and cost + 1 > best_cost:
            COUNTERS.branches_pruned += 1
            return
        for m in iter_bits(avail & ~existing):
            chosen.append(m)
            backtrack(i + 1, cost + 1, used_mask | (1 << m))
            chosen.pop()

    backtrack(0, 0, 0)
    COUNTERS.placements_enumerated += len(results)
    return results


def backtrack_duplication(
    operand_sets: Sequence[frozenset[int]],
    alloc: Allocation,
    unassigned: Sequence[int],
    rng: random.Random | None = None,
    tie_break: str = "random",
) -> BacktrackStats:
    """Apply Fig. 6 to place copies of ``unassigned`` values, mutating
    ``alloc``.  Fixed operands (everything not in ``unassigned``) must
    already be placed."""
    rng = rng or random.Random(0)
    stats = BacktrackStats()
    unassigned_set = set(unassigned)
    k = alloc.k
    index = ConflictIndex.of(operand_sets)

    # Fig. 6: S_i = instructions with i operands in V_unassigned.
    relevant = [ops for ops in index if ops & unassigned_set]
    relevant.sort(key=lambda ops: (len(ops & unassigned_set), sorted(ops)))

    # Memoised enumerations: two instructions with the same per-operand
    # existing-copy masks and forbidden mask share one search.  Keys
    # embed the masks themselves, so copies added for one instruction
    # simply miss instead of serving stale results.
    memo: dict[tuple[tuple[int, ...], int, bool], _Placements] = {}

    for ops in relevant:
        todo = sorted(ops & unassigned_set)
        fixed = ops - unassigned_set
        forbidden_mask = 0
        multi_fixed = False
        for v in fixed:
            mask = alloc.modules_mask(v)
            if not mask:
                raise ValueError(f"fixed operand {v} is unplaced")
            if mask.bit_count() == 1:
                forbidden_mask |= mask
            else:
                # A fixed operand that itself has copies (possible after
                # STOR phases) can dodge; leave its modules available.
                multi_fixed = True
        existing_masks = tuple(alloc.modules_mask(v) for v in todo)
        # With multi-copy fixed operands the SDR post-filter may discard
        # cheap placements, so cost pruning must stay off there.
        prune_cost = not multi_fixed
        key = (existing_masks, forbidden_mask, prune_cost)
        placements = memo.get(key)
        if placements is None:
            placements = _enumerate_placements(
                existing_masks, forbidden_mask, k, prune_cost
            )
            memo[key] = placements
        else:
            COUNTERS.memo_hits += 1
        if multi_fixed:
            # With multi-copy fixed operands (STOR2/3 later phases)
            # pairwise distinctness is not sufficient; keep only
            # placements for which the whole instruction admits
            # distinct representatives.
            fixed_masks = [alloc.modules_mask(v) for v in fixed]
            placements = [
                (c, p)
                for c, p in placements
                if index.admits(fixed_masks + [1 << m for m in p])
            ]
        stats.instructions_processed += 1
        stats.placements_enumerated += len(placements)
        if not placements:
            # No conflict-free placement exists — the instruction is
            # wider than k, or its fixed operands already clash.  Place
            # any still-unplaced operands somewhere (storage must be
            # total) and record the residual conflict.
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
            if not (alloc.modules_mask(v) >> m) & 1:
                alloc.add_copy(v, m)
                stats.copies_created += 1

    # Values never used together with anything still need storage.
    for v in sorted(unassigned_set):
        if not alloc.is_placed(v):
            alloc.add_copy(v, 0)
            stats.copies_created += 1
            stats.unreferenced_placed.append(v)
    return stats
