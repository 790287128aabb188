"""The hitting-set duplication approach (paper §2.2.2, Fig. 7).

Driver sequence, following Fig. 7:

1. ``Place(V_unassigned)`` — first copies of every removed value
   (Fig. 10 scoring);
2. ``Place(V_unassigned)`` again — second copies, after which every
   *pair* of co-occurring operands is conflict free (a value with two
   copies in different modules can always dodge one other operand);
3. for combination sizes ``num = 3..k``: gather every ``num``-subset of
   operands co-occurring in some instruction that still conflicts,
   derive for each the set of values whose duplication can fix it,
   run the Fig. 9 hitting-set heuristic, and place the chosen copies
   (Fig. 10).

Generalisations needed for the STOR2/STOR3 drivers (documented in
DESIGN.md): the size loop starts at 2 — in the plain whole-program flow
the pair stage finds nothing, but phase-composed strategies can arrive
here with two pre-assigned values sharing a module; and each size
repeats until clean, because a single placed copy cannot always serve
two different combinations (the paper performs one round, which suffices
in its single-phase setting).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

from .allocation import Allocation
from .bitset import COUNTERS
from .hitting_set import paper_hitting_set
from .placement import place_copies
from .verify import ConflictIndex


@dataclass(slots=True)
class DuplicationStats:
    copies_created: int = 0
    rounds_per_size: dict[int, int] = field(default_factory=dict)
    residual_combos: list[frozenset[int]] = field(default_factory=list)
    unreferenced_placed: list[int] = field(default_factory=list)


def _conflicting_combos(
    index: ConflictIndex,
    size: int,
    alloc: Allocation,
) -> list[frozenset[int]]:
    """Distinct size-``size`` operand combinations that co-occur in some
    instruction and are not conflict free (the paper's S_i^num).

    A conflict-free instruction cannot contain a conflicting
    sub-combination (removing operands only relaxes the matching), so
    only still-conflicting instructions are expanded — each distinct
    row once (identical rows contribute identical combos to the result
    set, so deduplication cannot change it).
    """
    combos: set[frozenset[int]] = set()
    for ops in index.rows:
        if len(ops) < size or index.conflict_free(ops, alloc):
            continue
        for c in combinations(sorted(ops), size):
            combos.add(frozenset(c))
            COUNTERS.combos_enumerated += 1
    return sorted(
        (c for c in combos if not index.conflict_free(c, alloc)), key=sorted
    )


def hitting_set_duplication(
    operand_sets: Sequence[frozenset[int]],
    alloc: Allocation,
    unassigned: Sequence[int],
    duplicable: set[int],
    rng: random.Random | None = None,
    tie_break: str = "random",
    max_rounds: int = 64,
) -> DuplicationStats:
    """Apply Fig. 7, mutating ``alloc``.

    ``unassigned`` are the values removed during colouring (to receive
    two copies up front); ``duplicable`` is the full set of values that
    may legally be replicated (single-definition values).
    """
    rng = rng or random.Random(0)
    stats = DuplicationStats()
    k = alloc.k
    unassigned = sorted(set(unassigned))
    relevant = ConflictIndex.of(operand_sets).restrict(
        lambda ops: len(ops) >= 2
    )

    def place(values: Sequence[int]) -> None:
        before = alloc.total_copies
        place_copies(values, alloc, relevant, set(duplicable), rng, tie_break)
        stats.copies_created += alloc.total_copies - before

    # Fig. 7 steps 1-2: first and second copies of every removed value.
    # (A value demoted out of an earlier phase's placement may already
    # own copies; top it up to two rather than over-copying.)
    first = [v for v in unassigned if alloc.copy_count(v) < 1]
    if first:
        place(first)
    second = [v for v in unassigned if alloc.copy_count(v) < 2]
    if second:
        place(second)

    # Values never co-occurring with others still need storage.
    for v in unassigned:
        if not alloc.is_placed(v):
            alloc.add_copy(v, 0)
            stats.copies_created += 1
            stats.unreferenced_placed.append(v)

    # Fig. 7 main loop over combination sizes.
    for size in range(2, k + 1):
        rounds = 0
        hopeless: set[frozenset[int]] = set()
        while rounds < max_rounds:
            conflicting = [
                c
                for c in _conflicting_combos(relevant, size, alloc)
                if c not in hopeless
            ]
            candidate_sets: list[frozenset[int]] = []
            for combo in conflicting:
                # Paper §2.2.2.1: the duplication candidates of a
                # conflicting combination are its members that already
                # have two or more copies (the values removed during
                # colouring).  Single-copy members are touched only in
                # the cross-phase repair case where no multi-copy
                # member exists (STOR2/3 pre-assignment clashes).
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
            v_dup = paper_hitting_set(candidate_sets, k)
            before = alloc.total_copies
            place(sorted(v_dup))
            if alloc.total_copies == before:
                # Placement could not add any copy (all chosen values
                # already sit in every allowed module); record and stop.
                hopeless.update(
                    c
                    for c in conflicting
                    if not relevant.conflict_free(c, alloc)
                )
                break
        stats.rounds_per_size[size] = rounds
        stats.residual_combos.extend(
            c
            for c in sorted(hopeless, key=sorted)
            if not relevant.conflict_free(c, alloc)
        )

    return stats
