"""Placement of value copies into memory modules (paper Fig. 10).

Given values that must receive one (additional) copy each, choose the
module for each copy so the maximum number of still-conflicting
instructions becomes conflict free:

- instructions are grouped by how many of their operands are duplicable
  (the paper's I_1 ... I_k: I_1 — one duplicable operand, hence exactly
  one way to fix it — is the most constrained and scores first);
- values are processed in decreasing involvement in I_1 conflicts (then
  I_2, ...);
- for a value v, module M_x scores the vector
  ``(C[M_x, I_1](v), ..., C[M_x, I_k](v))`` — the number of conflicting
  instructions per group that a copy of v at M_x would fix — and the
  lexicographically largest vector wins; remaining ties go to a seeded
  random choice (the paper: "a random choice is made") or the lowest
  module index, per ``tie_break``.

Identical instructions are scored once, weighted by their multiplicity
— a duplicated instruction is conflicting, fixed, and counted exactly
like its twin, so weighted sums over distinct rows equal plain sums over
all rows.  Rows, the rows reading each value, and every conflict check
come from one :class:`~repro.core.verify.ConflictIndex`.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from .allocation import Allocation
from .bitset import iter_bits
from .verify import ConflictIndex


def group_instructions(
    operand_sets: Sequence[frozenset[int]],
    duplicable: set[int],
    k: int,
) -> dict[int, list[frozenset[int]]]:
    """Paper Fig. 10: I_y = instructions with y duplicable operands."""
    groups: dict[int, list[frozenset[int]]] = {y: [] for y in range(1, k + 1)}
    for ops in operand_sets:
        y = len(ops & duplicable)
        if 1 <= y <= k:
            groups[y].append(ops)
    return groups


def place_copies(
    values: Iterable[int],
    alloc: Allocation,
    operand_sets: Sequence[frozenset[int]],
    duplicable: set[int],
    rng: random.Random | None = None,
    tie_break: str = "random",
) -> None:
    """Place one copy of each value per Fig. 10, mutating ``alloc``.

    ``operand_sets`` is the full instruction list; conflicts are
    re-evaluated against the evolving allocation as copies land.
    """
    k = alloc.k
    all_modules = (1 << k) - 1
    rng = rng or random.Random(0)
    index = ConflictIndex.of(operand_sets)
    rows, weight = index.rows, index.multiplicity
    # Fig. 10 group I_y of each distinct row; rows outside I_1..I_k
    # are never scored.
    group = [len(ops & duplicable) for ops in rows]

    def conflicting_rows(v: int) -> list[int]:
        """Scored rows reading ``v`` that conflict under ``alloc``."""
        return [
            r
            for r in index.rows_of.get(v, ())
            if 1 <= group[r] <= k and not index.conflict_free(rows[r], alloc)
        ]

    def by_group(scored: Iterable[int]) -> tuple[int, ...]:
        """Weight per group I_1..I_k of the rows ``scored``."""
        vec = [0] * k
        for r in scored:
            vec[group[r] - 1] += weight[r]
        return tuple(vec)

    # Order the values once, up front (Fig. 10: "The order is determined
    # by counting the number of instructions in the first group that
    # involve each of the variables", falling back to later groups).
    ordered = sorted(
        set(values),
        key=lambda v: (by_group(conflicting_rows(v)), -v),
        reverse=True,
    )

    for v in ordered:
        avail = ~alloc.modules_mask(v) & all_modules
        if not avail:
            continue  # v already everywhere
        candidates = list(iter_bits(avail))
        # Only instructions containing v can be fixed by a copy of v.
        relevant = conflicting_rows(v)
        score = {
            m: by_group(
                r for r in relevant if index.conflict_free(rows[r], alloc, v, m)
            )
            for m in candidates
        }
        best_vec = max(score.values())
        best_modules = [m for m in candidates if score[m] == best_vec]
        if len(best_modules) == 1 or tie_break == "first":
            chosen = best_modules[0]
        elif tie_break == "random":
            chosen = rng.choice(best_modules)
        else:
            raise ValueError(f"unknown tie_break {tie_break!r}")
        alloc.add_copy(v, chosen)
