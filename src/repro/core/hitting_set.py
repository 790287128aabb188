"""Hitting-set heuristics for the duplication phase (paper Fig. 9).

Each unresolved operand combination yields the set of values whose
duplication would fix it; one value from every set must receive an
additional copy.  The minimum-cardinality choice is the NP-complete
hitting-set problem, so the paper uses the one-pass heuristic of Fig. 9:

- all singleton sets are forced into the hitting set;
- sets are then processed by increasing size; an unhit set contributes
  the element with the lexicographically largest occurrence vector
  ``(S[v, size], S[v, size+1], ..., S[v, k])`` where ``S[v, p]`` counts
  the sets of size p containing v.

:func:`greedy_hitting_set` is the textbook H_m-approximate greedy,
provided for the ablation benchmarks.

Both heuristics run on bitmask membership: sets become masks over a
dense value numbering, "already hit" is one AND against the running
hitting-set mask, and the greedy keeps its per-element coverage counts
lazily — each pick subtracts the newly-hit sets from their members'
counters instead of rebuilding the whole coverage table (the reference
behaviour, kept in ``tests/reference.py``, rescans every surviving
set per pick).  Results are identical to the reference.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .bitset import COUNTERS, DenseIndex, iter_bits


def _occurrence_counts(
    families: Sequence[frozenset[int]], k: int
) -> dict[int, list[int]]:
    """S[v][p] = number of sets of cardinality p containing v (p <= k)."""
    counts: dict[int, list[int]] = {}
    for s in families:
        p = len(s)
        for v in s:
            row = counts.setdefault(v, [0] * (k + 1))
            if p <= k:
                row[p] += 1
    return counts


def paper_hitting_set(
    sets: Iterable[Iterable[int]], k: int
) -> set[int]:
    """The Fig. 9 heuristic.

    ``k`` bounds set cardinality (the number of memory modules); larger
    sets are rejected.  Ties in the occurrence-vector comparison break
    toward the smallest value id for determinism.
    """
    families = [frozenset(s) for s in sets]
    for s in families:
        if not 1 <= len(s) <= k:
            raise ValueError(f"set size {len(s)} outside [1, {k}]")

    counts = _occurrence_counts(families, k)
    index = DenseIndex(v for s in families for v in s)
    ids = index.ids
    masks = [index.mask_of(s) for s in families]
    sizes = [len(s) for s in families]
    # Occurrence vectors as tuples, indexed by dense bit; vector(v) for a
    # size-p set is the suffix rows[i][p - 1 :].
    rows = [tuple(counts[v][1 : k + 1]) for v in ids]

    hitting_mask = 0
    for m, p in zip(masks, sizes):
        if p == 1:
            hitting_mask |= m

    for size in range(2, k + 1):
        suffix = size - 1
        for m, p in zip(masks, sizes):
            if p != size or m & hitting_mask:
                continue
            # Fig. 9's comparison: lexicographic on (S[v,size..k]), ties
            # toward the smallest id — an ascending strict-greater scan.
            best = -1
            best_vec: tuple[int, ...] = ()
            for i in iter_bits(m):
                vec = rows[i][suffix:]
                if best < 0 or vec > best_vec:
                    best, best_vec = i, vec
            hitting_mask |= 1 << best
    return set(index.ids_of(hitting_mask))


def greedy_hitting_set(sets: Iterable[Iterable[int]]) -> set[int]:
    """Classic greedy: repeatedly pick the element hitting the most
    not-yet-hit sets (ties toward the smallest id)."""
    families = [frozenset(s) for s in sets if s]
    if not families:
        return set()
    index = DenseIndex(v for s in families for v in s)
    ids = index.ids
    masks = [index.mask_of(s) for s in families]

    # Lazy coverage: counts are built once, then each pick subtracts the
    # sets it newly hits from their members' counters — no full rescan.
    coverage = [0] * len(ids)
    for m in masks:
        for i in iter_bits(m):
            coverage[i] += 1
    unhit = list(range(len(masks)))

    hitting_mask = 0
    while unhit:
        best = -1
        best_cov = 0
        for i, c in enumerate(coverage):
            # Zero-coverage elements appear in no unhit set and can
            # never win in the reference's rebuilt table.
            if c > best_cov:
                best, best_cov = i, c
        best_bit = 1 << best
        hitting_mask |= best_bit
        still_unhit = []
        for s in unhit:
            if masks[s] & best_bit:
                for i in iter_bits(masks[s]):
                    coverage[i] -= 1
                    COUNTERS.lazy_counter_updates += 1
            else:
                still_unhit.append(s)
        unhit = still_unhit
    return set(index.ids_of(hitting_mask))


def is_hitting_set(sets: Iterable[Iterable[int]], candidate: set[int]) -> bool:
    return all(set(s) & candidate for s in sets)
