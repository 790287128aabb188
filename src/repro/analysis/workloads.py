"""Synthetic instruction workloads for ablations and stress tests.

The paper's experiments run on six real programs; the ablation
benchmarks additionally use random operand-set streams with controlled
density, where the differences between strategies and heuristics are
measurable at any chosen operating point.
"""

from __future__ import annotations

import random
from itertools import accumulate
from typing import Sequence


def random_instructions(
    n_values: int,
    n_instructions: int,
    operands_per_instr: int,
    seed: int = 0,
    hot_fraction: float = 0.2,
    hot_weight: float = 4.0,
) -> list[frozenset[int]]:
    """Random operand sets over ``n_values`` data values.

    A ``hot_fraction`` of the values (think: named variables, memory
    constants) is sampled ``hot_weight`` times more often than the rest
    (think: single-use temporaries), mimicking the degree skew of real
    conflict graphs.
    """
    if operands_per_instr > n_values:
        raise ValueError("operands_per_instr cannot exceed n_values")
    rng = random.Random(seed)
    n_hot = max(1, int(n_values * hot_fraction))
    weights = [hot_weight] * n_hot + [1.0] * (n_values - n_hot)
    # Accumulated once: ``choices(weights=...)`` would redo it per draw.
    cum_weights = list(accumulate(weights))
    values = list(range(n_values))

    sets: list[frozenset[int]] = []
    for _ in range(n_instructions):
        chosen: set[int] = set()
        while len(chosen) < operands_per_instr:
            chosen.add(rng.choices(values, cum_weights=cum_weights)[0])
        sets.append(frozenset(chosen))
    return sets


def clustered_instructions(
    n_clusters: int,
    values_per_cluster: int,
    instructions_per_cluster: int,
    shared_values: int,
    operands_per_instr: int,
    seed: int = 0,
) -> list[frozenset[int]]:
    """Workload with per-region value clusters plus globally shared
    values — the structure that separates STOR1/STOR2/STOR3: shared
    values conflict across clusters, locals only within their own."""
    rng = random.Random(seed)
    shared = list(range(shared_values))
    sets: list[frozenset[int]] = []
    for c in range(n_clusters):
        base = shared_values + c * values_per_cluster
        locals_ = list(range(base, base + values_per_cluster))
        for _ in range(instructions_per_cluster):
            n_shared = rng.randint(1, min(2, operands_per_instr - 1))
            chosen = set(rng.sample(shared, n_shared)) if shared else set()
            while len(chosen) < operands_per_instr:
                chosen.add(rng.choice(locals_))
            sets.append(frozenset(chosen))
    return sets


def crown_graph_instructions(n: int) -> list[frozenset[int]]:
    """Pairwise conflicts forming the crown graph S_n^0 (complete
    bipartite K_{n,n} minus a perfect matching) — the classic adversary
    for ordering-based colouring heuristics (2-colourable, but bad
    orders need many colours)."""
    sets = []
    for i in range(n):
        for j in range(n):
            if i != j:
                sets.append(frozenset({i, n + j}))
    return sets


def greedy_hitting_adversary(m: int) -> list[frozenset[int]]:
    """A family on which one-shot occurrence-count heuristics overshoot.

    Universe: ``a`` and ``b`` hit everything between them in two picks;
    decoys ``d_1..d_m`` each hit many small sets, luring count-greedy
    choices.  Derived from the classic H_m-tightness construction for
    greedy covering (paper §2.2.2.1 quotes the same bound).
    """
    sets: list[frozenset[int]] = []
    next_id = 2 + m  # 0 = a, 1 = b, 2..m+1 = decoys
    for i in range(m):
        decoy = 2 + i
        # Each decoy co-occurs with a in several sets and with b in one.
        for _ in range(m - i):
            filler = next_id
            next_id += 1
            sets.append(frozenset({0, decoy, filler}))
        sets.append(frozenset({1, decoy}))
    return sets


def region_stream(
    sets: Sequence[frozenset[int]], n_regions: int
) -> list[list[frozenset[int]]]:
    """Split a workload into equal consecutive regions."""
    if n_regions < 1:
        raise ValueError("n_regions must be >= 1")
    chunk = max(1, -(-len(sets) // n_regions))
    return [list(sets[i : i + chunk]) for i in range(0, len(sets), chunk)]
