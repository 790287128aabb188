"""Differential fuzzing: bitset kernels vs the frozen set-based reference.

The mask-based ports in :mod:`repro.core` are required to be
*byte-identical* to the original implementations retained in
:mod:`repro.core.reference` — same allocations, same histories (copy
creation order), same colouring traces, same rng draw sequences — not
merely "also conflict-free".  These tests compare the two stacks,
kernel by kernel and end to end, over several hundred seeded random
programs.
"""

import random

import pytest

from repro.core import (
    Allocation,
    ConflictGraph,
    assign_modules,
    backtrack_duplication,
    color_graph,
    decompose_atoms,
    greedy_hitting_set,
    paper_hitting_set,
    place_copies,
)
from repro.core.duplication import hitting_set_duplication
from repro.core.reference import (
    ReferenceConflictGraph,
    reference_assign_modules,
    reference_backtrack_duplication,
    reference_color_graph,
    reference_decompose_atoms,
    reference_greedy_hitting_set,
    reference_hitting_set_duplication,
    reference_paper_hitting_set,
    reference_place_copies,
)


def random_operand_sets(seed: int, max_values: int = 24,
                        max_instructions: int = 20,
                        max_width: int = 5) -> list[frozenset[int]]:
    """A random 'program' for the allocation phase: per-instruction
    operand sets over a small value universe."""
    rng = random.Random(seed)
    n_values = rng.randint(2, max_values)
    n_instr = rng.randint(1, max_instructions)
    sets = []
    for _ in range(n_instr):
        width = rng.randint(1, min(max_width, n_values))
        sets.append(frozenset(rng.sample(range(n_values), width)))
    return sets


def assert_allocs_equal(got: Allocation, want: Allocation, ctx) -> None:
    assert got.as_dict() == want.as_dict(), ctx
    assert got.history == want.history, ctx


# --------------------------------------------------------------------------
# Kernel-level comparisons
# --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(50))
def test_conflict_graph_matches_reference(seed):
    sets = random_operand_sets(seed)
    live = ConflictGraph.from_operand_sets(sets)
    ref = ReferenceConflictGraph.from_operand_sets(sets)

    assert live.nodes == ref.nodes
    assert sorted(live.edges()) == sorted(ref.edges())
    assert live.num_edges == ref.num_edges
    for u, v in ref.edges():
        assert live.conflict_count(u, v) == ref.conflict_count(u, v)
        assert live.has_edge(u, v) and live.has_edge(v, u)
    for v in ref.nodes:
        assert live.degree(v) == ref.degree(v)
        assert live.neighbors(v) == ref.neighbors(v)
    assert live.components() == ref.components()

    rng = random.Random(seed ^ 0xBEEF)
    nodes = sorted(ref.nodes)
    probe = rng.sample(nodes, min(4, len(nodes)))
    assert live.is_clique(probe) == ref.is_clique(probe)
    keep = rng.sample(nodes, rng.randint(1, len(nodes)))
    assert sorted(live.subgraph(keep).edges()) == sorted(
        ref.subgraph(keep).edges()
    )


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("k", [2, 4])
def test_weighted_conflict_graph_matches_reference(seed, k):
    sets = random_operand_sets(seed, max_values=12, max_instructions=10)
    rng = random.Random(seed * 31 + k)
    weights = [rng.randint(0, 3) for _ in sets]
    live = ConflictGraph.from_operand_sets(sets, weights)
    ref = ReferenceConflictGraph.from_operand_sets(sets, weights)
    assert live.nodes == ref.nodes
    assert sorted(live.edges()) == sorted(ref.edges())
    for u, v in ref.edges():
        assert live.conflict_count(u, v) == ref.conflict_count(u, v)


def _normalized_trace(trace):
    """Preassigned steps commute (their state updates are sums/unions),
    and their order within an atom follows ``set`` iteration of the
    atom's node set — an implementation detail that differs between the
    two graph classes.  Order them canonically; every *decision* step
    must match exactly, in sequence."""
    pre = sorted(
        (s.node, s.module) for s in trace if s.action == "preassigned"
    )
    rest = [s for s in trace if s.action != "preassigned"]
    return pre, rest


@pytest.mark.parametrize("seed", range(60))
@pytest.mark.parametrize("k", [2, 3, 4])
def test_coloring_matches_reference(seed, k):
    sets = random_operand_sets(seed)
    live = color_graph(ConflictGraph.from_operand_sets(sets), k)
    ref = reference_color_graph(
        ReferenceConflictGraph.from_operand_sets(sets), k
    )
    assert live.assignment == ref.assignment, (seed, k)
    assert live.unassigned == ref.unassigned, (seed, k)
    assert _normalized_trace(live.trace) == _normalized_trace(ref.trace), (
        seed,
        k,
    )
    assert live.num_atoms == ref.num_atoms, (seed, k)


def clique_tree_sets(
    seed: int, n_values: int
) -> tuple[list[frozenset[int]], list[int] | None]:
    """Operand sets (and weights, or None) of a graph of ``n_values``
    values built as a tree of small blocks glued at clique separators,
    the shape of the generated programs' conflict graphs: dozens of
    atoms, with one- and two-vertex separators often shared by three or
    more blocks.  A block is one instruction (a clique) or a cycle of
    two-operand instructions (an atom that is not a clique).  Ids are
    shuffled, so decomposition order and id order disagree."""
    rng = random.Random(seed)
    ids = list(range(n_values))
    rng.shuffle(ids)
    sets: list[frozenset[int]] = []

    def block(shared: list[int]) -> list[int]:
        take = min(rng.randint(1, 4), len(ids))
        nodes = shared + [ids.pop() for _ in range(take)]
        if len(nodes) >= 4 and rng.random() < 0.3:
            sets.extend(
                frozenset({nodes[i], nodes[(i + 1) % len(nodes)]})
                for i in range(len(nodes))
            )
        else:
            sets.append(frozenset(nodes))
        return nodes

    blocks = [block([])]
    while ids:
        parent = rng.choice(blocks)
        i = rng.randrange(len(parent))
        # Consecutive nodes of a block are adjacent in both block kinds.
        sep = parent[i:i + 1] if rng.random() < 0.5 else [
            parent[i], parent[(i + 1) % len(parent)]
        ]
        for _ in range(rng.choice([1, 1, 3, 4])):
            if ids:
                blocks.append(block(sep))
    sets += rng.sample(sets, len(sets) // 5)  # repeated rows
    if seed % 2:
        return sets, [rng.randint(1, 3) for _ in sets]
    return sets, None


def _scale_options(seed: int, nodes: list[int], k: int) -> dict:
    """``preassigned`` (some of it clashing), ``prefer`` and
    ``module_choice`` inputs for one row."""
    rng = random.Random(seed * 7 + k)
    kind = seed % 4
    options: dict = {}
    if kind in (1, 3):
        options["preassigned"] = {
            v: rng.randrange(k) for v in rng.sample(nodes, len(nodes) // 10)
        }
    if kind in (2, 3):
        options["prefer"] = set(rng.sample(nodes, len(nodes) // 6))
    if kind == 3:
        options["module_choice"] = "least_used"
    return options


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("k", [3, 4, 8])
def test_coloring_matches_reference_at_scale(seed, k):
    """150-290 values, dozens of atoms, shared separators, and
    ``preassigned``/``prefer``/``least_used`` inputs: the colouring and
    the decomposition equal the reference's."""
    sets, weights = clique_tree_sets(seed, 150 + 20 * seed)
    live_graph = ConflictGraph.from_operand_sets(sets, weights)
    ref_graph = ReferenceConflictGraph.from_operand_sets(sets, weights)

    dec = decompose_atoms(live_graph)
    ref_atoms, ref_separators = reference_decompose_atoms(ref_graph)
    ids_of = live_graph.kernel().index.ids_of
    assert [ids_of(m) for m in dec.masks] == [
        sorted(a.nodes) for a in ref_atoms
    ]
    assert dec.separators == ref_separators
    assert len(ref_atoms) >= 24
    assert any(
        sum(sep <= a.nodes for a in ref_atoms) >= 3
        for sep in ref_separators
        if sep
    )

    options = _scale_options(seed, sorted(ref_graph.nodes), k)
    live = color_graph(live_graph, k, **options)
    ref = reference_color_graph(ref_graph, k, **options)
    assert live.assignment == ref.assignment
    assert live.unassigned == ref.unassigned
    assert _normalized_trace(live.trace) == _normalized_trace(ref.trace)
    assert live.num_atoms == ref.num_atoms


@pytest.mark.parametrize("seed", range(40))
def test_hitting_sets_match_reference(seed):
    rng = random.Random(seed + 7000)
    k = rng.randint(2, 6)
    families = [
        frozenset(
            rng.sample(range(12), rng.randint(1, k))
        )
        for _ in range(rng.randint(1, 15))
    ]
    assert paper_hitting_set(families, k) == reference_paper_hitting_set(
        families, k
    )
    assert greedy_hitting_set(families) == reference_greedy_hitting_set(
        families
    )


def _colored_alloc(sets, k):
    """A starting allocation + removal list shared by both stacks."""
    coloring = color_graph(ConflictGraph.from_operand_sets(sets), k)
    alloc = Allocation(k)
    for v, m in coloring.assignment.items():
        alloc.add_copy(v, m)
    return alloc, coloring.unassigned


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("k", [2, 4])
def test_backtrack_matches_reference(seed, k):
    sets = random_operand_sets(seed)
    alloc, unassigned = _colored_alloc(sets, k)
    live_alloc, ref_alloc = alloc.copy(), alloc.copy()
    live = backtrack_duplication(
        sets, live_alloc, unassigned, random.Random(seed)
    )
    ref = reference_backtrack_duplication(
        sets, ref_alloc, unassigned, random.Random(seed)
    )
    assert_allocs_equal(live_alloc, ref_alloc, (seed, k))
    assert live.instructions_processed == ref.instructions_processed
    assert live.copies_created == ref.copies_created
    assert live.unreferenced_placed == ref.unreferenced_placed
    assert live.residual_instructions == ref.residual_instructions
    # placements_enumerated intentionally differs: the live kernel
    # prunes cost-dominated branches the reference walks in full.
    assert live.placements_enumerated <= ref.placements_enumerated


@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("k", [2, 4])
def test_place_copies_matches_reference(seed, k):
    sets = random_operand_sets(seed)
    alloc, unassigned = _colored_alloc(sets, k)
    if not unassigned:
        return
    duplicable = {v for s in sets for v in s}
    live_alloc, ref_alloc = alloc.copy(), alloc.copy()
    place_copies(unassigned, live_alloc, sets, duplicable,
                 random.Random(seed))
    reference_place_copies(unassigned, ref_alloc, sets, duplicable,
                           random.Random(seed))
    assert_allocs_equal(live_alloc, ref_alloc, (seed, k))


@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("k", [2, 4])
def test_hitting_set_duplication_matches_reference(seed, k):
    sets = random_operand_sets(seed)
    alloc, unassigned = _colored_alloc(sets, k)
    duplicable = {v for s in sets for v in s}
    live_alloc, ref_alloc = alloc.copy(), alloc.copy()
    live = hitting_set_duplication(
        sets, live_alloc, unassigned, duplicable, random.Random(seed)
    )
    ref = reference_hitting_set_duplication(
        sets, ref_alloc, unassigned, duplicable, random.Random(seed)
    )
    assert_allocs_equal(live_alloc, ref_alloc, (seed, k))
    assert live.copies_created == ref.copies_created
    assert live.rounds_per_size == ref.rounds_per_size
    assert live.residual_combos == ref.residual_combos
    assert live.unreferenced_placed == ref.unreferenced_placed


# --------------------------------------------------------------------------
# End-to-end: the full assignment pipeline, both duplication methods
# --------------------------------------------------------------------------


def program_variants(plain: int, varied: int) -> list:
    """``(seed, variant)`` inputs: ``plain`` seeds as they are, and
    ``varied`` seeds each with a ``pinned`` and a ``repeated`` variant
    (see :func:`variant_program`)."""
    return [pytest.param(s, "plain", id=str(s)) for s in range(plain)] + [
        pytest.param(s, variant, id=f"{variant}{s}")
        for variant in ("pinned", "repeated")
        for s in range(varied)
    ]


def variant_program(seed: int, variant: str, **shape):
    """A random program and its duplicable set (None: every value).

    ``pinned`` lets only a seeded sample of at most half the values be
    duplicated, so removed values often take the single-copy pinned
    placement; ``repeated`` appends a seeded sample of the program's own
    rows."""
    sets = random_operand_sets(seed, **shape)
    rng = random.Random(seed ^ 0x5EED)
    duplicable = None
    if variant == "pinned":
        values = sorted({v for s in sets for v in s})
        duplicable = set(rng.sample(values, rng.randint(0, len(values) // 2)))
    elif variant == "repeated":
        sets += rng.choices(sets, k=len(sets))
    return sets, duplicable


@pytest.mark.parametrize(("seed", "variant"), program_variants(50, 25))
@pytest.mark.parametrize("method", ["hitting_set", "backtrack"])
@pytest.mark.parametrize("k", [3, 8])
def test_assign_modules_matches_reference(seed, variant, method, k):
    sets, duplicable = variant_program(seed, variant)
    live = assign_modules(
        sets, k, method=method, duplicable=duplicable, seed=seed
    )
    ref = reference_assign_modules(
        sets, k, method=method, duplicable=duplicable, seed=seed
    )
    assert_allocs_equal(
        live.allocation, ref.allocation, (seed, variant, method, k)
    )
    assert live.coloring.assignment == ref.coloring.assignment
    assert live.coloring.unassigned == ref.coloring.unassigned
    assert live.stats == ref.stats, (seed, variant, method, k)


@pytest.mark.parametrize(("seed", "variant"), program_variants(20, 10))
def test_assign_modules_weighted_matches_reference(seed, variant):
    sets, duplicable = variant_program(
        seed, variant, max_values=14, max_instructions=12
    )
    rng = random.Random(seed * 13 + 5)
    weights = [rng.randint(0, 4) for _ in sets]
    live = assign_modules(
        sets, 4, duplicable=duplicable, seed=seed, weights=weights
    )
    ref = reference_assign_modules(
        sets, 4, duplicable=duplicable, seed=seed, weights=weights
    )
    assert_allocs_equal(live.allocation, ref.allocation, seed)
    assert live.stats == ref.stats


@pytest.mark.parametrize("seed", range(15))
def test_assign_modules_with_initial_matches_reference(seed):
    """Cross-phase composition (STOR2/3 shape): an earlier-phase
    allocation with single- and multi-copy values is imported by both
    stacks identically."""
    k = 4
    sets = random_operand_sets(seed, max_values=16)
    values = sorted({v for s in sets for v in s})
    rng = random.Random(seed + 99)
    initial = Allocation(k)
    for v in values[: len(values) // 2]:
        mods = rng.sample(range(k), rng.randint(1, 2))
        for m in mods:
            initial.add_copy(v, m)
    live = assign_modules(sets, k, initial=initial, seed=seed)
    ref = reference_assign_modules(sets, k, initial=initial, seed=seed)
    assert_allocs_equal(live.allocation, ref.allocation, seed)
    assert live.stats == ref.stats
