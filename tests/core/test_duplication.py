"""Unit and property tests for the Fig. 7 hitting-set duplication driver."""

from hypothesis import given, settings, strategies as st

from repro.core import (
    Allocation,
    ConflictGraph,
    color_graph,
    hitting_set_duplication,
    verify_allocation,
)


def run_hitting(sets, k, duplicable=None, tie_break="first"):
    sets = [frozenset(s) for s in sets]
    graph = ConflictGraph.from_operand_sets(sets)
    coloring = color_graph(graph, k)
    alloc = Allocation(k)
    for v, m in coloring.assignment.items():
        alloc.add_copy(v, m)
    if duplicable is None:
        duplicable = set(graph.nodes)
    stats = hitting_set_duplication(
        sets, alloc, coloring.unassigned, duplicable, tie_break=tie_break
    )
    return alloc, coloring, stats


def test_removed_values_get_at_least_two_copies():
    sets = [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}]
    alloc, coloring, _ = run_hitting(sets, 3)
    for v in coloring.unassigned:
        assert alloc.copy_count(v) >= 2


def test_colored_values_keep_single_copy():
    sets = [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}]
    alloc, coloring, _ = run_hitting(sets, 3)
    for v in coloring.assignment:
        assert alloc.copy_count(v) == 1


def test_paper_fig1_extension():
    sets = [{1, 2, 4}, {2, 3, 5}, {2, 3, 4}, {2, 4, 5}]
    alloc, _, _ = run_hitting(sets, 3)
    assert verify_allocation(sets, alloc)
    assert alloc.extra_copies == 1  # the paper duplicates exactly V5


def test_no_conflicts_no_copies():
    sets = [{1, 2}, {3, 4}]
    alloc, _, stats = run_hitting(sets, 2)
    assert stats.copies_created == 0
    assert alloc.extra_copies == 0


def test_pair_stage_repairs_preassigned_clash():
    # both values fixed in the same module by an earlier phase
    sets = [frozenset({1, 2})]
    alloc = Allocation(3)
    alloc.add_copy(1, 0)
    alloc.add_copy(2, 0)
    hitting_set_duplication(sets, alloc, [], {1, 2}, tie_break="first")
    assert verify_allocation(sets, alloc)


def test_residual_recorded_when_nothing_duplicable():
    sets = [frozenset({1, 2})]
    alloc = Allocation(3)
    alloc.add_copy(1, 0)
    alloc.add_copy(2, 0)
    stats = hitting_set_duplication(sets, alloc, [], set(), tie_break="first")
    assert stats.residual_combos == [frozenset({1, 2})]
    assert not verify_allocation(sets, alloc)


def test_rounds_tracked_per_size():
    sets = [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}]
    _, _, stats = run_hitting(sets, 3)
    assert set(stats.rounds_per_size) == {2, 3}


@st.composite
def workloads(draw):
    k = draw(st.integers(2, 5))
    n_instr = draw(st.integers(1, 12))
    sets = [
        draw(st.frozensets(st.integers(0, 9), min_size=2, max_size=k))
        for _ in range(n_instr)
    ]
    return sets, k


@settings(max_examples=80, deadline=None)
@given(workloads())
def test_hitting_always_conflict_free_when_all_duplicable(workload):
    sets, k = workload
    alloc, _, stats = run_hitting(sets, k)
    assert verify_allocation(sets, alloc)
    assert not stats.residual_combos


@settings(max_examples=40, deadline=None)
@given(workloads())
def test_copy_counts_within_k(workload):
    sets, k = workload
    alloc, _, _ = run_hitting(sets, k)
    for v in alloc.values():
        assert 1 <= alloc.copy_count(v) <= k


@settings(max_examples=40, deadline=None)
@given(workloads())
def test_deterministic_under_first_tie_break(workload):
    sets, k = workload
    a1, _, _ = run_hitting(sets, k, tie_break="first")
    a2, _, _ = run_hitting(sets, k, tie_break="first")
    assert a1.as_dict() == a2.as_dict()


# --------------------------------------------------------------------------
# Instruction dedup before combination enumeration
# --------------------------------------------------------------------------


def test_identical_instructions_dedupe_with_identical_residual_combos():
    """Repeating an instruction must not change the outcome: identical
    operand-set rows are collapsed before combination enumeration, and
    the residual combos equal the reference's (which expands every
    row).  A conflict that cannot be fixed (nothing duplicable) stays a
    single residual combo however many times its instruction repeats."""
    import random

    from repro.core.bitset import COUNTERS
    from tests.reference import reference_hitting_set_duplication

    k = 2
    repeats = [frozenset({1, 2})] * 5 + [frozenset({2, 3})]

    def fixed_alloc():
        alloc = Allocation(k)
        alloc.add_copy(1, 0)
        alloc.add_copy(2, 0)  # clashes with 1, and nothing may be copied
        alloc.add_copy(3, 1)
        return alloc

    live_alloc, ref_alloc = fixed_alloc(), fixed_alloc()
    before = COUNTERS.snapshot()
    live = hitting_set_duplication(
        repeats, live_alloc, [], set(), random.Random(0)
    )
    deduped = COUNTERS.delta_since(before)["instructions_deduped"]
    ref = reference_hitting_set_duplication(
        repeats, ref_alloc, [], set(), random.Random(0)
    )
    assert live.residual_combos == ref.residual_combos == [frozenset({1, 2})]
    assert live_alloc.as_dict() == ref_alloc.as_dict()
    # 4 of the 5 {1,2} rows were collapsed during combo enumeration.
    assert deduped >= 4


def test_duplicated_rows_score_like_their_multiplicity():
    """Fig. 10 placement on a program with repeated rows must pick the
    same modules as the reference, which scores every row separately
    (the live kernel scores distinct rows weighted by multiplicity)."""
    import random

    from tests.reference import reference_hitting_set_duplication

    k = 3
    sets = (
        [frozenset({1, 2, 3})] * 3
        + [frozenset({2, 3, 4})] * 2
        + [frozenset({1, 3, 4}), frozenset({1, 2, 4})]
    )
    graph = ConflictGraph.from_operand_sets(sets)
    coloring = color_graph(graph, k)
    duplicable = set(graph.nodes)

    def colored_alloc():
        alloc = Allocation(k)
        for v, m in coloring.assignment.items():
            alloc.add_copy(v, m)
        return alloc

    live_alloc, ref_alloc = colored_alloc(), colored_alloc()
    live = hitting_set_duplication(
        sets, live_alloc, coloring.unassigned, duplicable, random.Random(7)
    )
    ref = reference_hitting_set_duplication(
        sets, ref_alloc, coloring.unassigned, duplicable, random.Random(7)
    )
    assert live_alloc.as_dict() == ref_alloc.as_dict()
    assert live_alloc.history == ref_alloc.history
    assert live.residual_combos == ref.residual_combos
    assert verify_allocation(sets, live_alloc)
