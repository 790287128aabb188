"""Unit and property tests for the Fig. 2 overall driver."""

from hypothesis import given, settings, strategies as st

from repro.core import (
    Allocation,
    assign_modules,
    verify_allocation,
)
from repro.core.assign import _place_pinned
from repro.core.verify import ConflictIndex


def test_conflict_free_instance_needs_no_copies():
    sets = [{1, 2, 4}, {2, 3, 5}, {2, 3, 4}]
    res = assign_modules(sets, 3)
    assert res.allocation.extra_copies == 0
    assert res.stats.conflict_free
    assert res.stats.colored == 5
    assert res.stats.removed == 0


def test_methods_both_conflict_free():
    sets = [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}, {1, 2, 5}, {3, 4, 5}]
    for method in ("hitting_set", "backtrack"):
        res = assign_modules(sets, 3, method=method)
        assert verify_allocation(sets, res.allocation), method


def test_unknown_method_rejected():
    import pytest

    with pytest.raises(ValueError):
        assign_modules([{1, 2}], 2, method="magic")


def test_non_duplicable_value_pinned():
    # force 1 to be unremovable and uncolourable: K4 with k=3
    sets = [{1, 2, 3, 4} if False else s for s in []]
    sets = [{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}]  # K4
    res = assign_modules(sets, 3, duplicable={2, 3, 4})
    # someone was removed; if it was 1, it must be pinned single-copy
    for v in res.stats.pinned:
        assert res.allocation.copy_count(v) == 1


#: Pinned placement where weights and row counts disagree: p (0) reads
#: a (1) at module 0 in a row run 10 times, and b (2) and c (3) at
#: module 1 in two rows run once each.
PINNED_ROWS = [{0, 1}, {0, 2}, {0, 3}]
PINNED_WEIGHTS = [10, 1, 1]


def _pinned_initial() -> Allocation:
    initial = Allocation(2)
    for value, module in ((1, 0), (2, 1), (3, 1)):
        initial.add_copy(value, module)
    return initial


def test_place_pinned_weighs_rows_by_execution_count():
    # Module 0 costs weight 10 in one row, module 1 weight 2 in two
    # rows: the weighted rule picks 1, plain row counts would pick 0.
    alloc = _pinned_initial()
    _place_pinned(0, alloc, ConflictIndex(PINNED_ROWS, PINNED_WEIGHTS))
    assert alloc.modules(0) == {1}


def test_profiled_assignment_pins_by_execution_count():
    res = assign_modules(
        PINNED_ROWS, 2, duplicable=set(), initial=_pinned_initial(),
        weights=PINNED_WEIGHTS,
    )
    assert res.stats.pinned == [0]
    assert res.allocation.modules(0) == {1}
    assert res.stats.residual_instructions == [
        frozenset({0, 2}), frozenset({0, 3})
    ]


def test_residuals_reported_when_unfixable():
    # K3 with k=2 and nothing duplicable: a conflict must remain
    sets = [{1, 2}, {1, 3}, {2, 3}, {1, 2, 3} - {1}]
    sets = [{1, 2, 3}]
    res = assign_modules(sets, 2, duplicable=set())
    assert res.stats.residual_instructions
    assert not res.stats.conflict_free


def test_all_values_completed():
    res = assign_modules([{1, 2}], 4, all_values=[1, 2, 7, 8])
    for v in (1, 2, 7, 8):
        assert res.allocation.is_placed(v)


def test_initial_allocation_preserved():
    initial = Allocation(3)
    initial.add_copy(1, 2)
    res = assign_modules([{1, 2}], 3, initial=initial)
    assert 2 in res.allocation.modules(1)
    assert res.allocation.modules(2) != res.allocation.modules(1)


def test_initial_multi_copy_value_flexible():
    initial = Allocation(3)
    initial.add_copy(1, 0)
    initial.add_copy(1, 1)
    sets = [{1, 2}, {1, 3}]
    res = assign_modules(sets, 3, initial=initial)
    assert verify_allocation(sets, res.allocation)
    assert res.allocation.modules(1) >= {0, 1}


def test_cross_phase_clash_repaired_by_duplication():
    initial = Allocation(3)
    initial.add_copy(1, 0)
    initial.add_copy(2, 0)  # same module, and they now co-occur
    sets = [{1, 2}]
    res = assign_modules(sets, 3, initial=initial)
    assert verify_allocation(sets, res.allocation)


@st.composite
def workloads(draw):
    k = draw(st.integers(2, 6))
    n_instr = draw(st.integers(1, 14))
    sets = [
        draw(st.frozensets(st.integers(0, 11), min_size=1, max_size=k))
        for _ in range(n_instr)
    ]
    return sets, k


@settings(max_examples=80, deadline=None)
@given(workloads(), st.sampled_from(["hitting_set", "backtrack"]))
def test_assign_always_conflict_free_when_duplicable(workload, method):
    sets, k = workload
    res = assign_modules(sets, k, method=method)
    assert verify_allocation(sets, res.allocation)
    assert res.stats.conflict_free


@settings(max_examples=50, deadline=None)
@given(workloads())
def test_stats_consistent(workload):
    sets, k = workload
    res = assign_modules(sets, k)
    values = set().union(*map(frozenset, sets)) if sets else set()
    assert res.stats.num_values == len(values)
    assert res.stats.colored + res.stats.removed >= len(values)
    for v in values:
        assert res.allocation.is_placed(v)


@settings(max_examples=40, deadline=None)
@given(workloads())
def test_assign_deterministic(workload):
    sets, k = workload
    a = assign_modules(sets, k, tie_break="first")
    b = assign_modules(sets, k, tie_break="first")
    assert a.allocation.as_dict() == b.allocation.as_dict()


@settings(max_examples=40, deadline=None)
@given(workloads(), st.integers(0, 3))
def test_seeded_random_tie_break_reproducible(workload, seed):
    sets, k = workload
    a = assign_modules(sets, k, seed=seed)
    b = assign_modules(sets, k, seed=seed)
    assert a.allocation.as_dict() == b.allocation.as_dict()
