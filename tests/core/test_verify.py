"""Unit and property tests for SDR-based conflict checks."""

import itertools

from hypothesis import given, strategies as st

from repro.core import (
    Allocation,
    find_sdr,
    instruction_conflict_free,
    sdr_exists,
    verify_allocation,
)


def test_sdr_simple():
    assert find_sdr([{0}, {1}, {2}]) == [0, 1, 2]


def test_sdr_requires_distinct():
    assert find_sdr([{0}, {0}]) is None


def test_sdr_augmenting_path():
    # greedy would give set0 -> 0, blocking set1; matching must reroute
    sdr = find_sdr([{0, 1}, {0}])
    assert sdr == [1, 0]


def test_sdr_empty_set_fails():
    assert find_sdr([{0}, set()]) is None


def test_sdr_empty_family():
    assert find_sdr([]) == []


def test_sdr_hall_violation():
    # three sets within a union of two modules
    assert find_sdr([{0, 1}, {0, 1}, {0, 1}]) is None


@given(
    st.lists(
        st.frozensets(st.integers(0, 5), min_size=1, max_size=4),
        min_size=1,
        max_size=6,
    )
)
def test_sdr_matches_brute_force(sets):
    brute = any(
        len(set(pick)) == len(sets)
        for pick in itertools.product(*[sorted(s) for s in sets])
    )
    assert sdr_exists(sets) == brute


@given(
    st.lists(
        st.frozensets(st.integers(0, 4), min_size=1, max_size=3),
        min_size=1,
        max_size=6,
    )
)
def test_sdr_result_is_valid(sets):
    sdr = find_sdr(sets)
    if sdr is not None:
        assert len(set(sdr)) == len(sets)
        for m, s in zip(sdr, sets):
            assert m in s


def test_instruction_conflict_free_uses_copies():
    alloc = Allocation(3)
    alloc.add_copy(1, 0)
    alloc.add_copy(2, 0)
    assert not instruction_conflict_free({1, 2}, alloc)
    alloc.add_copy(2, 1)
    assert instruction_conflict_free({1, 2}, alloc)


def test_unplaced_operand_is_conflict():
    alloc = Allocation(3)
    alloc.add_copy(1, 0)
    assert not instruction_conflict_free({1, 99}, alloc)


def test_verify_allocation_end_to_end():
    alloc = Allocation(3)
    for v, m in [(1, 0), (2, 1), (3, 0), (4, 2), (5, 2)]:
        alloc.add_copy(v, m)
    sets = [{1, 2, 4}, {2, 3, 5}, {2, 3, 4}]
    assert verify_allocation(sets, alloc)
    assert not verify_allocation(sets + [{1, 3}], alloc)
