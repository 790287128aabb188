"""Unit and integration tests for the memory simulator."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import MachineConfig, compile_source, simulate
from repro.core import Allocation
from repro.core.strategies import stor1
from repro.liw.executor import AccessEvent, ArrayTouch
from repro.memsim import (
    InterleavedLayout,
    MemorySimulator,
    ScalarLoadMemo,
    scalar_load_vector,
)


def event(sources=(), touches=(), dests=()):
    return AccessEvent(
        frozenset(sources),
        tuple(ArrayTouch(*t) for t in touches),
        frozenset(dests),
    )


def alloc_of(placements, k=4):
    alloc = Allocation(k)
    for v, mods in placements.items():
        for m in mods:
            alloc.add_copy(v, m)
    return alloc


class TestScalarLoadVector:
    def test_conflict_free_sdr(self):
        alloc = alloc_of({1: [0], 2: [1], 3: [2]})
        vec = scalar_load_vector(frozenset({1, 2, 3}), frozenset(), alloc, 4)
        assert sorted(vec) == [0, 1, 1, 1]

    def test_copies_allow_dodging(self):
        alloc = alloc_of({1: [0], 2: [0, 1]})
        vec = scalar_load_vector(frozenset({1, 2}), frozenset(), alloc, 4)
        assert max(vec) == 1

    def test_residual_conflict_serialises(self):
        alloc = alloc_of({1: [0], 2: [0]})
        vec = scalar_load_vector(frozenset({1, 2}), frozenset(), alloc, 4)
        assert vec[0] == 2

    def test_dest_writes_all_copies(self):
        alloc = alloc_of({1: [0, 2]})
        vec = scalar_load_vector(frozenset(), frozenset({1}), alloc, 4)
        assert vec[0] == 1 and vec[2] == 1

    def test_sources_avoid_dest_modules_when_possible(self):
        alloc = alloc_of({1: [0], 2: [0, 1]})
        vec = scalar_load_vector(frozenset({2}), frozenset({1}), alloc, 4)
        assert max(vec) == 1  # source 2 dodges to module 1

    def test_unplaced_operand_raises(self):
        alloc = alloc_of({})
        with pytest.raises(ValueError):
            scalar_load_vector(frozenset({9}), frozenset(), alloc, 4)


@st.composite
def load_memo_cases(draw):
    """An allocation, a write policy and operand sets, each with a twin
    that shares its module pattern.

    Each value's copies come from a small pool of module sets, placed in
    a drawn order, so that many values share a copy mask while their
    primaries differ.  A twin relabels its query's values among those
    with the same mask, which may reorder the sources' masks by value
    id.  One more value id may be left unplaced."""
    k = draw(st.integers(2, 8))
    pool = draw(st.lists(
        st.lists(st.integers(0, k - 1), min_size=1, max_size=3, unique=True),
        min_size=1, max_size=3,
    ))
    n = draw(st.integers(1, 10))
    alloc = Allocation(k)
    alike: dict[int, list[int]] = {}
    for v in range(n):
        for m in draw(st.permutations(draw(st.sampled_from(pool)))):
            alloc.add_copy(v, m)
        alike.setdefault(alloc.modules_mask(v), []).append(v)
    relabel = {n: n}
    for group in alike.values():
        relabel.update(zip(group, draw(st.permutations(group))))
    ids = st.integers(0, n - 1 + draw(st.integers(0, 1)))
    queries = draw(st.lists(
        st.tuples(st.frozensets(ids, max_size=4), st.frozensets(ids, max_size=3)),
        min_size=1, max_size=12,
    ))
    twins = [
        (frozenset(map(relabel.get, sources)), frozenset(map(relabel.get, dests)))
        for sources, dests in queries
    ]
    return alloc, k, draw(st.booleans()), queries + twins


def _outcome(price):
    try:
        return price()
    except ValueError as exc:
        return ("ValueError", str(exc))


_NONE = frozenset()


@settings(max_examples=300)
@given(load_memo_cases())
# Same source masks in the other value-id order: the matching differs.
@example((
    alloc_of({0: [0, 2], 1: [0, 1], 2: [0, 1], 3: [0, 2]}), 4, True,
    [(frozenset({0, 1}), _NONE), (frozenset({2, 3}), _NONE)],
))
# Same destination mask, other primary: writes differ without eager copies.
@example((
    alloc_of({0: [0, 1], 1: [1, 0]}), 4, False,
    [(_NONE, frozenset({0})), (_NONE, frozenset({1}))],
))
def test_scalar_load_memo_equals_plain_pricing(case):
    """Whatever operand sets share a module pattern, the memo answers
    each exactly as a fresh :func:`scalar_load_vector` call does,
    raising the same error for an unplaced operand."""
    alloc, k, eager, queries = case
    memo = ScalarLoadMemo(alloc, k, eager)
    for sources, dests in queries:
        assert _outcome(lambda: memo(sources, dests)) == _outcome(
            lambda: scalar_load_vector(sources, dests, alloc, k, eager)
        )


class TestSimulatorAccounting:
    def make(self, alloc=None, k=4):
        alloc = alloc or alloc_of({1: [0], 2: [1], 3: [2]}, k)
        layout = InterleavedLayout(["a"], k)
        return MemorySimulator(alloc, layout, k)

    def test_empty_event_costs_nothing(self):
        sim = self.make()
        sim(event())
        rep = sim.report()
        assert rep.instructions == 1
        assert rep.transfer_instructions == 0
        assert rep.t_actual == 0

    def test_conflict_free_scalar_event(self):
        sim = self.make()
        sim(event(sources={1, 2}))
        rep = sim.report()
        assert rep.t_actual == 1.0
        assert rep.t_min == 1.0
        assert rep.t_ave == 1.0
        assert rep.actual_conflict_instructions == 0

    def test_array_access_costs_counted(self):
        sim = self.make()
        sim(event(sources={1}, touches=[("a", 0, False)]))
        rep = sim.report()
        assert rep.array_accesses == 1
        # interleaved: a[0] -> module 0, same as scalar 1 -> pile-up 2
        assert rep.t_actual == 2.0
        # t_min steers the array access away -> 1
        assert rep.t_min == 1.0

    def test_t_max_stacks_arrays_on_worst_module(self):
        sim = self.make()
        sim(event(sources={1}, touches=[("a", 0, False), ("a", 1, False)]))
        rep = sim.report()
        assert rep.t_max == 3.0  # both arrays on top of scalar 1

    def test_ordering_invariant(self):
        sim = self.make()
        for i in range(6):
            sim(event(sources={1, 2}, touches=[("a", i, False)]))
        rep = sim.report()
        assert rep.t_min <= rep.t_ave <= rep.t_max
        assert rep.t_min <= rep.t_actual <= rep.t_max

    def test_scalar_conflicts_counted(self):
        alloc = alloc_of({1: [0], 2: [0]})
        sim = self.make(alloc)
        sim(event(sources={1, 2}))
        rep = sim.report()
        assert rep.scalar_conflict_instructions == 1


class TestEndToEnd:
    SRC = """
    program p;
    var i, s: int; a: array[32] of int;
    begin
      s := 0;
      for i := 0 to 31 do a[i] := i;
      for i := 0 to 31 do s := s + a[i];
      write(s)
    end.
    """

    def test_ratios_bracketed(self):
        prog = compile_source(self.SRC, MachineConfig(num_fus=4, num_modules=8))
        storage = stor1(prog.schedule, prog.renamed)
        res = simulate(prog, storage.allocation)
        m = res.memory
        assert res.outputs == [sum(range(32))]
        assert 1.0 <= m.ave_ratio <= m.max_ratio
        assert m.t_min <= m.t_actual <= m.t_max

    def test_single_module_layout_hits_t_max_regime(self):
        prog = compile_source(self.SRC, MachineConfig(num_fus=4, num_modules=8))
        storage = stor1(prog.schedule, prog.renamed)
        inter = simulate(prog, storage.allocation, layout="interleaved")
        single = simulate(prog, storage.allocation, layout="single")
        assert single.memory.t_actual >= inter.memory.t_actual
        assert single.memory.t_actual <= single.memory.t_max + 1e-9

    def test_delta_scales_times(self):
        prog = compile_source(self.SRC, MachineConfig(num_fus=2, num_modules=4))
        storage = stor1(prog.schedule, prog.renamed)
        d1 = simulate(prog, storage.allocation, delta=1.0)
        d2 = simulate(prog, storage.allocation, delta=2.0)
        assert d2.memory.t_min == pytest.approx(2 * d1.memory.t_min)
        assert d2.memory.ave_ratio == pytest.approx(d1.memory.ave_ratio)
