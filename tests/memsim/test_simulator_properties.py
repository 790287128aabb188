"""Property tests for the memory simulator's Δ-model invariants."""

from hypothesis import example, given, settings, strategies as st

from repro.core import Allocation
from repro.liw.executor import AccessEvent, ArrayTouch
from repro.memsim import InterleavedLayout, MemorySimulator
from repro.memsim.interleave import LayoutSpec, PlannedLayout

K = 4
ARRAYS = ["a", "b"]


@st.composite
def allocations(draw):
    alloc = Allocation(K)
    n_values = draw(st.integers(1, 8))
    for v in range(n_values):
        mods = draw(
            st.frozensets(st.integers(0, K - 1), min_size=1, max_size=K)
        )
        for m in sorted(mods):
            alloc.add_copy(v, m)
    return alloc


@st.composite
def events(draw, n_values):
    sources = draw(
        st.frozensets(st.integers(0, n_values - 1), max_size=4)
    )
    dests = draw(st.frozensets(st.integers(0, n_values - 1), max_size=2))
    touches = tuple(
        ArrayTouch(
            draw(st.sampled_from(ARRAYS)),
            draw(st.integers(0, 15)),
            draw(st.booleans()),
        )
        for _ in range(draw(st.integers(0, 3)))
    )
    return AccessEvent(sources, touches, dests)


@st.composite
def traffic(draw):
    alloc = draw(allocations())
    n_values = len(alloc.values())
    evs = [draw(events(n_values)) for _ in range(draw(st.integers(1, 10)))]
    return alloc, evs


def _interleaving_beats_t_max():
    """Values 0-2 in module 0 and 3 in module 3; two words each write a
    value and touch the element of ``a`` in the same module.  t_actual
    is 4 while stacking every array in one module gives at most 3."""
    alloc = Allocation(K)
    for v, m in ((0, 0), (1, 0), (2, 0), (3, 3)):
        alloc.add_copy(v, m)
    evs = [
        AccessEvent(frozenset(), (ArrayTouch("a", v, True),), frozenset({v}))
        for v in (0, 3)
    ]
    return alloc, evs


def _all_in_module(m):
    return PlannedLayout(ARRAYS, K, {a: LayoutSpec("module", m) for a in ARRAYS})


def _run(alloc, layout, evs):
    sim = MemorySimulator(alloc, layout, K)
    for e in evs:
        sim(e)
    return sim.report()


@settings(max_examples=80, deadline=None)
@given(traffic())
@example(_interleaving_beats_t_max())
def test_ordering_invariant_on_random_traffic(drawn):
    """t_max is the paper's "all arrays in one module": the worst of the
    k runs that pin every array to one module.  An interleaved layout
    can do worse than that, so t_actual is not bounded by it."""
    alloc, evs = drawn
    report = _run(alloc, InterleavedLayout(ARRAYS, K), evs)
    assert report.t_min <= report.t_ave + 1e-9
    assert report.t_ave <= report.t_max + 1e-9
    assert report.t_min <= report.t_actual + 1e-9
    assert report.t_max == max(
        _run(alloc, _all_in_module(m), evs).t_actual for m in range(K)
    )
    assert report.actual_conflict_instructions <= report.transfer_instructions
    assert report.transfer_instructions <= report.instructions


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_times_scale_with_delta(data):
    alloc = data.draw(allocations())
    n_values = len(alloc.values())
    evs = [
        data.draw(events(n_values))
        for _ in range(data.draw(st.integers(1, 6)))
    ]
    sim1 = MemorySimulator(alloc, InterleavedLayout(ARRAYS, K), K, delta=1.0)
    sim3 = MemorySimulator(alloc, InterleavedLayout(ARRAYS, K), K, delta=3.0)
    for e in evs:
        sim1(e)
        sim3(e)
    r1, r3 = sim1.report(), sim3.report()
    assert abs(r3.t_actual - 3 * r1.t_actual) < 1e-6
    assert abs(r3.t_ave - 3 * r1.t_ave) < 1e-6
    assert abs(r3.max_ratio - r1.max_ratio) < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_transfer_accesses_add_load(data):
    alloc = data.draw(allocations())
    if alloc.copy_count(0) < 2:
        return
    src = alloc.primary(0)
    dst = next(m for m in alloc.modules(0) if m != src)
    base = AccessEvent(frozenset(), (), frozenset())
    with_xfer = AccessEvent(frozenset(), (), frozenset(), ((0, src, dst),))
    sim = MemorySimulator(
        alloc, InterleavedLayout(ARRAYS, K), K, eager_copies=False
    )
    sim(base)
    t0 = sim.report().t_actual
    sim(with_xfer)
    t1 = sim.report().t_actual
    assert t1 >= t0 + 1.0  # the transfer costs at least one Δ


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_eager_writes_never_cheaper_than_primary_only(data):
    alloc = data.draw(allocations())
    n_values = len(alloc.values())
    evs = [
        data.draw(events(n_values))
        for _ in range(data.draw(st.integers(1, 6)))
    ]
    eager = MemorySimulator(alloc, InterleavedLayout(ARRAYS, K), K)
    primary = MemorySimulator(
        alloc, InterleavedLayout(ARRAYS, K), K, eager_copies=False
    )
    for e in evs:
        eager(e)
        primary(e)
    assert primary.report().t_actual <= eager.report().t_actual + 1e-9
