"""The array-layout cost model against its frozen per-call reference.

The live model prices each word once per placement of its arrays and
enumerates group shifts by summing shifted load rows; the reference in
``tests/reference.py`` re-prices every word on every trial and rebuilds
the load list per shift combination.  Their costs, searches and totals
must agree bit for bit.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.allocation import Allocation
from repro.core.arrayaccess import (
    AccessProfile,
    AffineExpr,
    ArrayRef,
    BlockProfile,
    LiwProfile,
)
from repro.core.arraylayout import (
    _MAX_COMBOS,
    _CostModel,
    _candidate_specs,
    _canonical,
    _exact_cost,
    _sampled_cost,
    _search_layouts,
)
from tests.reference import (
    ReferenceCostModel,
    reference_liw_cost,
    reference_search_layouts,
)

KS = (2, 3, 4, 8)


@st.composite
def word_shapes(draw, sampled: bool):
    """(k, vec, exact hits, groups), on the exact path or past it."""
    k = draw(st.sampled_from(KS))
    most = 1
    while k ** (most + 1) <= _MAX_COMBOS:
        most += 1
    if sampled:
        n_groups = draw(st.integers(most + 1, most + 3))
    else:
        n_groups = draw(st.integers(0, most))
    residue = st.integers(0, k - 1)
    vec = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    exact = draw(st.lists(residue, max_size=4))
    groups = draw(
        st.lists(
            st.lists(residue, min_size=1, max_size=4),
            min_size=n_groups, max_size=n_groups,
        )
    )
    return k, vec, exact, groups


def _base(vec: list[int], exact: list[int]) -> list[int]:
    base = list(vec)
    for m in exact:
        base[m] += 1
    return base


def _memoized_exact(base: list[int], groups, k: int) -> float:
    """The model's exact cost, memoized by groups up to rotation, as
    a fresh model computes it."""
    model = _CostModel(AccessProfile(), Allocation(k), k, 0)
    return model._exact(base, [_canonical(group, k) for group in groups])


@settings(max_examples=300, deadline=None)
@given(word_shapes(sampled=False), st.data())
def test_exact_cost_equals_reference_and_ignores_rotation(shape, data):
    k, vec, exact, groups = shape
    expected = reference_liw_cost(vec, exact, groups, k, 0)
    base = _base(vec, exact)
    assert _exact_cost(base, groups, k) == expected
    assert _memoized_exact(base, groups, k) == expected
    if groups:
        i = data.draw(st.integers(0, len(groups) - 1))
        c = data.draw(st.integers(1, k))
        rotated = list(groups)
        rotated[i] = [(r + c) % k for r in groups[i]]
        # a rotation has the same memo key and the same cost
        assert _canonical(rotated[i], k) == _canonical(groups[i], k)
        assert _exact_cost(base, rotated, k) == expected
        assert _memoized_exact(base, rotated, k) == expected


@settings(max_examples=60, deadline=None)
@given(word_shapes(sampled=True), st.integers(0, 2**32 - 1))
def test_sampled_cost_equals_reference_for_the_same_seed(shape, seed):
    k, vec, exact, groups = shape
    assert k ** len(groups) > _MAX_COMBOS
    assert _sampled_cost(
        _base(vec, exact), groups, k, seed
    ) == reference_liw_cost(vec, exact, groups, k, seed)


# --------------------------------------------------------------------------
# Whole-profile searches
# --------------------------------------------------------------------------

ARRAYS = ("a", "b", "c")
SYMBOLS = ("v1", "v2")


def _random_expr(rng: random.Random) -> AffineExpr | None:
    roll = rng.random()
    if roll < 0.2:
        return None
    if roll < 0.4:
        return AffineExpr.constant(rng.randrange(12))
    symbols = rng.sample(SYMBOLS, rng.randint(1, 2))
    terms = tuple(sorted((s, rng.choice((1, 2))) for s in symbols))
    return AffineExpr(rng.randrange(-2, 6), terms)


def random_case(seed: int) -> tuple[AccessProfile, Allocation, int]:
    """A profile of a few blocks of random words over a random
    allocation; some words touch enough groups to be sampled."""
    rng = random.Random(seed)
    k = rng.choice(KS)
    alloc = Allocation(k)
    values = range(rng.randint(1, 10))
    for v in values:
        for m in rng.sample(range(k), rng.randint(1, min(2, k))):
            alloc.add_copy(v, m)
    profile = AccessProfile()
    for b in range(rng.randint(1, 3)):
        bp = BlockProfile(b, f"B{b}", rng.choice((1, 16)))
        for cycle in range(rng.randint(1, 6)):
            width = rng.choice((0, 1, 2, 3, 6))
            accesses = tuple(
                ArrayRef(rng.choice(ARRAYS), _random_expr(rng),
                         rng.random() < 0.3, -1)
                for _ in range(width)
            )
            scalars = [v for v in values if rng.random() < 0.3]
            dests = frozenset(v for v in scalars if rng.random() < 0.3)
            bp.liws.append(
                LiwProfile(cycle, frozenset(scalars) - dests, dests, accesses)
            )
        profile.blocks.append(bp)
    return profile, alloc, k


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_search_equals_reference(seed, model_seed):
    profile, alloc, k = random_case(seed)
    arrays = sorted(ARRAYS[: 1 + seed % 3])
    live = _CostModel(profile, alloc, k, model_seed)
    ref = ReferenceCostModel(profile, alloc, k, model_seed)
    assert _search_layouts(live, arrays, k) == reference_search_layouts(
        ref, arrays, k
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_totals_and_word_costs_equal_reference(seed):
    profile, alloc, k = random_case(seed)
    rng = random.Random(seed ^ 0x5EED)
    candidates = _candidate_specs(k)
    live = _CostModel(profile, alloc, k, seed % 5)
    ref = ReferenceCostModel(profile, alloc, k, seed % 5)
    for _ in range(3):
        # arrays left out fall back to interleaving at base 0
        specs = {
            a: rng.choice(candidates) for a in ARRAYS if rng.random() < 0.8
        }
        assert live.total(specs) == ref.total(specs)
        for b, bp in enumerate(profile.blocks):
            for lp in bp.liws:
                assert live.word_cost(b, lp, specs) == ref.word_cost(
                    b, lp, specs
                )


def test_random_profiles_reach_the_sampling_path():
    """Some random words have enough groups to be sampled, so the
    spec-keyed tables are exercised too."""
    sampled = 0
    for seed in range(40):
        profile, alloc, k = random_case(seed)
        sampled += len(_CostModel(profile, alloc, k, 0)._sampled)
    assert sampled > 0


def test_a_sampled_word_searches_like_the_reference():
    k = 8
    refs = tuple(ArrayRef("a", None, False, -1) for _ in range(4))
    profile = AccessProfile([BlockProfile(0, "B0", 16, [
        LiwProfile(0, frozenset(), frozenset(), refs),
    ])])
    live = _CostModel(profile, Allocation(k), k, 7)
    ref = ReferenceCostModel(profile, Allocation(k), k, 7)
    assert list(live._sampled) == [0]
    assert _search_layouts(live, ["a"], k) == reference_search_layouts(
        ref, ["a"], k
    )
