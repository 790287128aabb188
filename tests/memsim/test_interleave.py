"""Unit tests for array layouts."""

import pytest

from repro.memsim import (
    InterleavedLayout,
    LayoutSpec,
    PerArrayLayout,
    PlannedLayout,
    SingleModuleLayout,
    SkewedLayout,
    UnknownArrayError,
    digit_skew,
    make_layout,
    validate_layout_name,
)

ARRAYS = ["a", "b", "c"]


def test_interleaved_strides_across_modules():
    lay = InterleavedLayout(ARRAYS, 4)
    mods = [lay.module("a", i) for i in range(8)]
    assert mods == [0, 1, 2, 3, 0, 1, 2, 3]


def test_interleaved_base_offsets_differ_by_array():
    lay = InterleavedLayout(ARRAYS, 4)
    assert lay.module("a", 0) != lay.module("b", 0)


def test_single_module_everything_same():
    lay = SingleModuleLayout(ARRAYS, 4, module_index=2)
    assert {lay.module(a, i) for a in ARRAYS for i in range(10)} == {2}


def test_single_module_index_validated():
    with pytest.raises(ValueError):
        SingleModuleLayout(ARRAYS, 4, module_index=4)


def test_per_array_constant_per_array():
    lay = PerArrayLayout(ARRAYS, 2)
    assert len({lay.module("a", i) for i in range(5)}) == 1
    assert lay.module("a", 0) != lay.module("b", 0)


def test_skewed_differs_from_interleaved_on_k_stride():
    k = 4
    inter = InterleavedLayout(ARRAYS, k)
    skew = SkewedLayout(ARRAYS, k)
    # stride-k accesses: interleaved always hits one module, skewed moves
    inter_mods = {inter.module("a", i * k) for i in range(4)}
    skew_mods = {skew.module("a", i * k) for i in range(4)}
    assert len(inter_mods) == 1
    assert len(skew_mods) > 1


def test_unknown_array_rejected():
    lay = InterleavedLayout(ARRAYS, 4)
    with pytest.raises(KeyError):
        lay.module("zzz", 0)


def test_make_layout_factory():
    for name in ("interleaved", "single", "per_array", "skewed"):
        lay = make_layout(name, ARRAYS, 4)
        assert 0 <= lay.module("a", 3) < 4
    with pytest.raises(ValueError):
        make_layout("hashed", ARRAYS, 4)


def test_modules_always_in_range():
    for name in ("interleaved", "single", "per_array", "skewed"):
        lay = make_layout(name, ARRAYS, 3)
        for a in ARRAYS:
            for i in range(50):
                assert 0 <= lay.module(a, i) < 3


# -- digit-sum skew breaks every power-of-two stride -------------------------


def test_digit_skew_is_base_k_digit_sum():
    assert digit_skew(0, 8) == 0
    assert digit_skew(0o1234, 8) == 1 + 2 + 3 + 4
    assert digit_skew(0b1011, 2) == 3
    # degenerate bases must not loop or divide by zero
    assert digit_skew(17, 1) == 0
    assert digit_skew(17, 0) == 0
    # a negative index (a compile-time constant the run would reject)
    # still has a skew, so the layout search terminates on it
    assert digit_skew(-0o1234, 8) == 1 + 2 + 3 + 4


@pytest.mark.parametrize("k", [2, 4, 8])
@pytest.mark.parametrize("stride", [1, 2, 4, 8])
def test_skew_spreads_every_power_of_two_stride(k, stride):
    """The regression the digit-sum fix closes: the classic ``i + i//k``
    skew degenerates on strides that are multiples of k (e.g. k=2,
    stride 4), leaving all accesses in one module.  The digit-sum skew
    must hit more than one module for every (k, stride) combination."""
    lay = SkewedLayout(["a"], k)
    mods = {lay.module("a", j * stride) for j in range(32)}
    assert len(mods) > 1, (k, stride, mods)


def test_skew_is_a_permutation_per_block():
    """Within each aligned block of k consecutive elements the skew is a
    rotation — no module gets two of them (bandwidth is preserved)."""
    for k in (2, 4, 8):
        lay = SkewedLayout(["a"], k)
        for block in range(16):
            mods = [lay.module("a", block * k + i) for i in range(k)]
            assert sorted(mods) == list(range(k)), (k, block)


# -- central validation ------------------------------------------------------


def test_unknown_array_error_type():
    for name in ("interleaved", "single", "per_array", "skewed"):
        lay = make_layout(name, ARRAYS, 4)
        with pytest.raises(UnknownArrayError):
            lay.module("nope", 0)


def test_validate_layout_name_central():
    for name in ("interleaved", "single", "per_array", "skewed"):
        assert validate_layout_name(name) == name
    with pytest.raises(ValueError, match="unknown layout"):
        validate_layout_name("hashed")


def test_per_array_pinning_respected_and_validated():
    lay = PerArrayLayout(ARRAYS, 4, assignments={"b": 3})
    assert {lay.module("b", i) for i in range(6)} == {3}
    assert lay.module("a", 0) == 0  # unpinned: round-robin base
    with pytest.raises(ValueError, match="out of range"):
        PerArrayLayout(ARRAYS, 4, assignments={"a": 4})
    with pytest.raises(UnknownArrayError):
        PerArrayLayout(ARRAYS, 4, assignments={"zzz": 0})


def test_k_must_be_positive():
    with pytest.raises(ValueError):
        InterleavedLayout(ARRAYS, 0)


# -- parameterized layout specs (the optimizer's search space) ---------------


def test_layout_spec_validation():
    assert LayoutSpec("interleaved", 2).validate(4)
    with pytest.raises(ValueError, match="kind"):
        LayoutSpec("hashed", 0).validate(4)
    with pytest.raises(ValueError, match="out of range"):
        LayoutSpec("module", 4).validate(4)
    with pytest.raises(ValueError, match="out of range"):
        LayoutSpec("skewed", -1).validate(4)


def test_layout_spec_module_of():
    k = 4
    assert [LayoutSpec("interleaved", 1).module_of(i, k) for i in range(5)] \
        == [1, 2, 3, 0, 1]
    assert {LayoutSpec("module", 2).module_of(i, k) for i in range(9)} == {2}
    skew = LayoutSpec("skewed", 0)
    ref = SkewedLayout(["a"], k)
    assert [skew.module_of(i, k) for i in range(20)] \
        == [ref.module("a", i) for i in range(20)]


def test_planned_layout_defaults_to_interleaved():
    plain = InterleavedLayout(ARRAYS, 4)
    planned = PlannedLayout(ARRAYS, 4)  # no specs at all
    for a in ARRAYS:
        for i in range(16):
            assert planned.module(a, i) == plain.module(a, i)


def test_planned_layout_mixes_specs_and_fallback():
    planned = PlannedLayout(
        ARRAYS, 4,
        {"a": LayoutSpec("module", 1), "b": LayoutSpec("interleaved", 2)},
    )
    assert {planned.module("a", i) for i in range(8)} == {1}
    assert planned.module("b", 0) == 2
    # 'c' falls back: declaration base 2, plain interleave
    assert planned.module("c", 1) == 3


def test_planned_layout_validates_eagerly():
    with pytest.raises(ValueError):
        PlannedLayout(ARRAYS, 4, {"a": LayoutSpec("module", 9)})
    with pytest.raises(UnknownArrayError):
        PlannedLayout(ARRAYS, 4, {"ghost": LayoutSpec("module", 0)})
