"""Array storage layouts across memory modules.

Scalars are placed by the paper's algorithms; array *elements* land in
modules according to a layout policy fixed at compile time:

- :class:`InterleavedLayout` — element ``a[i]`` lives in module
  ``(base_a + i) mod k`` (low-order interleaving, the practical default
  the paper assumes for t_ave: "the elements of the same array will be
  distributed uniformly among the memory modules");
- :class:`SingleModuleLayout` — every array in one module (the paper's
  pathological t_max scenario);
- :class:`PerArrayLayout` — each whole array in its own module
  (round-robin across arrays, with optional validated pinning);
- :class:`SkewedLayout` — module ``(base_a + i + digitsum_k(i // k))
  mod k``: a base-k digit-sum skew (Budnik-Kuck lineage) that breaks
  *every* power-of-two stride, not just stride k.

:class:`LayoutSpec` / :class:`PlannedLayout` are the parameterized
family the compile-time array-layout optimizer
(:mod:`repro.core.arraylayout`) chooses from: per array, one of the
policies above with a free base offset (or a pinned module), so the
optimizer can steer arrays away from each other and from scalar-hot
modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence


class UnknownArrayError(KeyError):
    """An access to an array the layout was not built for."""


class ArrayLayout(Protocol):
    """Maps an array-element access to a memory module."""

    def module(self, array: str, index: int) -> int: ...


def digit_skew(n: int, k: int) -> int:
    """Sum of the base-k digits of ``n`` (0 when k < 2)."""
    if k < 2:
        return 0
    s = 0
    while n:
        s += n % k
        n //= k
    return s


class _BaseLayout:
    """Common machinery: arrays get deterministic base offsets in
    declaration order."""

    def __init__(self, arrays: Sequence[str], k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.base = {name: i for i, name in enumerate(arrays)}

    def _base_of(self, array: str) -> int:
        try:
            return self.base[array]
        except KeyError:
            raise UnknownArrayError(f"unknown array {array!r}") from None

    def _check_module_index(self, module_index: int, what: str) -> int:
        if not 0 <= module_index < self.k:
            raise ValueError(
                f"{what} {module_index} out of range for k={self.k}"
            )
        return module_index


class InterleavedLayout(_BaseLayout):
    def module(self, array: str, index: int) -> int:
        return (self._base_of(array) + index) % self.k


class SingleModuleLayout(_BaseLayout):
    def __init__(self, arrays: Sequence[str], k: int, module_index: int = 0):
        super().__init__(arrays, k)
        self._module = self._check_module_index(module_index, "module_index")

    def module(self, array: str, index: int) -> int:
        self._base_of(array)
        return self._module


class PerArrayLayout(_BaseLayout):
    """Each whole array lives in one module: round-robin by declaration
    order, or pinned explicitly via ``assignments`` (validated against
    the module range the way ``SingleModuleLayout`` validates its
    ``module_index``)."""

    def __init__(
        self,
        arrays: Sequence[str],
        k: int,
        assignments: Mapping[str, int] | None = None,
    ):
        super().__init__(arrays, k)
        self._pinned: dict[str, int] = {}
        for name, module_index in (assignments or {}).items():
            if name not in self.base:
                raise UnknownArrayError(f"unknown array {name!r}")
            self._pinned[name] = self._check_module_index(
                module_index, f"module for array {name!r}"
            )

    def module(self, array: str, index: int) -> int:
        del index
        base = self._base_of(array)
        pinned = self._pinned.get(array)
        return pinned if pinned is not None else base % self.k


class SkewedLayout(_BaseLayout):
    """Digit-sum skew: ``(base + i + digitsum_k(i // k)) mod k``.

    The classic ``i + i // k`` skew fails on strides that are multiples
    of k acting through the carry (e.g. k=2, stride 4: ``4j + 2j = 6j``
    is always even).  Adding the full base-k digit sum of ``i // k``
    perturbs every power-of-two stride for every k, because successive
    stride-s indices change some digit of ``i // k``.
    """

    def module(self, array: str, index: int) -> int:
        k = self.k
        return (self._base_of(array) + index + digit_skew(index // k, k)) % k


LAYOUTS = {
    "interleaved": InterleavedLayout,
    "single": SingleModuleLayout,
    "per_array": PerArrayLayout,
    "skewed": SkewedLayout,
}


def validate_layout_name(name: str) -> str:
    """The ``layout`` knob's validation: returns ``name``, or raises a
    ``ValueError`` naming the valid layouts."""
    from ..passes.knobs import KNOB

    return KNOB["layout"].parse(name)


def make_layout(name: str, arrays: Sequence[str], k: int) -> ArrayLayout:
    cls = LAYOUTS[validate_layout_name(name)]
    return cls(arrays, k)


# --------------------------------------------------------------------------
# Parameterized per-array layouts (the optimizer's search space)
# --------------------------------------------------------------------------

#: Spec kinds: 'interleaved'/'skewed' use ``base`` as a module offset;
#: 'module' pins the whole array into module ``base``.
SPEC_KINDS = ("interleaved", "skewed", "module")


@dataclass(frozen=True, slots=True)
class LayoutSpec:
    """The layout of one array: a policy plus its free parameter."""

    kind: str
    base: int = 0

    def validate(self, k: int) -> "LayoutSpec":
        if self.kind not in SPEC_KINDS:
            raise ValueError(
                f"unknown layout-spec kind {self.kind!r} "
                f"(valid: {list(SPEC_KINDS)})"
            )
        if not 0 <= self.base < k:
            raise ValueError(
                f"layout-spec base {self.base} out of range for k={k}"
            )
        return self

    def module_of(self, index: int, k: int) -> int:
        if self.kind == "module":
            return self.base
        if self.kind == "skewed":
            return (self.base + index + digit_skew(index // k, k)) % k
        return (self.base + index) % k


class PlannedLayout(_BaseLayout):
    """Per-array :class:`LayoutSpec` mapping chosen by the optimizer.

    Arrays without a spec fall back to plain interleaving with their
    declaration-order base — an empty spec table *is* the default
    :class:`InterleavedLayout`.
    """

    def __init__(
        self,
        arrays: Sequence[str],
        k: int,
        specs: Mapping[str, LayoutSpec] | None = None,
    ):
        super().__init__(arrays, k)
        self.specs: dict[str, LayoutSpec] = {}
        for name, spec in (specs or {}).items():
            if name not in self.base:
                raise UnknownArrayError(f"unknown array {name!r}")
            self.specs[name] = spec.validate(k)

    def module(self, array: str, index: int) -> int:
        base = self._base_of(array)
        spec = self.specs.get(array)
        if spec is None:
            return (base + index) % self.k
        return spec.module_of(index, self.k)
