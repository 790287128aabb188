"""Parallel-memory simulator: module layouts, exact load distributions,
and the Δ-model transfer-time accounting of the paper's §3."""

from .distribution import (
    expected_max_load,
    max_load_distribution,
    min_possible_max_load,
)
from .interleave import (
    LAYOUTS,
    SPEC_KINDS,
    ArrayLayout,
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
from .simulator import (
    MemoryReport,
    MemorySimulator,
    ScalarLoadMemo,
    scalar_load_vector,
)

__all__ = [
    "expected_max_load",
    "max_load_distribution",
    "min_possible_max_load",
    "LAYOUTS",
    "SPEC_KINDS",
    "ArrayLayout",
    "InterleavedLayout",
    "LayoutSpec",
    "PerArrayLayout",
    "PlannedLayout",
    "SingleModuleLayout",
    "SkewedLayout",
    "UnknownArrayError",
    "digit_skew",
    "make_layout",
    "validate_layout_name",
    "MemoryReport",
    "MemorySimulator",
    "ScalarLoadMemo",
    "scalar_load_vector",
]
