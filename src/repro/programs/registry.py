"""Registry of the paper's six benchmark programs (§3).

Each entry bundles mini-language source, its input stream, and a pure
Python reference implementation used by the differential tests.  The
programs re-implement the algorithms the paper names:

=========  ==========================================================
TAYLOR1    Taylor coefficients of a *complex* analytic function
TAYLOR2    Taylor coefficients of a *real* analytic function
EXACT      linear system solved exactly with residue arithmetic
FFT        radix-2 fast Fourier transform
SORT       quicksort
COLOR      the paper's own graph-colouring heuristic
=========  ==========================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence


@dataclass(frozen=True, slots=True)
class ProgramSpec:
    """One benchmark program."""

    name: str
    source: str
    inputs: tuple[object, ...] = ()
    description: str = ""
    #: pure-Python model producing the expected output stream
    reference: Callable[[tuple[object, ...]], list[object]] | None = None


_REGISTRY: dict[str, ProgramSpec] = {}


def register(spec: ProgramSpec) -> ProgramSpec:
    if spec.name in _REGISTRY:
        raise ValueError(f"duplicate program {spec.name!r}")
    _REGISTRY[spec.name] = spec
    return spec


def get_program(name: str) -> ProgramSpec:
    try:
        return _REGISTRY[name.upper()]
    except KeyError:
        raise KeyError(
            f"unknown program {name!r}; have {sorted(_REGISTRY)}"
        ) from None


def all_programs() -> list[ProgramSpec]:
    """The six paper benchmarks, in the paper's table order."""
    order = ["TAYLOR1", "TAYLOR2", "EXACT", "FFT", "SORT", "COLOR"]
    return [_REGISTRY[name] for name in order]


def program_names() -> list[str]:
    return [p.name for p in all_programs()]


def outputs_match(got: Sequence[object], want: Sequence[object]) -> bool:
    """Whether outputs equal a reference: booleans and integers exactly,
    reals to 1e-9 (the same operations in the same order)."""
    return len(got) == len(want) and all(
        bool(a) == bool(b) if isinstance(a, bool) or isinstance(b, bool)
        else a == b if isinstance(a, int) and isinstance(b, int)
        else math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-9)
        for a, b in zip(got, want)
    )
