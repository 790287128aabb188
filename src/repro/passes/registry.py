"""The pass pipelines, declared once: one table of passes per frontend.

:data:`FRONTENDS` maps each source language to its source -> tac/cfg
section.  Every pipeline is that section followed by the shared,
frontend-agnostic passes, built once here:

front end
    the section + simplify -> rename -> schedule
    (what :func:`repro.pipeline.compile_source` runs);
compile
    the front end + ``allocate`` and the conditional ``array-opt``
    layout optimizer (``python -m repro compile``);
full
    the compile pipeline + ``simulate`` (``python -m repro run``).

The ``frontend`` knob of :mod:`repro.passes.knobs` takes its choices
from the table, so the CLI, :class:`repro.service.BatchJob` and the
server protocol reject an unknown name with the same typed error.
"""

from __future__ import annotations

from ..core.passes import ALLOCATE, ARRAY_OPT
from ..frontends.pybytecode import PYFRONT
from ..ir.passes import LOWER, RENAME, SIMPLIFY, UNROLL
from ..lang.passes import PARSE, SEMA
from ..liw.passes import SCHEDULE
from ..memsim.passes import SIMULATE
from .knobs import KNOB
from .manager import Pass

FRONTENDS: dict[str, tuple[Pass, ...]] = {
    "mini": (PARSE, UNROLL, SEMA, LOWER),
    "python": (PYFRONT,),
}

_KNOB = KNOB["frontend"]
_FRONT_END = {
    name: section + (SIMPLIFY, RENAME, SCHEDULE)
    for name, section in FRONTENDS.items()
}
_COMPILE = {
    name: passes + (ALLOCATE, ARRAY_OPT) for name, passes in _FRONT_END.items()
}
_FULL = {name: passes + (SIMULATE,) for name, passes in _COMPILE.items()}


def frontend_passes_for(frontend: str = _KNOB.default) -> tuple[Pass, ...]:
    """source -> schedule for one frontend."""
    return _FRONT_END[_KNOB.parse(frontend)]


def compile_passes_for(frontend: str = _KNOB.default) -> tuple[Pass, ...]:
    """The front end plus allocation and the array-layout optimizer."""
    return _COMPILE[_KNOB.parse(frontend)]


def full_pipeline_for(frontend: str = _KNOB.default) -> tuple[Pass, ...]:
    """Everything including simulation, for one frontend."""
    return _FULL[_KNOB.parse(frontend)]
