"""Typed errors of the frontend layer.

:class:`UnknownFrontendError` is raised by the ``frontend`` knob of
:mod:`repro.passes.knobs`, which every entry point (CLI,
:class:`repro.service.BatchJob`, server protocol) validates frontend
names with.

:class:`UnsupportedPythonError` is the rejection channel of the
CPython-bytecode frontend (:mod:`repro.frontends.pybytecode`): every
Python construct outside the supported numeric subset is refused at
compile time with the offending opcode and source line, so a
kernel author sees *what* to rewrite, not a crash deep in the pipeline.
"""

from __future__ import annotations


class FrontendError(ValueError):
    """Base class of every frontend-layer error."""


class UnknownFrontendError(FrontendError):
    """A frontend name outside :data:`repro.passes.registry.FRONTENDS`."""


class UnsupportedPythonError(FrontendError):
    """A Python construct outside the compilable numeric subset.

    Carries the offending opcode and the source line it came from, so
    the message pinpoints the statement to rewrite.
    """

    def __init__(
        self,
        message: str,
        *,
        opname: str | None = None,
        line: int | None = None,
        function: str | None = None,
    ):
        self.opname = opname
        self.line = line
        self.function = function
        where = []
        if function:
            where.append(f"function {function!r}")
        if line is not None:
            where.append(f"line {line}")
        if opname:
            where.append(f"opcode {opname}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(f"{message}{suffix}")
