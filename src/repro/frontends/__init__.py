"""Source-language frontends (``repro.frontends``).

Everything from the ``simplify`` pass onward is frontend-agnostic; a
frontend is the source -> ``tac``/``cfg`` section of the pipeline, one
row of :data:`repro.passes.registry.FRONTENDS`.  ``mini`` is the
original mini-language (the ``lang``/``ir`` passes); ``python``
compiles a real Python function via CPython bytecode destackification
(:mod:`repro.frontends.pybytecode`).
"""

from .errors import (
    FrontendError,
    UnknownFrontendError,
    UnsupportedPythonError,
)
from .pybytecode import PYFRONT, compile_python_kernel

__all__ = [
    "FrontendError",
    "PYFRONT",
    "UnknownFrontendError",
    "UnsupportedPythonError",
    "compile_python_kernel",
]
