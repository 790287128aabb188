"""The paper's six mini-language benchmarks plus real Python kernels.

``registry`` holds the six §3 programs (mini-language);
``pykernels`` holds the Python kernels compiled through the
CPython-bytecode frontend (``--frontend python``).
"""

# Each program module registers its spec on import.
from . import color, exact_solver, fft, sort, taylor1, taylor2  # noqa: F401
from .pykernels import (
    PyKernelSpec,
    all_pykernels,
    get_pykernel,
    native_run,
    pykernel_names,
)
from .registry import (ProgramSpec, all_programs, get_program, outputs_match,
                       program_names)

__all__ = [
    "ProgramSpec",
    "PyKernelSpec",
    "all_programs",
    "all_pykernels",
    "get_program",
    "get_pykernel",
    "native_run",
    "outputs_match",
    "program_names",
    "pykernel_names",
]
