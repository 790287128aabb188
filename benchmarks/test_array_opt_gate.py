"""Gate: the array-layout search against its frozen per-call reference.

On the ``sim-arrays`` corpus (the six registry programs and every
pykernel, STOR2 with hitting-set duplication, memory-resident
constants, four FUs, k=8, no unrolling), the live
:func:`~repro.core.arraylayout.optimize_arrays` must return the same
plan, compared by ``repr``, as ``reference_optimize_arrays`` in
``tests/reference.py``, whose cost model re-prices every word on every
trial.  Over the whole corpus the live pass must take at most 0.5x the
reference's time, best of 5 runs per side, interleaved so a slow
stretch of a shared host lands on both sides.
"""

import time
from functools import lru_cache

import pytest

from repro.core.arraylayout import optimize_arrays
from repro.liw.machine import MachineConfig
from repro.passes.artifacts import PipelineOptions
from repro.pipeline import run_pipeline
from repro.programs import all_programs, all_pykernels
from tests.reference import reference_optimize_arrays

MAX_RATIO = 0.5
REPEAT = 5


@lru_cache(maxsize=None)
def sim_arrays_cells():
    """``(name, schedule, storage)`` per corpus program."""
    knobs = dict(
        machine=MachineConfig(num_fus=4, num_modules=8),
        constants_in_memory=True, strategy="STOR2", method="hitting_set",
        k=8,
    )
    sources = [
        (spec.name, spec.source, PipelineOptions(**knobs))
        for spec in all_programs()
    ] + [
        (
            f"py.{kernel.name}", kernel.source,
            PipelineOptions(frontend="python", py_entry=kernel.entry, **knobs),
        )
        for kernel in all_pykernels()
    ]
    cells = []
    for name, source, options in sources:
        run = run_pipeline(source, options)
        cells.append((name, run.artifact("schedule"), run.artifact("storage")))
    return tuple(cells)


NAMES = [spec.name for spec in all_programs()] + [
    f"py.{kernel.name}" for kernel in all_pykernels()
]


@pytest.mark.parametrize("cell", NAMES)
def test_live_plan_equals_reference(cell):
    _, schedule, storage = next(c for c in sim_arrays_cells() if c[0] == cell)
    assert repr(optimize_arrays(schedule, storage)) == repr(
        reference_optimize_arrays(schedule, storage)
    )


def _best_of_interleaved(new_fn, ref_fn, repeat: int) -> tuple[float, float]:
    """Best of ``repeat`` timed calls per side, alternating which side
    goes first."""
    best = {new_fn: float("inf"), ref_fn: float("inf")}
    for i in range(repeat):
        for fn in ((ref_fn, new_fn) if i % 2 else (new_fn, ref_fn)):
            t0 = time.perf_counter()
            fn()
            best[fn] = min(best[fn], time.perf_counter() - t0)
    return best[new_fn], best[ref_fn]


def test_live_search_is_twice_as_fast_as_reference():
    cells = sim_arrays_cells()

    def run(optimize):
        def corpus_pass():
            for _, schedule, storage in cells:
                optimize(schedule, storage)
        return corpus_pass

    t_new, t_ref = _best_of_interleaved(
        run(optimize_arrays), run(reference_optimize_arrays), REPEAT
    )
    assert t_new <= MAX_RATIO * t_ref, (
        f"live {t_new * 1e3:.2f} ms is {t_new / t_ref:.2f}x the reference "
        f"{t_ref * 1e3:.2f} ms (bound {MAX_RATIO}x)"
    )
