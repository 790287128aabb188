"""Gate: the bitset allocation stack against the frozen reference.

On the six registry programs (real schedules through the front end) and
two synthetic stress programs (hundreds of instructions with repeated
rows), both duplication methods of the live :func:`assign_modules` must
give the same allocation, copy history and stats as the set-based
reference in ``tests/reference.py``.  On every registry cell the live
stack must also take at most 1.2x the reference's time, best of 5 cold
runs per side, interleaved so a slow stretch of a shared host lands on
both sides.
"""

import random
import time
from functools import lru_cache

import pytest

from repro.core import assign_modules
from repro.passes.artifacts import PipelineOptions
from repro.pipeline import run_pipeline
from repro.programs import get_program, program_names
from tests.reference import reference_assign_modules

METHODS = ("hitting_set", "backtrack")
MAX_RATIO = 1.2
REPEAT = 5


@lru_cache(maxsize=None)
def registry_inputs(name: str):
    run = run_pipeline(get_program(name).source, PipelineOptions())
    schedule = run.artifact("schedule")
    operand_sets = [frozenset(ops) for ops in schedule.operand_sets() if ops]
    duplicable = {
        v.id
        for v in run.artifact("renamed").values
        if (v.def_sites or v.use_sites) and not v.multi_def
    }
    return operand_sets, duplicable, schedule.machine.k


def stress_inputs(seed: int, k: int, values: int, distinct: int,
                  instructions: int):
    """``distinct`` random rows of width 2..k, sampled ``instructions``
    times; every value is duplicable."""
    rng = random.Random(seed)
    pool = [
        frozenset(rng.sample(range(values), rng.randint(2, k)))
        for _ in range(distinct)
    ]
    sets = [rng.choice(pool) for _ in range(instructions)]
    return sets, {v for s in sets for v in s}, k


STRESS = {
    "stress-k4": (41, 4, 96, 120, 420),
    "stress-k8": (83, 8, 160, 150, 500),
}


def _inputs(name: str):
    if name in STRESS:
        return stress_inputs(*STRESS[name])
    return registry_inputs(name)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", [*program_names(), *STRESS])
def test_live_allocation_equals_reference(name, method):
    sets, duplicable, k = _inputs(name)
    live = assign_modules(sets, k, method=method, duplicable=duplicable)
    ref = reference_assign_modules(
        sets, k, method=method, duplicable=duplicable
    )
    assert live.allocation.as_dict() == ref.allocation.as_dict()
    assert live.allocation.history == ref.allocation.history
    assert live.stats == ref.stats


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


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", program_names())
def test_live_allocation_is_not_slower_than_reference(name, method):
    sets, duplicable, k = registry_inputs(name)
    t_new, t_ref = _best_of_interleaved(
        lambda: assign_modules(sets, k, method=method, duplicable=duplicable),
        lambda: reference_assign_modules(
            sets, k, method=method, duplicable=duplicable
        ),
        REPEAT,
    )
    assert t_new <= MAX_RATIO * t_ref, (
        f"live {t_new * 1e3:.2f} ms is {t_new / t_ref:.2f}x the reference "
        f"{t_ref * 1e3:.2f} ms (bound {MAX_RATIO}x)"
    )
