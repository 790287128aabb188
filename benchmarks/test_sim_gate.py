"""Gate: the block-trace executor and simulator against the frozen
per-event reference.

On the ``sim-arrays`` corpus (the six registry programs and the twelve
pykernels through the python frontend; constants in memory, STOR2,
hitting-set duplication, the array-layout optimizer, four FUs, k=8),
each program runs under its optimized layout with plan moves applied,
once with :class:`repro.liw.LiwExecutor` feeding
:class:`repro.memsim.MemorySimulator` and once with
``tests/sim_oracle.py``'s pair.  Outputs, cycles, per-word execution
counts and the ``repr`` of every report must be equal.  Simulating the
whole corpus live must take at most ``SIM_RATIO`` of the reference's
time, best of 5 runs per side, interleaved so that a slow stretch of a
shared host lands on both sides.

The bound: live/reference measured 0.10-0.15 over six runs (2-CPU
shared host, Python 3.11.7), and 1.5x headroom over the high end gives
0.22.  The per-word observer executor and simulator this pair replaced
measured 0.21-0.27 on the same host.
"""

import time
from functools import lru_cache

import pytest

from repro.liw import LiwExecutor, MachineConfig
from repro.memsim import MemorySimulator
from repro.passes.artifacts import PipelineOptions
from repro.pipeline import run_pipeline
from repro.programs import all_programs, all_pykernels
from tests.sim_oracle import ReferenceExecutor, ReferenceSimulator

SIM_RATIO = 0.22
REPEAT = 5
MACHINE = MachineConfig(num_fus=4, num_modules=8)


def _sources():
    knobs = dict(
        machine=MACHINE, constants_in_memory=True, strategy="STOR2",
        method="hitting_set", k=MACHINE.k, array_layout="optimize",
    )
    for spec in all_programs():
        yield spec.name, spec.source, PipelineOptions(**knobs), spec.inputs
    for kernel in all_pykernels():
        yield (
            f"py.{kernel.name}", kernel.source,
            PipelineOptions(frontend="python", py_entry=kernel.entry, **knobs),
            kernel.inputs,
        )


@lru_cache(maxsize=None)
def corpus():
    """``(name, schedule, allocation, layout, inputs, initial values)``:
    what simulation runs for each program."""
    cells = []
    for name, source, options, inputs in _sources():
        store = run_pipeline(source, options).store
        plan = store.get("array_plan")
        cells.append((
            name,
            plan.apply_to(store.get("schedule")),  # type: ignore[attr-defined]
            store.get("storage").allocation,  # type: ignore[attr-defined]
            plan.build_layout(sorted(store.get("cfg").arrays)),  # type: ignore[attr-defined]
            list(inputs),
            store.get("renamed").initial_values(),  # type: ignore[attr-defined]
        ))
    return tuple(cells)


def _live(schedule, alloc, layout, inputs, initial):
    sim = MemorySimulator(alloc, layout, MACHINE.k)
    executor = LiwExecutor(schedule, list(inputs), sink=sim,
                           initial_values=initial)
    result = executor.run()
    return result.outputs, result.cycles, executor.liw_counts, sim.report()


def _reference(schedule, alloc, layout, inputs, initial):
    sim = ReferenceSimulator(alloc, layout, MACHINE.k)
    executor = ReferenceExecutor(schedule, list(inputs), observers=[sim],
                                 initial_values=initial)
    result = executor.run()
    return result.outputs, result.cycles, executor.liw_counts, sim.report()


def test_corpus_is_sim_arrays():
    assert len(corpus()) == 18


@pytest.mark.parametrize("index", range(18))
def test_live_simulation_equals_reference(index):
    name, *cell = corpus()[index]
    live = _live(*cell)
    want = _reference(*cell)
    assert live[:3] == want[:3], name
    assert repr(live[3]) == repr(want[3]), name


def test_live_simulation_is_faster_than_reference():
    cells = [cell[1:] for cell in corpus()]

    def run_all(fn):
        return lambda: [fn(*cell) for cell in cells]

    live, ref = run_all(_live), run_all(_reference)
    best = {live: float("inf"), ref: float("inf")}
    for i in range(REPEAT):
        for fn in ((ref, live) if i % 2 else (live, ref)):
            t0 = time.perf_counter()
            fn()
            best[fn] = min(best[fn], time.perf_counter() - t0)
    t_new, t_ref = best[live], best[ref]
    assert t_new <= SIM_RATIO * t_ref, (
        f"live {t_new * 1e3:.1f} ms is {t_new / t_ref:.2f}x the reference "
        f"{t_ref * 1e3:.1f} ms (bound {SIM_RATIO}x)"
    )
