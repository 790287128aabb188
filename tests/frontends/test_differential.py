"""Differential suite: every pykernels registry entry executed natively
in CPython versus compiled through the CPython-bytecode frontend and
run on the memory simulator.

The outputs must be *identical* — same values, same order — for every
module count k in {2, 4, 8} and every storage strategy.  This is the
subsystem's ground truth: the frontend is only correct if the whole
pipeline (destackify -> simplify -> rename -> schedule -> allocate ->
simulate) preserves CPython semantics on the supported subset.
"""

import pytest

from repro.core.arraylayout import optimize_arrays
from repro.core.strategies import run_strategy
from repro.liw.machine import MachineConfig
from repro.pipeline import compile_source, simulate
from repro.programs import all_pykernels, native_run, pykernel_names

KS = (2, 4, 8)
STRATEGIES = ("STOR1", "STOR2", "STOR3")

_NATIVE = {spec.name: native_run(spec) for spec in all_pykernels()}
_COMPILED: dict = {}


def _compiled(name, k, constants_in_memory=False):
    key = (name, k, constants_in_memory)
    if key not in _COMPILED:
        spec = next(s for s in all_pykernels() if s.name == name)
        _COMPILED[key] = compile_source(
            spec.source,
            MachineConfig(num_modules=k),
            constants_in_memory=constants_in_memory,
            frontend="python",
            py_entry=spec.entry,
        )
    return _COMPILED[key]


def test_registry_has_at_least_ten_kernels():
    names = pykernel_names()
    assert len(names) >= 10
    assert sum(spec.uses_arrays for spec in all_pykernels()) >= 8


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("name", pykernel_names())
def test_compiled_matches_native(name, k, strategy):
    spec = next(s for s in all_pykernels() if s.name == name)
    program = _compiled(name, k)
    storage = run_strategy(
        strategy, program.schedule, program.renamed,
        method="hitting_set", seed=0,
    )
    result = simulate(program, storage.allocation, list(spec.inputs))
    assert result.outputs == _NATIVE[name], (
        f"{name} diverged from CPython at k={k} {strategy}"
    )


@pytest.mark.parametrize("k", (8, 4))
@pytest.mark.parametrize("name", pykernel_names())
def test_array_optimizer_matches_native_without_conflicts(name, k):
    """STOR2 leaves no residual conflict, the array-layout optimizer's
    plan keeps native CPython's outputs, and at k = 8 an
    array-indexing kernel pays no more than t_ave under it."""
    spec = next(s for s in all_pykernels() if s.name == name)
    program = _compiled(name, k)
    storage = run_strategy(
        "STOR2", program.schedule, program.renamed,
        method="hitting_set", seed=0,
    )
    assert not storage.residual_instructions
    inputs = list(spec.inputs)
    base = simulate(program, storage.allocation, inputs)
    plan = optimize_arrays(program.schedule, storage)
    opt = simulate(program, storage.allocation, inputs, plan=plan)
    assert opt.outputs == _NATIVE[name]
    if k == 8 and spec.uses_arrays:
        assert opt.memory.t_actual <= base.memory.t_ave + 1e-9


@pytest.mark.parametrize("name", pykernel_names())
def test_compiled_matches_native_with_memory_constants(name):
    spec = next(s for s in all_pykernels() if s.name == name)
    program = _compiled(name, 4, constants_in_memory=True)
    storage = run_strategy(
        "STOR2", program.schedule, program.renamed,
        method="hitting_set", seed=0,
    )
    result = simulate(program, storage.allocation, list(spec.inputs))
    assert result.outputs == _NATIVE[name]


@pytest.mark.parametrize("name", pykernel_names())
def test_kernels_produce_output(name):
    # every registry kernel must actually exercise write()
    assert _NATIVE[name], f"{name} writes nothing"
