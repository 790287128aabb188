"""Array-layout optimizer: determinism, safety, and measured wins."""

import pytest

from repro.core.arraylayout import (
    ARRAY_LAYOUT_MODES,
    ArrayLayoutPlan,
    optimize_arrays,
)
from repro.core.strategies import stor1
from repro.liw.machine import MachineConfig
from repro.liw.reorder import verify_schedule
from repro.memsim import LayoutSpec
from repro.pipeline import compile_for_paper, simulate
from repro.programs import all_programs, get_program


def _compiled(name: str, k: int = 8, unroll: int = 4):
    spec = get_program(name)
    machine = MachineConfig(num_fus=4, num_modules=k)
    program = compile_for_paper(spec.source, machine, unroll=unroll)
    storage = stor1(program.schedule, program.renamed, k)
    return spec, program, storage


def test_modes_constant():
    assert ARRAY_LAYOUT_MODES == ("fixed", "optimize")


def test_plan_never_predicts_worse():
    for name in ("TAYLOR2", "FFT", "SORT"):
        _, program, storage = _compiled(name)
        plan = optimize_arrays(program.schedule, storage)
        assert plan.predicted_after <= plan.predicted_before + 1e-9, name


def test_plan_deterministic_for_seed():
    _, program, storage = _compiled("FFT")
    a = optimize_arrays(program.schedule, storage, seed=0)
    b = optimize_arrays(program.schedule, storage, seed=0)
    assert a.as_dict() == b.as_dict()


def test_specs_validated_for_k():
    _, program, storage = _compiled("SORT", k=4)
    plan = optimize_arrays(program.schedule, storage)
    assert plan.k == 4
    for spec in plan.specs.values():
        assert spec.validate(4) is spec


def test_moves_survive_verification():
    """Whatever moves the optimizer records, replaying them yields a
    schedule the independent verifier accepts."""
    for name in ("TAYLOR2", "EXACT", "FFT"):
        _, program, storage = _compiled(name)
        plan = optimize_arrays(program.schedule, storage)
        reordered = plan.apply_to(program.schedule)
        assert verify_schedule(reordered) == [], name
        if plan.moves:
            # and the original schedule was left untouched
            assert reordered is not program.schedule


def test_disable_moves_keeps_layout_stage():
    _, program, storage = _compiled("FFT")
    plan = optimize_arrays(program.schedule, storage, enable_moves=False)
    assert plan.moves == ()
    assert plan.specs  # layout stage still ran


@pytest.mark.parametrize(
    "k,unroll",
    [(8, 2), (4, 2), (8, 4), (4, 4)],
    ids=["8", "4", "8-unroll4", "4-unroll4"],
)
def test_optimized_outputs_identical_all_programs(k, unroll):
    """The differential safety net: under the plan every registry
    program computes exactly what it computed under the default
    interleaved layout — and never pays more than t_ave, also at paper
    scale (unroll 4)."""
    machine = MachineConfig(num_fus=4, num_modules=k)
    for spec in all_programs():
        program = compile_for_paper(spec.source, machine, unroll=unroll)
        storage = stor1(program.schedule, program.renamed, k)
        inputs = list(spec.inputs)
        base = simulate(program, storage.allocation, inputs)
        plan = optimize_arrays(program.schedule, storage)
        opt = simulate(program, storage.allocation, inputs, plan=plan)
        assert opt.outputs == base.outputs, spec.name
        assert opt.memory.t_actual <= base.memory.t_ave + 1e-9, spec.name


def test_measured_win_on_array_heavy_programs():
    """At paper scale (unroll=4) the optimizer strictly beats the
    statistical envelope on the designated array-heavy programs."""
    for name in ("FFT", "SORT"):
        spec, program, storage = _compiled(name)
        inputs = list(spec.inputs)
        base = simulate(program, storage.allocation, inputs)
        plan = optimize_arrays(program.schedule, storage)
        opt = simulate(program, storage.allocation, inputs, plan=plan)
        assert opt.outputs == base.outputs
        assert opt.memory.t_actual < base.memory.t_ave, name


def test_build_layout_falls_back_for_unplanned_arrays():
    _, program, storage = _compiled("SORT")
    plan = ArrayLayoutPlan(k=8, specs={"a": LayoutSpec("module", 3)})
    layout = plan.build_layout(["a", "b"])
    assert {layout.module("a", i) for i in range(8)} == {3}
    # 'b' has no spec: plain interleaving with its declaration base
    assert [layout.module("b", i) for i in range(3)] == [1, 2, 3]


def test_empty_plan_is_identity():
    _, program, storage = _compiled("TAYLOR1")
    plan = ArrayLayoutPlan(k=8)
    assert plan.apply_to(program.schedule) is program.schedule
    assert plan.num_moves == 0
    assert plan.as_dict()["specs"] == {}


def test_negative_constant_index_plans():
    """A constant negative index (which the run rejects) is still
    priced under the skewed candidates rather than hanging the
    search."""
    machine = MachineConfig(num_fus=4, num_modules=8)
    program = compile_for_paper(
        "program p; var a: array[4] of int; "
        "begin a[0 - 1] := 1; write(a[0]) end.",
        machine, unroll=1,
    )
    storage = stor1(program.schedule, program.renamed, 8)
    plan = optimize_arrays(program.schedule, storage)
    assert set(plan.specs) == {"a"}
