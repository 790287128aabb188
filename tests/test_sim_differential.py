"""The decoded executor and the memoizing simulator against the frozen
per-event reference (``tests/sim_oracle.py``), bit for bit.

Each case compiles a program, builds the schedule and layout that
simulation actually runs (plan moves applied, transfers inserted), and
executes it twice: with :class:`repro.liw.LiwExecutor` +
:class:`repro.memsim.MemorySimulator`, and with the reference pair.
Outputs, cycles, per-word execution counts and every
:class:`~repro.memsim.MemoryReport` field must be equal; floats are
compared by ``repr`` as well, so they must be bitwise identical.
:func:`repro.memsim.passes.simulate_program` must report the same.
"""

from __future__ import annotations

import pytest

from repro.liw import LiwExecutor, MachineConfig
from repro.liw.transfers import insert_transfers
from repro.memsim import MemorySimulator, make_layout
from repro.memsim.passes import simulate_program
from repro.passes.artifacts import PipelineOptions
from repro.pipeline import run_pipeline
from repro.programs import all_programs, all_pykernels

from .sim_oracle import ReferenceExecutor, ReferenceSimulator

MACHINE = MachineConfig(num_fus=4, num_modules=8)
PROGRAMS = {spec.name: spec for spec in all_programs()}
KERNELS = {kernel.name: kernel for kernel in all_pykernels()}


def _compile(source: str, options: PipelineOptions):
    store = run_pipeline(source, options).store
    return (
        store.get("cfg"), store.get("renamed"), store.get("schedule"),
        store.get("storage").allocation,  # type: ignore[attr-defined]
        store.get_optional("array_plan"),
    )


def _check(
    source: str,
    inputs,
    options: PipelineOptions,
    *,
    delta: float = 1.0,
    scheduled_transfers: bool = False,
    eager_copies: bool | None = None,
) -> None:
    cfg, renamed, schedule, alloc, plan = _compile(source, options)
    arrays = sorted(cfg.arrays)
    k = schedule.machine.k
    if eager_copies is None:
        eager_copies = not scheduled_transfers

    runs = schedule
    if plan is not None:
        runs = plan.apply_to(runs)
    if scheduled_transfers:
        runs, _ = insert_transfers(runs, alloc)

    def layout():
        if plan is not None:
            return plan.build_layout(arrays)
        return make_layout("interleaved", arrays, k)

    got_sim = MemorySimulator(alloc, layout(), k, delta, eager_copies)
    got = LiwExecutor(
        runs, list(inputs), observers=[got_sim],
        initial_values=renamed.initial_values(),
    )
    got_result = got.run()
    want_sim = ReferenceSimulator(alloc, layout(), k, delta, eager_copies)
    want = ReferenceExecutor(
        runs, list(inputs), observers=[want_sim],
        initial_values=renamed.initial_values(),
    )
    want_result = want.run()

    assert got_result.outputs == want_result.outputs
    assert repr(got_result.outputs) == repr(want_result.outputs)
    assert got_result.cycles == want_result.cycles
    assert got_result.scalars == want_result.scalars
    assert got.liw_counts == want.liw_counts
    report, want_report = got_sim.report(), want_sim.report()
    assert report == want_report
    assert repr(report) == repr(want_report)

    if eager_copies == (not scheduled_transfers):
        passed = simulate_program(
            cfg, renamed, schedule, alloc, list(inputs), delta=delta,
            scheduled_transfers=scheduled_transfers, plan=plan,
        )
        assert passed.outputs == want_result.outputs
        assert passed.cycles == want_result.cycles
        assert repr(passed.memory) == repr(want_report)


def _mini(strategy: str, unroll: int) -> PipelineOptions:
    return PipelineOptions(
        machine=MACHINE, unroll=unroll, constants_in_memory=True,
        strategy=strategy, method="hitting_set", k=MACHINE.k,
    )


@pytest.mark.parametrize("strategy", ["STOR1", "STOR2"])
@pytest.mark.parametrize("unroll", [1, 4])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_registry_programs(name, unroll, strategy):
    spec = PROGRAMS[name]
    _check(spec.source, spec.inputs, _mini(strategy, unroll))


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_pykernels_with_optimized_layout(name):
    kernel = KERNELS[name]
    options = PipelineOptions(
        machine=MACHINE, constants_in_memory=True, strategy="STOR2",
        method="hitting_set", k=MACHINE.k, array_layout="optimize",
        frontend="python", py_entry=kernel.entry,
    )
    _check(kernel.source, kernel.inputs, options)


def _optimized(unroll: int) -> PipelineOptions:
    return PipelineOptions(
        machine=MACHINE, unroll=unroll, constants_in_memory=True,
        strategy="STOR2", method="hitting_set", k=MACHINE.k,
        array_layout="optimize",
    )


@pytest.mark.parametrize("unroll", [1, 2])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_registry_programs_with_optimized_layout(name, unroll):
    spec = PROGRAMS[name]
    _check(spec.source, spec.inputs, _optimized(unroll))


def test_optimized_layouts_move_operations():
    """The pykernels' plans move nothing; FFT's plans (and TAYLOR2's at
    unroll 2) do, so the cases above replay schedule moves."""
    for name, unroll in (("FFT", 1), ("FFT", 2), ("TAYLOR2", 2)):
        plan = _compile(PROGRAMS[name].source, _optimized(unroll))[4]
        assert plan is not None and plan.num_moves > 0, (name, unroll)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_scheduled_transfers(name):
    spec = PROGRAMS[name]
    _check(spec.source, spec.inputs, _mini("STOR2", 2), scheduled_transfers=True)


@pytest.mark.parametrize("name", ["EXACT", "FFT", "SORT"])
def test_primary_copy_writes(name):
    """``eager_copies=False`` without transfers: only primaries written."""
    spec = PROGRAMS[name]
    _check(spec.source, spec.inputs, _mini("STOR2", 2), eager_copies=False)


@pytest.mark.parametrize("delta", [0.1, 3.0])
def test_non_unit_delta_sums_bitwise(delta):
    spec = PROGRAMS["FFT"]
    _check(spec.source, spec.inputs, _mini("STOR1", 2), delta=delta)
