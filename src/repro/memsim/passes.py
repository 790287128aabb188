"""Simulation pass: execute a schedule under an allocation + layout.

:func:`simulate_program` is the single implementation behind both the
``simulate`` pass and the :func:`repro.pipeline.simulate` facade.  The
pass is declared ``cacheable=False``: it consumes the runtime ``inputs``
artifact, which deliberately stays outside the fingerprint chain.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..passes.artifacts import SimulationResult
from ..passes.manager import Pass, PassContext
from .interleave import make_layout
from .simulator import MemorySimulator

if TYPE_CHECKING:
    from ..core.allocation import Allocation
    from ..core.arraylayout import ArrayLayoutPlan
    from ..ir.cfg import Cfg
    from ..ir.rename import RenamedProgram
    from ..liw.schedule import Schedule


def simulate_program(
    cfg: "Cfg",
    renamed: "RenamedProgram",
    schedule: "Schedule",
    allocation: "Allocation",
    inputs: list[object] | None = None,
    layout: str = "interleaved",
    delta: float = 1.0,
    max_cycles: int = 5_000_000,
    scheduled_transfers: bool = False,
    plan: "ArrayLayoutPlan | None" = None,
) -> SimulationResult:
    """Execute a compiled program under an allocation and array layout,
    collecting the paper's transfer-time statistics.

    With ``scheduled_transfers`` the duplicated values are filled by
    compile-time-scheduled Transfer operations instead of eager
    multi-module writes (see :mod:`repro.liw.transfers`).

    With ``plan`` (an :class:`~repro.core.arraylayout.ArrayLayoutPlan`)
    the schedule's recorded moves are replayed on a fresh copy and the
    plan's per-array layouts replace ``layout`` — the measurement is
    exact execution under the optimized configuration, not a model.
    """
    from ..liw.executor import LiwExecutor

    machine = schedule.machine
    arrays = sorted(cfg.arrays)
    if plan is not None:
        schedule = plan.apply_to(schedule)
        layout_obj = plan.build_layout(arrays)
    else:
        layout_obj = make_layout(layout, arrays, machine.k)
    if scheduled_transfers:
        from ..liw.transfers import insert_transfers

        schedule, _ = insert_transfers(schedule, allocation)
    sim = MemorySimulator(
        allocation,
        layout_obj,
        machine.k,
        delta=delta,
        eager_copies=not scheduled_transfers,
    )
    executor = LiwExecutor(
        schedule,
        inputs,
        max_cycles,
        sink=sim,
        initial_values=renamed.initial_values(),
    )
    result = executor.run()
    return SimulationResult(result, sim.report())


def _run_simulate(ctx: PassContext) -> None:
    opts = ctx.options
    storage = ctx.get("storage")
    inputs = ctx.get_optional("inputs")
    result = simulate_program(
        ctx.get("cfg"),  # type: ignore[arg-type]
        ctx.get("renamed"),  # type: ignore[arg-type]
        ctx.get("schedule"),  # type: ignore[arg-type]
        storage.allocation,  # type: ignore[attr-defined]
        list(inputs) if inputs is not None else None,  # type: ignore[call-overload]
        layout=opts.layout,
        delta=opts.delta,
        max_cycles=opts.max_cycles,
        scheduled_transfers=opts.scheduled_transfers,
        plan=ctx.get_optional("array_plan"),  # type: ignore[arg-type]
    )
    ctx.set("simulation", result)
    ctx.count("cycles", result.cycles)
    ctx.count("stall_time", result.memory.stall_time)
    ctx.count("outputs", len(result.outputs))


SIMULATE = Pass(
    name="simulate",
    run=_run_simulate,
    reads=("cfg", "renamed", "schedule", "storage"),
    writes=("simulation",),
    config_keys=("layout", "delta", "max_cycles", "scheduled_transfers"),
    cacheable=False,
)
