"""Scheduling pass: renamed program -> long-instruction schedule.

Pass wrapper over :func:`repro.liw.scheduler.schedule_program`.
"""

from __future__ import annotations

from ..passes.manager import Pass, PassContext
from .scheduler import schedule_program


def _run_schedule(ctx: PassContext) -> None:
    schedule = schedule_program(
        ctx.get("renamed"),  # type: ignore[arg-type]
        ctx.options.resolved_machine(),
    )
    ctx.set("schedule", schedule)
    ctx.count("instructions", schedule.num_instructions)
    ctx.count("operations", schedule.num_operations)


SCHEDULE = Pass(
    name="schedule",
    run=_run_schedule,
    reads=("renamed",),
    writes=("schedule",),
    config_keys=("machine",),
)
