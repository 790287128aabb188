"""Storage-assignment and array-layout passes.

``ALLOCATE`` wraps :func:`repro.core.strategies.run_strategy`; the
strategy's internal stages (``STOR2.globals``, ``STOR3.chunk1``, ...),
recorded as events on the returned
:class:`~repro.core.strategies.StorageResult`, are re-emitted as
sub-events of the ``allocate`` pass so tracers see the full per-stage
breakdown.

``ARRAY_OPT`` wraps :func:`repro.core.arraylayout.optimize_arrays` —
the compile-time bank-conflict minimizer.  It only runs when the
pipeline is configured with ``array_layout="optimize"``: on the default
path the pass is skipped and writes nothing, so default allocations,
downstream artifacts, and cache keys are untouched.
"""

from __future__ import annotations

from ..passes.manager import Pass, PassContext
from .arraylayout import optimize_arrays
from .strategies import run_strategy


def _run_allocate(ctx: PassContext) -> None:
    opts = ctx.options
    storage = run_strategy(
        opts.strategy,
        ctx.get("schedule"),  # type: ignore[arg-type]
        ctx.get("renamed"),  # type: ignore[arg-type]
        opts.k,
        method=opts.method,
        seed=opts.seed,
        **opts.knobs(),
    )
    for event in storage.events:
        ctx.emit_sub(event.name, event.wall_time, **event.counts)
    ctx.set("storage", storage)
    ctx.count("singles", storage.singles)
    ctx.count("multiples", storage.multiples)
    ctx.count("total_copies", storage.total_copies)
    residual = len(storage.residual_instructions)
    ctx.count("residual", residual)
    if residual:
        ctx.warn(
            f"{residual} instruction(s) still conflict after "
            f"{storage.strategy}"
        )


ALLOCATE = Pass(
    name="allocate",
    run=_run_allocate,
    reads=("schedule", "renamed"),
    writes=("storage",),
    config_keys=(
        "strategy", "method", "k", "seed", "strategy_knobs", "machine",
    ),
)


def _run_array_opt(ctx: PassContext) -> None:
    opts = ctx.options
    plan = optimize_arrays(
        ctx.get("schedule"),  # type: ignore[arg-type]
        ctx.get("storage"),  # type: ignore[arg-type]
        seed=opts.seed,
        eager_copies=not opts.scheduled_transfers,
    )
    ctx.set("array_plan", plan)
    ctx.count("array_conflicts_predicted", round(plan.predicted_before))
    ctx.count("array_conflicts_after", round(plan.predicted_after))
    ctx.count("array_moves", plan.num_moves)
    ctx.count("arrays_planned", len(plan.specs))


ARRAY_OPT = Pass(
    name="array-opt",
    run=_run_array_opt,
    reads=("schedule", "storage"),
    writes=("array_plan",),
    config_keys=("array_layout", "seed", "machine", "scheduled_transfers"),
    enabled=lambda opts: opts.array_layout == "optimize",
)
