"""End-to-end compilation pipeline: source text to simulated execution.

This is now a thin facade over the :mod:`repro.passes` pass manager.
The staged pipeline the paper's compiler describes::

    source --(lang)--> AST --(ir)--> TAC --> CFG --> renamed values
           --(liw)--> long-instruction schedule
           --(core)--> storage allocation (STOR1/2/3)
           --(memsim)--> transfer-time report

runs as the pass sequence
``parse -> unroll -> sema -> lower -> simplify -> rename -> schedule
-> allocate -> simulate`` (see :mod:`repro.passes.registry`), each pass
with typed artifacts, a chained content fingerprint, and structured
tracer events.  The functions here keep the original one-call API —
and produce byte-identical results to the pre-pass-manager pipeline —
while exposing the new machinery through the optional ``tracer`` and
``cache`` arguments.

Most callers want :func:`compile_source` and then either
:func:`repro.core.run_strategy` or :func:`simulate`; callers that want
per-pass observability or stage-level reuse use :func:`run_pipeline`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .core.allocation import Allocation
from .core.strategies import StorageResult, run_strategy
from .liw.machine import MachineConfig
from .memsim.passes import simulate_program
from .passes.artifacts import (
    CompiledProgram,
    PipelineOptions,
    SimulationResult,
    compiled_program,
)
from .passes.cache import ArtifactCache
from .passes.events import Metrics, MetricsTracer, TeeTracer, Tracer
from .passes.manager import Pass, PassManager, PassRunResult
from .passes.registry import (
    compile_passes_for,
    frontend_passes_for,
    full_pipeline_for,
)

if TYPE_CHECKING:
    from .core.arraylayout import ArrayLayoutPlan

__all__ = [
    "CompiledProgram",
    "SimulationResult",
    "allocate_storage",
    "compile_for_paper",
    "compile_source",
    "run_pipeline",
    "simulate",
]


def _combined_tracer(
    tracer: Tracer | None, metrics: Metrics | None
) -> Tracer | None:
    """Merge an explicit tracer with the legacy metrics channel."""
    sinks: list[Tracer] = []
    if tracer is not None:
        sinks.append(tracer)
    if metrics is not None:
        sinks.append(MetricsTracer(metrics))
    if not sinks:
        return None
    return sinks[0] if len(sinks) == 1 else TeeTracer(sinks)


def _note_cache_counters(
    metrics: Metrics | None, run: PassRunResult, cache: ArtifactCache | None
) -> None:
    # Hits are already counted per-event by MetricsTracer; only the
    # miss total needs recording here.
    if metrics is None or cache is None:
        return
    if run.cache_misses:
        metrics.incr("pass_cache_misses", run.cache_misses)


def run_pipeline(
    source: str,
    options: PipelineOptions | None = None,
    *,
    passes: tuple[Pass, ...] | None = None,
    inputs: list[object] | None = None,
    tracer: Tracer | None = None,
    metrics: Metrics | None = None,
    cache: ArtifactCache | None = None,
) -> PassRunResult:
    """Run a pass pipeline over ``source`` and return the full result
    (artifact store, per-pass fingerprints, events, cache counters).

    ``passes`` defaults to compile + allocate; pass ``inputs`` to run
    the full pipeline including simulation.
    """
    options = options if options is not None else PipelineOptions()
    if passes is None:
        passes = (
            full_pipeline_for(options.frontend)
            if inputs is not None
            else compile_passes_for(options.frontend)
        )
    initial: dict[str, object] = {"source": source}
    if inputs is not None:
        initial["inputs"] = list(inputs)
    manager = PassManager(
        passes,
        tracer=_combined_tracer(tracer, metrics),
        cache=cache,
    )
    run = manager.run(initial, options)
    _note_cache_counters(metrics, run, cache)
    return run


def compile_source(
    source: str,
    machine: MachineConfig | None = None,
    unroll: int = 1,
    unroll_innermost_only: bool = False,
    constants_in_memory: bool = False,
    immediate_limit: int = 15,
    simplify: bool = True,
    rename_mode: str = "web",
    metrics: Metrics | None = None,
    tracer: Tracer | None = None,
    cache: ArtifactCache | None = None,
    frontend: str = "mini",
    py_entry: str = "",
) -> CompiledProgram:
    """Compile source text down to a LIW schedule.

    ``frontend`` selects the source language: ``mini`` (the default —
    the original mini-language, with pass fingerprints unchanged) or
    ``python`` (a real Python kernel function compiled via CPython
    bytecode; ``py_entry`` names it when the source defines several).

    ``unroll`` > 1 replicates eligible ``for`` bodies (see
    :mod:`repro.ir.unroll`) — the block-enlarging transformation LIW
    compilers rely on.  ``constants_in_memory`` places literals beyond
    the immediate fields into data memory, where they participate in
    storage assignment as read-only values.  The paper-scale experiment
    configuration (:func:`compile_for_paper`) enables both.

    ``metrics`` (a :class:`repro.passes.Metrics`) collects per-stage
    wall times for the batch service's reports; ``tracer`` receives the
    richer per-pass event stream; ``cache`` (an
    :class:`~repro.passes.cache.ArtifactCache`) enables stage-level
    reuse of the front-end artifacts across calls.
    """
    options = PipelineOptions(
        machine=machine,
        frontend=frontend,
        py_entry=py_entry,
        unroll=unroll,
        unroll_innermost_only=unroll_innermost_only,
        constants_in_memory=constants_in_memory,
        immediate_limit=immediate_limit,
        simplify=simplify,
        rename_mode=rename_mode,
    )
    run = run_pipeline(
        source,
        options,
        passes=frontend_passes_for(frontend),
        tracer=tracer,
        metrics=metrics,
        cache=cache,
    )
    return compiled_program(run.store)


def compile_for_paper(
    source: str,
    machine: MachineConfig | None = None,
    unroll: int = 4,
) -> CompiledProgram:
    """The configuration of the paper-scale experiments: unrolled loops
    (an aggressive compacting compiler) and memory-resident constants
    (narrow LIW immediate fields)."""
    return compile_source(
        source,
        machine,
        unroll=unroll,
        constants_in_memory=True,
    )


def allocate_storage(
    program: CompiledProgram,
    strategy: str = "STOR1",
    method: str = "hitting_set",
    k: int | None = None,
    **kwargs,
) -> StorageResult:
    """Run one of the paper's storage strategies on a compiled program.

    Unknown strategy knobs raise a :class:`ValueError` naming the valid
    options (see :func:`repro.core.strategies.validate_strategy_kwargs`).
    """
    return run_strategy(
        strategy, program.schedule, program.renamed, k, method=method, **kwargs
    )


def simulate(
    program: CompiledProgram,
    allocation: Allocation,
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

    With ``plan`` (from :func:`repro.core.arraylayout.optimize_arrays`
    or the ``array-opt`` pass) execution runs under the optimized
    per-array layouts with the plan's schedule moves applied.
    """
    return simulate_program(
        program.cfg,
        program.renamed,
        program.schedule,
        allocation,
        inputs,
        layout=layout,
        delta=delta,
        max_cycles=max_cycles,
        scheduled_transfers=scheduled_transfers,
        plan=plan,
    )
