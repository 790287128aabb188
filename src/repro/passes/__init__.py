"""Typed pass-manager framework for the compilation pipeline.

``repro.passes.events``
    :class:`PassEvent` records, :class:`Tracer` sinks, and the
    :class:`Metrics`/:class:`StageMetric` stage-metrics protocol (the
    neutral home that breaks the old ``pipeline`` <-> ``service``
    import cycle).
``repro.passes.artifacts``
    The artifact type table, the :class:`ArtifactStore`, the frozen
    :class:`PipelineOptions`, and the public result records.
``repro.passes.fingerprint``
    Chained content fingerprints — the stage-level cache keys.
``repro.passes.cache``
    :class:`ArtifactCache` — LRU reuse of per-pass artifacts.
``repro.passes.manager``
    :class:`Pass`, :class:`PassContext`, :class:`PassManager`.
``repro.passes.registry``
    The pipelines: one table of passes per frontend.  It imports every
    subpackage, so this package does not import it; low-level modules
    may import ``repro.passes.events`` and friends without cycles.
"""

from __future__ import annotations

from .artifacts import (
    ARTIFACTS,
    ArtifactStore,
    CompiledProgram,
    PipelineOptions,
    SimulationResult,
    compiled_program,
)
from .cache import ArtifactCache
from .events import (
    CollectingTracer,
    Metrics,
    MetricsTracer,
    NullTracer,
    PassEvent,
    StageMetric,
    TeeTracer,
    Tracer,
)
from .fingerprint import chain_fingerprint, digest, initial_fingerprint
from .manager import Pass, PassContext, PassError, PassManager, PassRunResult

__all__ = [
    "ARTIFACTS",
    "ArtifactCache",
    "ArtifactStore",
    "CollectingTracer",
    "CompiledProgram",
    "Metrics",
    "MetricsTracer",
    "NullTracer",
    "Pass",
    "PassContext",
    "PassError",
    "PassEvent",
    "PassManager",
    "PassRunResult",
    "PipelineOptions",
    "SimulationResult",
    "StageMetric",
    "TeeTracer",
    "Tracer",
    "chain_fingerprint",
    "compiled_program",
    "digest",
    "initial_fingerprint",
]
