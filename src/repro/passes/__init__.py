"""Typed pass-manager framework for the compilation pipeline.

``repro.passes.events``
    :class:`PassEvent` records and :class:`Tracer` sinks — the one
    channel through which passes and strategy stages are observed
    (stdlib only, so any layer may import it without a cycle).
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
from .events import CollectingTracer, NullTracer, PassEvent, Tracer
from .fingerprint import chain_fingerprint, digest, initial_fingerprint
from .manager import Pass, PassContext, PassError, PassManager, PassRunResult

__all__ = [
    "ARTIFACTS",
    "ArtifactCache",
    "ArtifactStore",
    "CollectingTracer",
    "CompiledProgram",
    "NullTracer",
    "Pass",
    "PassContext",
    "PassError",
    "PassEvent",
    "PassManager",
    "PassRunResult",
    "PipelineOptions",
    "SimulationResult",
    "Tracer",
    "chain_fingerprint",
    "compiled_program",
    "digest",
    "initial_fingerprint",
]
