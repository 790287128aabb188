"""Typed pass-manager framework for the compilation pipeline.

``repro.passes.events``
    :class:`PassEvent` records, :class:`Tracer` sinks, and the
    :class:`Metrics`/:class:`StageMetric` stage-metrics protocol (the
    neutral home that breaks the old ``pipeline`` <-> ``service``
    import cycle).
``repro.passes.artifacts``
    Typed artifact registry, the :class:`ArtifactStore`, the frozen
    :class:`PipelineOptions`, and the public result records.
``repro.passes.fingerprint``
    Chained content fingerprints — the stage-level cache keys.
``repro.passes.cache``
    :class:`ArtifactCache` — LRU reuse of per-pass artifacts.
``repro.passes.manager``
    :class:`Pass`, :class:`PassContext`, :class:`PassManager`.
``repro.passes.registry``
    The standard presets assembled from every layer's pass wrappers.

The registry (which imports every subpackage) is loaded lazily so that
low-level modules may import ``repro.passes.events`` and friends without
creating import cycles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .artifacts import (
    ARTIFACTS,
    ArtifactSpec,
    ArtifactStore,
    CompiledProgram,
    PipelineOptions,
    SimulationResult,
    compiled_program,
    register_artifact,
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

if TYPE_CHECKING:
    from .registry import (  # noqa: F401
        COMPILE_PASSES,
        FRONTEND_PASSES,
        FULL_PIPELINE,
        PASS_REGISTRY,
        default_manager,
        get_pass,
    )

_REGISTRY_EXPORTS = (
    "FRONTEND_PASSES",
    "COMPILE_PASSES",
    "FULL_PIPELINE",
    "PASS_REGISTRY",
    "default_manager",
    "get_pass",
)


def __getattr__(name: str) -> object:
    if name in _REGISTRY_EXPORTS:
        from . import registry

        return getattr(registry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ARTIFACTS",
    "ArtifactCache",
    "ArtifactSpec",
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
    "register_artifact",
    *_REGISTRY_EXPORTS,
]
