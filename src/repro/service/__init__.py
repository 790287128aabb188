"""Batch-compilation service layer.

Turns the one-program-at-a-time library into a servable batch system:

``repro.service.cache``
    Content-addressed memoization of :class:`~repro.core.strategies.
    StorageResult` keyed by (renamed program, machine shape, strategy
    knobs), with optional on-disk persistence across runs.
``repro.service.batch``
    :class:`BatchCompiler` — fans a corpus of jobs across a process
    pool with per-job timeouts, graceful serial fallback, and
    stage-level front-end reuse via a
    :class:`repro.passes.cache.ArtifactCache`.

See ``docs/service.md`` for the API and the cache-key scheme, and
``docs/architecture.md`` for the pass framework the service now runs
on.
"""

from .batch import BatchCompiler, BatchJob, BatchReport, JobResult
from .cache import AllocationCache, job_key, program_fingerprint

__all__ = [
    "AllocationCache",
    "BatchCompiler",
    "BatchJob",
    "BatchReport",
    "JobResult",
    "job_key",
    "program_fingerprint",
]
