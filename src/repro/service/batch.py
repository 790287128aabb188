"""Parallel batch compilation with allocation caching.

:class:`BatchCompiler` fans a corpus of :class:`BatchJob` s across a
``concurrent.futures.ProcessPoolExecutor``:

- each worker compiles its program through the pass manager (reusing
  stage-level front-end artifacts from a per-process
  :class:`repro.passes.cache.ArtifactCache` when the corpus repeats a
  source), derives the content-addressed cache key, consults the shared
  on-disk cache (when one is configured), and runs the requested STOR
  strategy only on a miss;
- the parent process keeps a small *source index* (cheap hash of the
  job's source text and knobs -> content key) so repeated corpus runs
  skip even compilation for already-solved jobs;
- a per-job ``timeout`` and a graceful serial fallback keep the batch
  progressing when a worker hangs or dies (``BrokenProcessPool``): the
  affected jobs — and everything still queued — are recomputed in the
  parent process instead.

Results come back as :class:`JobResult` records inside a
:class:`BatchReport`; ``report.as_dict()`` is the JSON emitted by
``python -m repro batch --json`` (see
:func:`repro.analysis.report.batch_report_json`).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import suppress
from dataclasses import dataclass, field

from ..core.arraylayout import ArrayLayoutPlan, optimize_arrays
from ..core.strategies import StorageResult, run_strategy
from ..liw.machine import MachineConfig
from ..passes.artifacts import PipelineOptions, compiled_program
from ..passes.cache import ArtifactCache
from ..passes.knobs import JOB_KNOBS, KNOB, key_fields, pipeline_options
from ..passes.manager import PassRunResult
from ..passes.registry import frontend_passes_for
from ..pipeline import run_pipeline
from .cache import (
    AllocationCache,
    _canonical,
    job_key,
    program_fingerprint,
)

#: Per-process front-end artifact cache: pool workers (and the parent's
#: serial path via ``BatchCompiler.artifacts``) reuse parsed/renamed/
#: scheduled artifacts across the jobs they execute, so a corpus that
#: sweeps strategies over the same sources only runs the front end once
#: per (source, front-end knobs) in each process.
_WORKER_ARTIFACTS = ArtifactCache(max_entries=64)


@dataclass(frozen=True, slots=True)
class BatchJob:
    """One (source, machine, strategy-configuration) compilation unit."""

    name: str
    source: str
    machine: MachineConfig = MachineConfig()
    strategy: str = KNOB["strategy"].default
    method: str = KNOB["method"].default
    unroll: int = KNOB["unroll"].default
    constants_in_memory: bool = KNOB["constants_in_memory"].default
    k: int | None = KNOB["k"].default
    seed: int = KNOB["seed"].default
    max_atom_nodes: int | None = KNOB["max_atom_nodes"].default
    #: compatibility only: accepts ``"serial"``, read by nothing
    runner: str = KNOB["runner"].default
    array_layout: str = KNOB["array_layout"].default
    frontend: str = KNOB["frontend"].default
    entry: str = KNOB["entry"].default

    def __post_init__(self) -> None:
        # The same validation (and strategy spelling) as the protocol.
        for knob in JOB_KNOBS:
            value = knob.parse(getattr(self, knob.name))
            object.__setattr__(self, knob.name, value)

    def options(self) -> PipelineOptions:
        return pipeline_options(
            {knob.name: getattr(self, knob.name) for knob in JOB_KNOBS},
            self.machine,
        )

    def source_key(self) -> str:
        """Cheap parent-side key over the *inputs* of the job — used to
        find the content key of an already-compiled job without
        recompiling.  Distinct sources may still map to the same content
        key (and share a cache entry); this index is only a shortcut."""
        m = self.machine
        payload = {
            "source": self.source,
            "machine": [m.num_fus, m.num_modules, m.ports, m.delta],
            **key_fields("source_key", self),
        }
        return hashlib.sha256(_canonical(payload)).hexdigest()


@dataclass(slots=True)
class JobResult:
    """Outcome of one batch job."""

    job: BatchJob
    key: str | None
    storage: StorageResult | None
    cache_hit: bool
    #: 'cache' (parent index hit, no compile), 'parallel' (worker),
    #: 'serial' (parent compute, by configuration or by fallback)
    mode: str
    wall_time: float
    error: str | None = None
    timed_out: bool = False
    metrics: dict[str, object] = field(default_factory=dict)
    #: ArrayLayoutPlan for array_layout='optimize' jobs (None otherwise)
    plan: ArrayLayoutPlan | None = None

    @property
    def ok(self) -> bool:
        return self.storage is not None

    def summary(self) -> dict[str, object]:
        out: dict[str, object] = {
            "name": self.job.name,
            "strategy": self.job.strategy.upper(),
            "method": self.job.method,
            "mode": self.mode,
            "cache_hit": self.cache_hit,
            "wall_time": self.wall_time,
        }
        if self.storage is not None:
            out.update(
                singles=self.storage.singles,
                multiples=self.storage.multiples,
                total_copies=self.storage.total_copies,
                residual=len(self.storage.residual_instructions),
            )
        if self.plan is not None:
            out["array_opt"] = self.plan.as_dict()
        if self.error is not None:
            out["error"] = self.error
        if self.timed_out:
            out["timed_out"] = True
        return out


@dataclass(slots=True)
class BatchReport:
    """All job results of one :meth:`BatchCompiler.run` call."""

    results: list[JobResult]
    wall_time: float
    workers: int
    cache_stats: dict[str, object] = field(default_factory=dict)
    #: parent-side front-end artifact-cache statistics (stage-level reuse)
    artifact_stats: dict[str, object] = field(default_factory=dict)

    @property
    def num_ok(self) -> int:
        return sum(1 for r in self.results if r.ok)

    @property
    def num_cache_hits(self) -> int:
        return sum(1 for r in self.results if r.cache_hit)

    @property
    def hit_rate(self) -> float:
        return self.num_cache_hits / len(self.results) if self.results else 0.0

    def stage_totals(self) -> dict[str, float]:
        """Aggregate per-stage wall time across all jobs' metrics."""
        totals: dict[str, float] = {}
        for result in self.results:
            for stage in result.metrics.get("stages", ()):
                name = str(stage["name"])
                totals[name] = totals.get(name, 0.0) + float(
                    stage["wall_time"]
                )
        return totals

    def as_dict(self) -> dict[str, object]:
        return {
            "wall_time": self.wall_time,
            "workers": self.workers,
            "jobs": [r.summary() for r in self.results],
            "job_metrics": {
                r.job.name: r.metrics for r in self.results if r.metrics
            },
            "stage_totals": self.stage_totals(),
            "cache": dict(self.cache_stats),
            "frontend_cache": dict(self.artifact_stats),
            "num_ok": self.num_ok,
            "num_cache_hits": self.num_cache_hits,
            "hit_rate": self.hit_rate,
        }


def _compile_and_key(
    job: BatchJob, artifacts: ArtifactCache | None = None
) -> tuple[PassRunResult, str]:
    """Run the job's front end (reusing ``artifacts``) and derive its
    content key."""
    run = run_pipeline(job.source, job.options(),
                       passes=frontend_passes_for(job.frontend),
                       cache=artifacts)
    program = compiled_program(run.store)
    key = job_key(
        program_fingerprint(program.schedule, program.renamed),
        job.machine,
        **key_fields("job_key", job),
    )
    return run, key


def _job_metrics(
    run: PassRunResult | None,
    allocated: StorageResult | None,
    hit: bool,
    plan: ArrayLayoutPlan | None = None,
) -> dict[str, object]:
    """``JobResult.metrics``: one row per front-end pass (run, or served
    from the pass cache) and per strategy stage this job ran, then the
    pass-cache, allocation-cache and array-layout counters."""
    events = [
        e
        for e in (
            *(run.events if run is not None else ()),
            *(allocated.events if allocated is not None else ()),
        )
        if e.status in ("end", "cache-hit")
    ]
    stages = [
        {
            "name": e.name,
            "wall_time": e.wall_time,
            **({"cached": 1} if e.status == "cache-hit" else {}),
            **e.counts,
        }
        for e in events
    ]
    counters: dict[str, int | float] = {}
    if run is not None and run.cache_hits:
        counters["pass_cache_hits"] = run.cache_hits
    if run is not None and run.cache_misses:
        counters["pass_cache_misses"] = run.cache_misses
    counters["cache_hits" if hit else "cache_misses"] = 1
    if plan is not None:
        counters.update(
            array_opt_runs=1,
            array_moves=plan.num_moves,
            array_conflicts_predicted=round(plan.predicted_before),
            array_conflicts_after=round(plan.predicted_after),
        )
    return {
        "stages": stages,
        "counters": counters,
        "total_time": sum((e.wall_time for e in events), 0.0),
    }


def _run_job(
    job: BatchJob,
    cache: AllocationCache | None,
    artifacts: ArtifactCache | None,
    mode: str,
) -> JobResult:
    """Compile ``job``, look its allocation up in ``cache``, run the
    strategy (and store the result) on a miss, and plan the arrays of
    an ``array_layout='optimize'`` job.  The plan is recomputed
    (deterministically) even on a cache hit: it is derived state, never
    persisted.  An exception becomes the job's error."""
    t0 = time.perf_counter()
    try:
        run, key = _compile_and_key(job, artifacts)
        program = compiled_program(run.store)
        storage = cache.get(key) if cache is not None else None
        hit = storage is not None
        if storage is None:
            opts = job.options()
            storage = run_strategy(
                opts.strategy, program.schedule, program.renamed, opts.k,
                method=opts.method, seed=opts.seed, **opts.knobs(),
            )
            if cache is not None:
                cache.put(key, storage)
        plan = (
            optimize_arrays(program.schedule, storage, seed=job.seed)
            if job.array_layout == "optimize"
            else None
        )
    except Exception as exc:  # noqa: BLE001 - reported per job
        return JobResult(
            job, None, None, False, mode,
            time.perf_counter() - t0, error=repr(exc),
        )
    return JobResult(
        job, key, storage, hit, mode, time.perf_counter() - t0,
        metrics=_job_metrics(run, None if hit else storage, hit, plan),
        plan=plan,
    )


def _execute_job(job: BatchJob, cache_dir: str | None) -> JobResult:
    """Worker entry point (top-level so the pool can pickle it): the
    job on the shared disk cache, when one is configured, and this
    process's front-end artifacts."""
    cache = AllocationCache(cache_dir) if cache_dir is not None else None
    return _run_job(job, cache, _WORKER_ARTIFACTS, "parallel")


class BatchCompiler:
    """Fan (source, machine, strategy) jobs across a process pool.

    Parameters
    ----------
    workers:
        Pool size; ``1`` (or ``None`` on a single-CPU box) runs every
        job serially in the parent.
    timeout:
        Per-job seconds to wait for a worker result; an expired job is
        recomputed serially in the parent (the batch always completes).
    cache:
        An :class:`AllocationCache`; defaults to a fresh in-memory one.
        Give it a directory to share hits across processes and runs.
    artifact_cache:
        A :class:`repro.passes.cache.ArtifactCache` for stage-level
        front-end reuse on the parent's serial path; defaults to a
        fresh bounded cache.  Jobs sharing a source and front-end knobs
        (but differing in strategy/method) compile the front end once.
    worker_fn:
        Replacement for the worker entry point — used by the tests to
        simulate hung and dying workers.
    """

    INDEX_FILE = "index.json"

    def __init__(
        self,
        workers: int | None = None,
        timeout: float | None = None,
        cache: AllocationCache | None = None,
        artifact_cache: ArtifactCache | None = None,
        worker_fn=None,
    ):
        self.workers = max(1, workers if workers is not None
                           else min(4, os.cpu_count() or 1))
        self.timeout = timeout
        self.cache = cache if cache is not None else AllocationCache()
        self.artifacts = (
            artifact_cache if artifact_cache is not None else ArtifactCache()
        )
        self._worker_fn = worker_fn if worker_fn is not None else _execute_job
        self._index: dict[str, str] = {}
        self._load_index()

    # -- source-key index (persisted next to the disk cache) ---------------

    def _index_path(self) -> str | None:
        if self.cache.directory is None:
            return None
        return str(self.cache.directory / self.INDEX_FILE)

    def _load_index(self) -> None:
        path = self._index_path()
        if path is None or not os.path.isfile(path):
            return
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return
        if isinstance(data, dict):
            self._index.update({str(k): str(v) for k, v in data.items()})

    def _save_index(self) -> None:
        path = self._index_path()
        if path is None:
            return
        # A name unique to this writer: pool workers and separate
        # `batch`/`serve` processes share the directory, and with one
        # fixed name one writer's os.replace could move another's
        # half-saved file away.
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=self.INDEX_FILE + ".",
            suffix=".tmp",
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(self._index, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            with suppress(OSError):
                os.unlink(tmp)
            raise

    # -- execution ----------------------------------------------------------

    def _try_index(self, job: BatchJob) -> JobResult | None:
        """Serve a job straight from the cache via the source index."""
        if job.array_layout == "optimize":
            # The layout plan is derived from the compiled schedule and
            # is not persisted; optimize jobs always at least compile.
            return None
        key = self._index.get(job.source_key())
        if key is None:
            return None
        t0 = time.perf_counter()
        entry = self.cache.peek(key)
        if entry is None:
            return None  # not counted: the job re-runs and counts there
        storage = self.cache.decode(key, entry)
        if storage is None:
            return None  # quarantined schema mismatch -> recompute
        self.cache.hits += 1
        return JobResult(
            job, key, storage, True, "cache", time.perf_counter() - t0,
            metrics=_job_metrics(None, None, hit=True),
        )

    def _run_parallel(
        self,
        jobs: list[BatchJob],
        pending: list[int],
        results: list[JobResult | None],
    ) -> None:
        """Execute ``pending`` job indices on the pool; anything that
        times out, crashes its worker, or errors in flight is left
        ``None`` for the caller's serial fallback."""
        cache_dir = (
            str(self.cache.directory)
            if self.cache.directory is not None
            else None
        )
        executor = ProcessPoolExecutor(max_workers=self.workers)
        futures: dict[int, Future] = {}
        broken = False
        try:
            for i in pending:
                futures[i] = executor.submit(
                    self._worker_fn, jobs[i], cache_dir
                )
            for i in pending:
                if broken:
                    break
                try:
                    result = futures[i].result(timeout=self.timeout)
                except FutureTimeoutError:
                    futures[i].cancel()
                    results[i] = JobResult(
                        jobs[i], None, None, False, "parallel", 0.0,
                        error="worker timeout", timed_out=True,
                    )
                    continue
                except BrokenProcessPool:
                    broken = True
                    break
                except Exception as exc:  # noqa: BLE001 - job-level error
                    results[i] = JobResult(
                        jobs[i], None, None, False, "parallel", 0.0,
                        error=repr(exc),
                    )
                    continue
                if result.ok:
                    if result.cache_hit:
                        self.cache.hits += 1
                    else:
                        self.cache.misses += 1
                    # With a directory the worker already published the
                    # entry; ``peek`` loads it from disk on demand.
                    if self.cache.directory is None:
                        self.cache.put(result.key, result.storage)
                results[i] = result
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
            # A hung worker would otherwise stall interpreter exit; the
            # jobs it held are recomputed serially anyway.
            procs = getattr(executor, "_processes", None) or {}
            for proc in list(procs.values()):
                if proc.is_alive():
                    proc.terminate()

    def run(self, jobs: list[BatchJob] | tuple[BatchJob, ...]) -> BatchReport:
        """Execute every job; always returns one result per job, in
        input order."""
        jobs = list(jobs)
        t0 = time.perf_counter()
        results: list[JobResult | None] = [None] * len(jobs)

        # Phase 0: jobs already solved by a previous run of this corpus.
        pending: list[int] = []
        for i, job in enumerate(jobs):
            served = self._try_index(job)
            if served is not None:
                results[i] = served
            else:
                pending.append(i)

        # Phase 1: fan out across the pool.
        if self.workers > 1 and len(pending) > 1:
            try:
                self._run_parallel(jobs, pending, results)
            except (OSError, RuntimeError):
                pass  # pool could not start at all -> serial fallback

        # Phase 2: serial execution — configured (workers == 1) or
        # fallback for timed-out / crashed / unstarted jobs.
        for i in pending:
            prior = results[i]
            if prior is not None and not prior.timed_out:
                continue
            fallback = _run_job(
                jobs[i], self.cache, self.artifacts,
                "serial" if prior is None else "serial-fallback",
            )
            if prior is not None and prior.timed_out:
                fallback.timed_out = True
                fallback.mode = "serial-fallback"
            results[i] = fallback

        final = [r for r in results if r is not None]
        assert len(final) == len(jobs)
        for job, result in zip(jobs, final):
            if result.ok:
                self._index[job.source_key()] = result.key
        self._save_index()
        return BatchReport(
            final,
            time.perf_counter() - t0,
            self.workers,
            self.cache.stats(),
            self.artifacts.stats(),
        )
