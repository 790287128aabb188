"""The pass manager: typed passes, ordered execution, tracing, caching.

A :class:`Pass` is a named unit of compilation work with declared input
and output artifacts (checked against :data:`repro.passes.artifacts
.ARTIFACTS`), a declared configuration slice (the
:class:`~repro.passes.artifacts.PipelineOptions` fields that change its
result), and a run function operating on a :class:`PassContext`.

The :class:`PassManager` runs a sequence of passes over an
:class:`~repro.passes.artifacts.ArtifactStore`:

- every pass — enabled or not — folds its configuration into the
  chained content fingerprint, so fingerprints identify *what would be
  computed*, not merely what ran;
- a cacheable pass whose fingerprint is in the
  :class:`~repro.passes.cache.ArtifactCache` is served from cache (its
  output artifacts are published without running it);
- every pass emits structured :class:`~repro.passes.events.PassEvent`
  records (wall time, counters, warnings) to the configured tracer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .artifacts import ArtifactStore, PipelineOptions
from .cache import ArtifactCache
from .events import NullTracer, PassEvent, Tracer, pass_times
from .fingerprint import chain_fingerprint, encode_value, initial_fingerprint


class PassError(RuntimeError):
    """A pass violated the framework contract (missing reads/writes)."""


class PassContext:
    """What a pass run function sees: the store, the options, and the
    event channel for counters, warnings, and sub-stage timings."""

    __slots__ = ("store", "options", "counts", "warnings", "_emit", "_name")

    def __init__(
        self,
        store: ArtifactStore,
        options: PipelineOptions,
        name: str,
        emit: Callable[[PassEvent], None],
    ):
        self.store = store
        self.options = options
        self.counts: dict[str, int | float] = {}
        self.warnings: list[str] = []
        self._emit = emit
        self._name = name

    def get(self, name: str) -> object:
        return self.store.get(name)

    def get_optional(self, name: str, default: object = None) -> object:
        return self.store.get_optional(name, default)

    def set(self, name: str, value: object) -> None:
        self.store.set(name, value)

    def count(self, name: str, value: int | float) -> None:
        self.counts[name] = value

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def emit_sub(
        self, name: str, wall_time: float, **counts: int | float
    ) -> None:
        """Report a sub-stage (e.g. one STOR2 region) as its own event."""
        self._emit(
            PassEvent(
                f"{self._name}.{name}", "end", wall_time, counts=dict(counts)
            )
        )


@dataclass(frozen=True, slots=True)
class Pass:
    """One registered compilation pass."""

    name: str
    run: Callable[[PassContext], None]
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    #: PipelineOptions fields that feed this pass's fingerprint.
    config_keys: tuple[str, ...] = ()
    #: When set, the pass is skipped (but still fingerprinted) unless
    #: this predicate holds for the run's options.
    enabled: Callable[[PipelineOptions], bool] | None = None
    #: Whether the pass's outputs may be served from an ArtifactCache.
    cacheable: bool = True

    def config(self, options: PipelineOptions) -> dict[str, object]:
        out: dict[str, object] = {}
        for key in self.config_keys:
            value = (
                options.resolved_machine()
                if key == "machine"
                else getattr(options, key)
            )
            out[key] = encode_value(value)
        return out


@dataclass(slots=True)
class PassRunResult:
    """Everything one :meth:`PassManager.run` produced."""

    store: ArtifactStore
    fingerprints: dict[str, str]
    events: list[PassEvent] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0

    def artifact(self, name: str) -> object:
        return self.store.get(name)

    def pass_times(self) -> dict[str, float]:
        return pass_times(self.events)

    @property
    def total_time(self) -> float:
        return sum(e.wall_time for e in self.events if e.executed)


class PassManager:
    """Run a fixed sequence of passes with tracing and stage caching.

    Parameters
    ----------
    passes:
        The ordered pipeline.  Names must be unique.
    tracer:
        Event sink; defaults to discarding.
    cache:
        Optional :class:`ArtifactCache` for stage-level reuse across
        runs (cacheable passes only).
    fingerprint_artifacts:
        Which initial artifacts seed the fingerprint chain.  Artifacts
        outside this set (e.g. runtime ``inputs``) never affect cache
        keys — which is why passes depending on them must be declared
        ``cacheable=False``.
    """

    def __init__(
        self,
        passes: Sequence[Pass],
        tracer: Tracer | None = None,
        cache: ArtifactCache | None = None,
        fingerprint_artifacts: tuple[str, ...] = ("source",),
    ):
        names = [p.name for p in passes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate pass names in pipeline: {names}")
        self.passes = tuple(passes)
        self.tracer: Tracer = tracer if tracer is not None else NullTracer()
        self.cache = cache
        self.fingerprint_artifacts = fingerprint_artifacts

    def run(
        self,
        initial: dict[str, object],
        options: PipelineOptions | None = None,
    ) -> PassRunResult:
        options = options if options is not None else PipelineOptions()
        store = ArtifactStore(initial)
        result = PassRunResult(store, {})

        def emit(event: PassEvent) -> None:
            result.events.append(event)
            self.tracer.emit(event)

        fp = initial_fingerprint(
            {
                name: initial[name]
                for name in self.fingerprint_artifacts
                if name in initial
            }
        )
        for p in self.passes:
            fp = chain_fingerprint(fp, p.name, p.config(options))
            result.fingerprints[p.name] = fp

            if p.enabled is not None and not p.enabled(options):
                emit(PassEvent(p.name, "skip", fingerprint=fp))
                continue

            if p.cacheable and self.cache is not None:
                entry = self.cache.get(fp)
                if entry is not None:
                    for name, value in entry.items():
                        store.set(name, value)
                    result.cache_hits += 1
                    emit(PassEvent(p.name, "cache-hit", 0.0, fp))
                    continue
                result.cache_misses += 1

            missing = [r for r in p.reads if not store.has(r)]
            if missing:
                raise PassError(
                    f"pass {p.name!r} needs artifact(s) {missing} which no "
                    f"earlier pass produced"
                )

            ctx = PassContext(store, options, p.name, emit)
            emit(PassEvent(p.name, "start", fingerprint=fp))
            t0 = time.perf_counter()
            try:
                p.run(ctx)
            except Exception:
                emit(
                    PassEvent(
                        p.name,
                        "error",
                        time.perf_counter() - t0,
                        fp,
                        dict(ctx.counts),
                        tuple(ctx.warnings),
                    )
                )
                raise
            wall = time.perf_counter() - t0

            unwritten = [w for w in p.writes if not store.has(w)]
            if unwritten:
                raise PassError(
                    f"pass {p.name!r} declared writes {list(p.writes)} but "
                    f"did not produce {unwritten}"
                )
            # Store before emitting "end" so the event can carry the
            # cache's LRU eviction count for this pass.
            if p.cacheable and self.cache is not None:
                evicted = self.cache.put(
                    fp, {w: store.get(w) for w in p.writes}
                )
                if evicted:
                    ctx.counts["cache_evictions"] = evicted
            emit(
                PassEvent(
                    p.name, "end", wall, fp, dict(ctx.counts),
                    tuple(ctx.warnings),
                )
            )

        return result
