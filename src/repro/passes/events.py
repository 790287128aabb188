"""Structured per-pass events, tracers, and the stage-metrics protocol.

This module is deliberately dependency-free (stdlib only) so that any
layer — ``repro.pipeline``, ``repro.core.strategies``, ``repro.service``
— can import it without creating an import cycle.  It is the neutral
home of the :class:`Metrics`/:class:`StageMetric` protocol (which
originally lived in the since-retired ``repro.service.metrics``).

Two observation channels exist:

:class:`Tracer`
    A pluggable sink of :class:`PassEvent` records.  The pass manager
    emits one ``start`` and one terminal event (``end``, ``cache-hit``,
    ``skip``, or ``error``) per pass, carrying wall time, the pass's
    chained fingerprint, size counters, and warnings.
:class:`Metrics`
    The flat per-stage accumulator consumed by the batch service's JSON
    reports.  :class:`MetricsTracer` adapts the event stream onto it so
    the pre-pass-manager report format is preserved byte for byte.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Protocol, runtime_checkable

#: Terminal statuses a pass run can end with.
PASS_STATUSES = ("start", "end", "cache-hit", "skip", "error")


@dataclass(frozen=True, slots=True)
class PassEvent:
    """One structured observation about one pass execution."""

    name: str
    status: str  # one of PASS_STATUSES
    wall_time: float = 0.0
    fingerprint: str | None = None
    counts: dict[str, int | float] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    @property
    def is_terminal(self) -> bool:
        return self.status != "start"

    @property
    def is_substage(self) -> bool:
        """A sub-stage of a pass (``allocate.STOR2.region1``), reported
        by :meth:`~repro.passes.manager.PassContext.emit_sub`.  Pass
        names hold no dot."""
        return "." in self.name

    @property
    def executed(self) -> bool:
        """Did a pass actually run (as opposed to being served from
        cache or skipped)?  Sub-stages never count: their time is
        already inside their pass's."""
        return self.status in ("end", "error") and not self.is_substage

    def as_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "pass": self.name,
            "status": self.status,
            "wall_time": self.wall_time,
        }
        if self.fingerprint is not None:
            out["fingerprint"] = self.fingerprint
        if self.counts:
            out["counts"] = dict(self.counts)
        if self.warnings:
            out["warnings"] = list(self.warnings)
        return out


def pass_times(events: Iterable[PassEvent]) -> dict[str, float]:
    """Total wall time per executed pass name (sub-stages excluded)."""
    out: dict[str, float] = {}
    for e in events:
        if e.executed:
            out[e.name] = out.get(e.name, 0.0) + e.wall_time
    return out


@runtime_checkable
class Tracer(Protocol):
    """Anything that can receive pass events."""

    def emit(self, event: PassEvent) -> None: ...


class NullTracer:
    """Discards every event."""

    def emit(self, event: PassEvent) -> None:
        pass


class CollectingTracer:
    """Buffers every event in order; the default sink for CLI traces
    and tests."""

    def __init__(self) -> None:
        self.events: list[PassEvent] = []

    def emit(self, event: PassEvent) -> None:
        self.events.append(event)

    # -- queries ------------------------------------------------------------

    def completed(self) -> list[PassEvent]:
        """Terminal events, in pipeline order."""
        return [e for e in self.events if e.is_terminal]

    def by_name(self, name: str) -> list[PassEvent]:
        return [e for e in self.events if e.name == name]

    def cache_hits(self) -> list[PassEvent]:
        return [e for e in self.events if e.status == "cache-hit"]

    def pass_times(self) -> dict[str, float]:
        return pass_times(self.events)

    def as_rows(self) -> list[dict[str, object]]:
        return [e.as_dict() for e in self.completed()]


class TeeTracer:
    """Fans each event out to several tracers."""

    def __init__(self, tracers: Iterable[Tracer]):
        self.tracers = list(tracers)

    def emit(self, event: PassEvent) -> None:
        for tracer in self.tracers:
            tracer.emit(event)


# --------------------------------------------------------------------------
# Stage metrics (moved verbatim from repro.service.metrics)
# --------------------------------------------------------------------------


@dataclass(slots=True)
class StageMetric:
    """One pipeline stage's timing and size counters."""

    name: str
    wall_time: float = 0.0
    counts: dict[str, int | float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        return {"name": self.name, "wall_time": self.wall_time, **self.counts}


@dataclass(slots=True)
class Metrics:
    """Accumulates per-stage metrics and global counters."""

    stages: list[StageMetric] = field(default_factory=list)
    counters: dict[str, int | float] = field(default_factory=dict)

    @contextmanager
    def stage(self, name: str, **counts: int | float) -> Iterator[StageMetric]:
        """Time a stage; the yielded record's ``counts`` may be filled
        in by the body."""
        record = StageMetric(name, counts=dict(counts))
        t0 = time.perf_counter()
        try:
            yield record
        finally:
            record.wall_time = time.perf_counter() - t0
            self.stages.append(record)

    def add_stage(
        self, name: str, wall_time: float, **counts: int | float
    ) -> StageMetric:
        record = StageMetric(name, wall_time, dict(counts))
        self.stages.append(record)
        return record

    def incr(self, counter: str, amount: int | float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    # -- queries ------------------------------------------------------------

    def stage_time(self, name: str) -> float:
        return sum(s.wall_time for s in self.stages if s.name == name)

    @property
    def total_time(self) -> float:
        return sum(s.wall_time for s in self.stages)

    def merge(self, other: "Metrics") -> None:
        self.stages.extend(other.stages)
        for key, value in other.counters.items():
            self.incr(key, value)

    def as_dict(self) -> dict[str, object]:
        return {
            "stages": [s.as_dict() for s in self.stages],
            "counters": dict(self.counters),
            "total_time": self.total_time,
        }


class LatencyRecorder:
    """Bounded reservoir of duration samples with percentile queries.

    The compile server records per-request latencies here (queue wait,
    execution, end-to-end); ``snapshot()`` is what the ``stats``
    endpoint publishes.  The reservoir keeps the most recent
    ``max_samples`` observations (a sliding window — old traffic ages
    out), while ``count``/``total_time``/``max_seen`` cover the full
    lifetime.  Percentiles use the nearest-rank method on the window.
    """

    __slots__ = ("_window", "count", "total_time", "max_seen")

    def __init__(self, max_samples: int = 4096):
        from collections import deque

        self._window: deque[float] = deque(maxlen=max_samples)
        self.count = 0
        self.total_time = 0.0
        self.max_seen = 0.0

    def record(self, seconds: float) -> None:
        self._window.append(seconds)
        self.count += 1
        self.total_time += seconds
        if seconds > self.max_seen:
            self.max_seen = seconds

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile (``q`` in 0..100) over the window."""
        if not self._window:
            return 0.0
        ordered = sorted(self._window)
        rank = max(1, -(-len(ordered) * q // 100))  # ceil without math
        return ordered[min(len(ordered), int(rank)) - 1]

    @property
    def mean(self) -> float:
        return self.total_time / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "max": self.max_seen,
        }


class MetricsTracer:
    """Adapts the pass-event stream onto a :class:`Metrics` collector.

    Executed passes become stages named exactly like the pre-refactor
    pipeline stages ("parse", "lower", ...), keeping the batch service's
    JSON stable.  Cache hits are recorded as zero-ish-time stages with a
    ``cached`` marker and counted in ``counters['pass_cache_hits']``.
    """

    def __init__(self, metrics: Metrics):
        self.metrics = metrics

    def emit(self, event: PassEvent) -> None:
        if event.status in ("end", "error"):
            self.metrics.add_stage(event.name, event.wall_time, **event.counts)
        elif event.status == "cache-hit":
            self.metrics.add_stage(
                event.name, event.wall_time, cached=1, **event.counts
            )
            self.metrics.incr("pass_cache_hits")
