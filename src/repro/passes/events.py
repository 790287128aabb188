"""Structured per-pass events and the tracers that receive them.

This module is deliberately dependency-free (stdlib only) so that any
layer — ``repro.pipeline``, ``repro.core.strategies``, ``repro.service``
— can import it without creating an import cycle.

A :class:`PassEvent` is the one record of an observed stage.  The pass
manager emits one ``start`` and one terminal event (``end``,
``cache-hit``, ``skip``, or ``error``) per pass, carrying wall time, the
pass's chained fingerprint, size counters, and warnings, to a pluggable
:class:`Tracer`.  The storage strategies record their own stages
(``STOR2.globals``, ``STOR3.chunk1``, ...) as ``end`` events on the
:class:`~repro.core.strategies.StorageResult` they return; the
``allocate`` pass re-emits them as its sub-stages, and the batch
service renders its per-job metrics from the same events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Protocol, runtime_checkable

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
