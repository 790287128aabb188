"""The asyncio compile server: ``python -m repro serve``.

:class:`CompileServer` is the online front door to the batch-compilation
stack.  Requests arrive as newline-delimited JSON over TCP
(:mod:`repro.server.protocol`), flow through the bounded
:class:`~repro.server.queueing.AdmissionQueue` (backpressure +
single-flight dedup), are coalesced into micro-batches, and execute on
the existing :class:`~repro.service.BatchCompiler` — with its
content-addressed :class:`~repro.service.AllocationCache`, source index,
and stage-level front-end artifact reuse — in a dedicated dispatch
thread, so the event loop never blocks on compilation.

``serve --workers N`` runs the batch compiler on a pool of N
processes that share one allocation cache; that is the multi-core mode.

Operational properties:

- **Backpressure, not buffering** — a full admission queue answers
  ``overloaded`` immediately with a ``retry_after_ms`` hint; memory use
  is bounded by ``max_queue`` jobs plus one executing batch.
- **Deadlines with cancellation** — every compile request carries a
  deadline (its own ``deadline_ms`` or the server default); expiry
  answers ``timeout`` and, if the request was the last waiter on a
  not-yet-dispatched flight, cancels the flight entirely.
- **Graceful drain** — SIGTERM/SIGINT (or :meth:`begin_drain`) stops
  admission, finishes every queued flight, answers every accepted
  waiter, ends every open connection at EOF, then exits;
  :meth:`drain_summary` asserts zero unanswered accepted requests.
- **Observability** — ``health`` and ``stats`` answer instantly (they
  bypass the queue) and expose ``schema_version``, queue depth,
  shed/dedup counters, batch sizes, latency percentiles
  (:class:`repro.passes.events.LatencyRecorder`), strategy-execution
  counts, and the allocation/front-end cache statistics.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from ..passes.events import LatencyRecorder
from ..service.batch import BatchCompiler, JobResult
from ..service.cache import AllocationCache
from . import protocol
from .protocol import ProtocolError, Request
from .queueing import AdmissionQueue, Flight


@dataclass(frozen=True, slots=True)
class ServerConfig:
    """Tunables of one :class:`CompileServer`."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port off `address`
    #: BatchCompiler pool width; 1 = compile serially in the dispatch
    #: thread (lowest latency for small batches), >1 = process pool.
    workers: int = 1
    #: per-job seconds inside the BatchCompiler (worker hang guard)
    job_timeout: float | None = 120.0
    max_queue: int = 64
    max_batch: int = 8
    #: seconds to linger after the first queued request, coalescing
    #: near-simultaneous arrivals into one batch
    batch_window: float = 0.01
    #: default per-request deadline when the client sends none
    default_deadline: float = 60.0
    cache_dir: str | None = None
    #: backoff hint attached to `overloaded` responses
    retry_after_ms: float = 50.0


@dataclass(slots=True)
class ServerCounters:
    """Request-outcome counters for ``stats``."""

    requests: int = 0
    ok: int = 0
    errors: int = 0
    overloaded: int = 0
    timeouts: int = 0
    rejected_draining: int = 0
    protocol_errors: int = 0
    health: int = 0
    stats: int = 0
    cache_hits: int = 0
    dedup_hits: int = 0
    strategy_executions: int = 0
    connections: int = 0
    oversized_lines: int = 0
    #: compile requests served with ``array_layout='optimize'``
    array_opt_compiles: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "requests": self.requests,
            "ok": self.ok,
            "errors": self.errors,
            "overloaded": self.overloaded,
            "timeouts": self.timeouts,
            "rejected_draining": self.rejected_draining,
            "protocol_errors": self.protocol_errors,
            "health": self.health,
            "stats": self.stats,
            "cache_hits": self.cache_hits,
            "dedup_hits": self.dedup_hits,
            "strategy_executions": self.strategy_executions,
            "connections": self.connections,
            "oversized_lines": self.oversized_lines,
            "array_opt_compiles": self.array_opt_compiles,
        }


@dataclass(slots=True)
class _Latencies:
    total: LatencyRecorder = field(default_factory=LatencyRecorder)
    queue_wait: LatencyRecorder = field(default_factory=LatencyRecorder)
    execute: LatencyRecorder = field(default_factory=LatencyRecorder)

    def as_dict(self) -> dict[str, object]:
        return {
            "total": self.total.snapshot(),
            "queue_wait": self.queue_wait.snapshot(),
            "execute": self.execute.snapshot(),
        }


class CompileServer:
    """One listening compile service; see the module docstring.

    Owns the TCP listener, the admission queue, the micro-batch
    dispatch loop (running the :class:`~repro.service.BatchCompiler` on
    a dedicated thread), and every counter the ``stats`` endpoint
    reports.
    """

    def __init__(
        self,
        config: ServerConfig | None = None,
        compiler: BatchCompiler | None = None,
    ):
        self.config = config or ServerConfig()
        self.compiler = compiler if compiler is not None else BatchCompiler(
            workers=self.config.workers,
            timeout=self.config.job_timeout,
            cache=AllocationCache(self.config.cache_dir),
        )
        self.queue = AdmissionQueue(
            max_depth=self.config.max_queue,
            max_batch=self.config.max_batch,
            batch_window=self.config.batch_window,
        )
        self.counters = ServerCounters()
        self.latency = _Latencies()
        self._stage_totals: dict[str, float] = {}
        self._metric_counters: dict[str, float] = {}
        self._dispatch_task: asyncio.Task | None = None
        self._dispatch_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-dispatch"
        )
        self._queue_drained = asyncio.Event()
        self._started_at = time.monotonic()
        self._server: asyncio.AbstractServer | None = None
        #: open connections: handler task -> its stream pair
        self._connections: dict[
            asyncio.Task, tuple[asyncio.StreamReader, asyncio.StreamWriter]
        ] = {}
        self._drain_watcher: asyncio.Task | None = None
        self._drained = asyncio.Event()

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        assert self._server is not None and self._server.sockets
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    @property
    def state(self) -> str:
        if self._queue_drained.is_set():
            return "stopped"
        return "draining" if self.queue.draining else "serving"

    async def start(self) -> None:
        """Bind the listener and start the dispatch loop on the running
        event loop."""
        self._server = await asyncio.start_server(
            self._serve_connection,
            self.config.host,
            self.config.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        self._started_at = time.monotonic()
        self._dispatch_task = asyncio.create_task(
            self._dispatch_loop(), name="repro-dispatch-loop"
        )
        self._drain_watcher = asyncio.create_task(
            self._close_when_drained(), name="repro-drain-watcher"
        )

    async def _close_when_drained(self) -> None:
        """Once every accepted request is answered: close the listener,
        end each open connection at EOF, and mark the server drained."""
        await self._queue_drained.wait()
        assert self._server is not None
        self._server.close()
        for reader, writer in self._connections.values():
            # Lines already buffered are still answered (compiles with
            # `shutting-down`); nothing new is read after EOF.
            writer.transport.pause_reading()
            reader.feed_eof()
        await asyncio.gather(*self._connections, return_exceptions=True)
        await self._server.wait_closed()
        self._drained.set()

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.begin_drain)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # platform without loop signal support

    def begin_drain(self) -> None:
        """Stop accepting work; already-accepted work still completes."""
        if not self.queue.draining:
            self.queue.close()

    async def wait_drained(self) -> None:
        """Block until the drain (triggered by :meth:`begin_drain`)
        finishes: queue empty, every waiter answered, sockets closed."""
        await self._drained.wait()

    async def aclose(self) -> None:
        """Drain and shut down (idempotent)."""
        self.begin_drain()
        if self._dispatch_task is not None:
            await self._dispatch_task
        self._dispatch_pool.shutdown(wait=True)
        if self._drain_watcher is not None:
            await self._drain_watcher
        self._drained.set()

    def drain_summary(self) -> dict[str, object]:
        """The post-drain invariant record: every accepted request must
        be resolved or have been answered `timeout` (abandoned)."""
        stats = self.queue.stats
        return {
            "admitted": stats.admitted,
            "resolved": stats.resolved,
            "abandoned": stats.abandoned,
            "unanswered": self.queue.unanswered(),
            "requests": self.counters.requests,
            "ok": self.counters.ok,
            "timeouts": self.counters.timeouts,
            "overloaded": self.counters.overloaded,
            "strategy_executions": self.counters.strategy_executions,
        }

    # -- request handling ----------------------------------------------------

    async def handle_request(self, request: Request) -> dict[str, object]:
        """Answer one validated request (any op)."""
        if request.op == "health":
            self.counters.health += 1
            return protocol.response(
                request.id, "ok", state=self.state,
                version=protocol.PROTOCOL_VERSION,
                schema_version=protocol.SCHEMA_VERSION,
            )
        if request.op == "stats":
            self.counters.stats += 1
            return protocol.response(request.id, "ok", stats=self.stats())
        return await self.handle_compile(request)

    async def handle_compile(self, request: Request) -> dict[str, object]:
        assert request.job is not None
        self.counters.requests += 1
        t0 = time.monotonic()
        if self.queue.draining:
            self.counters.rejected_draining += 1
            return protocol.response(
                request.id, "shutting-down",
                error="server is draining; retry against another instance",
            )
        try:
            flight = self.queue.submit(request.job)
        except RuntimeError:
            self.counters.rejected_draining += 1
            return protocol.response(
                request.id, "shutting-down",
                error="server is draining; retry against another instance",
            )
        if flight is None:
            self.counters.overloaded += 1
            return protocol.response(
                request.id, "overloaded",
                error="admission queue full",
                retry_after_ms=self.config.retry_after_ms,
                queue_depth=self.queue.depth,
            )
        attached = flight.coalesced
        if attached:
            self.counters.dedup_hits += 1

        deadline_s = (
            request.deadline_ms / 1000.0
            if request.deadline_ms is not None
            else self.config.default_deadline
        )
        try:
            result: JobResult = await asyncio.wait_for(
                # shield: one waiter's timeout must not cancel the
                # shared flight future out from under the other waiters
                asyncio.shield(flight.future), timeout=deadline_s
            )
        except asyncio.TimeoutError:
            self.queue.abandon(flight)
            self.counters.timeouts += 1
            self.latency.total.record(time.monotonic() - t0)
            return protocol.response(
                request.id, "timeout",
                error=f"deadline of {deadline_s:.3f}s expired",
                deadline_ms=deadline_s * 1000.0,
            )
        self.latency.total.record(time.monotonic() - t0)
        return self._compile_response(request, flight, result, attached)

    def _compile_response(
        self,
        request: Request,
        flight: Flight,
        result: JobResult,
        attached: bool,
    ) -> dict[str, object]:
        server_info = {
            "queued_ms": flight.queued_for * 1000.0,
            "batch_size": flight.batch_size,
        }
        if result.storage is None:
            self.counters.errors += 1
            return protocol.response(
                request.id, "error",
                error=result.error or "compilation failed",
                server=server_info,
            )
        self.counters.ok += 1
        if result.cache_hit:
            self.counters.cache_hits += 1
        payload: dict[str, object] = {
            "key": result.key,
            "name": request.job.name if request.job else None,
            "strategy": result.job.strategy,
            "method": result.job.method,
            "singles": result.storage.singles,
            "multiples": result.storage.multiples,
            "total_copies": result.storage.total_copies,
            "residual": len(result.storage.residual_instructions),
            "cache_hit": result.cache_hit,
            "dedup": attached,
            "mode": result.mode,
            "wall_time": result.wall_time,
        }
        if result.plan is not None:
            payload["array_opt"] = result.plan.as_dict()
        if request.include_allocation:
            from ..service.cache import encode_storage_result

            payload["allocation"] = encode_storage_result(result.storage)
        return protocol.response(
            request.id, "ok", result=payload, server=server_info
        )

    # -- dispatch ------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        """Pull micro-batches off the queue and run them on the batch
        compiler in the dispatch thread until drained."""
        loop = asyncio.get_running_loop()
        while True:
            batch = await self.queue.next_batch()
            if batch is None:
                break  # draining and empty
            jobs = [flight.job for flight in batch]
            t0 = time.monotonic()
            try:
                report = await loop.run_in_executor(
                    self._dispatch_pool, self.compiler.run, jobs
                )
                results = list(report.results)
            except Exception as exc:  # noqa: BLE001 - batch-level failure
                results = [
                    JobResult(job, None, None, False, "error", 0.0,
                              error=f"dispatch failed: {exc!r}")
                    for job in jobs
                ]
            elapsed = time.monotonic() - t0
            for flight, result in zip(batch, results):
                self.latency.queue_wait.record(flight.queued_for)
                self.latency.execute.record(elapsed)
                self._absorb_metrics(result)
                self.queue.resolve(flight, result)
        # past this point nothing new can be admitted; the queue is
        # fully drained once every submitted flight above was resolved.
        self._queue_drained.set()

    def _absorb_metrics(self, result: JobResult) -> None:
        if result.ok and not result.cache_hit:
            self.counters.strategy_executions += 1
        if result.plan is not None:
            self.counters.array_opt_compiles += 1
        for stage in result.metrics.get("stages", ()):  # type: ignore[union-attr]
            name = str(stage["name"])
            self._stage_totals[name] = (
                self._stage_totals.get(name, 0.0) + float(stage["wall_time"])
            )
        for key, value in result.metrics.get("counters", {}).items():  # type: ignore[union-attr]
            self._metric_counters[key] = (
                self._metric_counters.get(key, 0) + value
            )

    # -- observability -------------------------------------------------------

    def stats(self) -> dict[str, object]:
        """The ``stats`` endpoint payload."""
        return {
            "state": self.state,
            "uptime_s": time.monotonic() - self._started_at,
            "schema_version": protocol.SCHEMA_VERSION,
            "config": {
                "workers": self.config.workers,
                "max_queue": self.config.max_queue,
                "max_batch": self.config.max_batch,
                "batch_window": self.config.batch_window,
                "default_deadline": self.config.default_deadline,
            },
            "requests": self.counters.as_dict(),
            "queue": self.queue.as_dict(),
            "latency": self.latency.as_dict(),
            "cache": self.compiler.cache.stats(),
            "frontend_cache": self.compiler.artifacts.stats(),
            "stage_totals": dict(self._stage_totals),
            "metric_counters": dict(self._metric_counters),
        }

    # -- connection handling -------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections[task] = (reader, writer)
        try:
            await protocol.serve_lines(
                reader, writer, self._handle_line, self.counters
            )
        finally:
            del self._connections[task]

    async def _handle_line(self, line: bytes) -> dict[str, object]:
        try:
            request = protocol.parse_request(protocol.decode_message(line))
        except ProtocolError as exc:
            self.counters.protocol_errors += 1
            return protocol.error_response(None, str(exc))
        return await self.handle_request(request)


async def serve(
    config: ServerConfig,
    *,
    announce=None,
    signals: bool = True,
) -> dict[str, object]:
    """Run one server until drained; the ``python -m repro serve`` body.

    ``announce(event_dict)`` is called with a ``serving`` record once
    the socket is bound (carrying the live host/port — port 0 picks an
    ephemeral one) and with the drain summary on exit; the CLI prints
    these as single JSON lines so harnesses can scrape them.
    """
    server = CompileServer(config)
    await server.start()
    if signals:
        server.install_signal_handlers()
    if announce is not None:
        host, port = server.address
        announce({
            "event": "serving", "host": host, "port": port,
            "pid": os.getpid(),
        })
    await server.wait_drained()
    await server.aclose()
    summary = server.drain_summary()
    if announce is not None:
        announce({"event": "drained", **summary})
    return summary
