"""The sharding gateway of the distributed compile fabric.

:class:`CompileGateway` terminates client NDJSON connections exactly
like :class:`~repro.server.server.CompileServer` does, but owns no
compiler: each ``compile`` request is consistent-hashed by its
content-addressed source key (:meth:`repro.service.batch.BatchJob
.source_key` — the same key the worker's admission queue dedups on)
onto the :class:`ShardMap` and relayed to the owning worker with
:func:`repro.server.protocol.forward_envelope`.

Shard ownership is what turns the workers' *in-process* single-flight
dedup into *cluster-wide* single-flight: every duplicate of a given
source lands on the same worker, whose
:class:`~repro.server.queueing.AdmissionQueue` coalesces them into one
execution, and all workers share one multi-process-safe
:class:`~repro.service.AllocationCache` directory so a key compiled
anywhere is a cache hit everywhere.

Failure handling is bounded and client-transparent:

- a transport error or ``shutting-down`` answer from the owner makes
  the gateway retry the request against the next workers on the key's
  ring *preference list* (``failover`` successors, distinct workers);
- when every candidate fails, the client gets ``overloaded`` +
  ``retry_after_ms`` — a retryable shed, never a hard failure — so a
  worker crash mid-run costs clients at most a retry while the fabric
  supervisor (:mod:`repro.server.fabric`) restarts the worker;
- deadline budget is propagated: the forwarded ``deadline_ms`` is the
  client's remaining budget at forward time, so a worker never works
  past a deadline the client has already given up on.

The ring hashes *worker ids*, not endpoints: a worker restarted on a
new ephemeral port (``update_endpoint``) keeps its shards, preserving
cluster-wide single-flight across restarts.

``health`` answers locally and instantly.  ``stats`` fans out to every
worker and aggregates a ``cluster`` block (key-wise sums of the worker
request counters) next to the gateway's own counters, so one probe
describes the whole fabric.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from dataclasses import dataclass

from ..service.batch import BatchJob
from . import protocol
from .protocol import ProtocolError


@dataclass(slots=True)
class WorkerEndpoint:
    """Where one worker listens right now (host/port may change on
    restart; ``worker_id`` is its stable shard-map identity)."""

    worker_id: str
    host: str
    port: int


def shard_key(job: BatchJob) -> str:
    """The key a compile request shards on: the cheap content hash of
    (source, knobs) — computable without compiling, and exactly the key
    :class:`~repro.server.queueing.AdmissionQueue` single-flights on."""
    return job.source_key()


class ShardMap:
    """Consistent-hash ring over worker ids with virtual nodes.

    ``replicas`` virtual nodes per worker smooth the key distribution;
    :meth:`preference` walks the ring clockwise from the key's position
    and returns the first ``n`` *distinct* workers — the owner first,
    then the failover order.  Adding/removing one worker only moves the
    keys adjacent to its virtual nodes (~1/N of the space).
    """

    def __init__(self, worker_ids: list[str] | None = None, *,
                 replicas: int = 64):
        assert replicas >= 1
        self.replicas = replicas
        self._ring: list[tuple[int, str]] = []
        self._workers: set[str] = set()
        for worker_id in worker_ids or []:
            self.add(worker_id)

    @staticmethod
    def _point(label: str) -> int:
        return int.from_bytes(
            hashlib.sha256(label.encode("utf-8")).digest()[:8], "big"
        )

    def add(self, worker_id: str) -> None:
        if worker_id in self._workers:
            return
        self._workers.add(worker_id)
        for i in range(self.replicas):
            self._ring.append(
                (self._point(f"{worker_id}#{i}"), worker_id)
            )
        self._ring.sort()

    def remove(self, worker_id: str) -> None:
        self._workers.discard(worker_id)
        self._ring = [(p, w) for p, w in self._ring if w != worker_id]

    def __len__(self) -> int:
        return len(self._workers)

    def __contains__(self, worker_id: str) -> bool:
        return worker_id in self._workers

    def preference(self, key: str, n: int = 1) -> list[str]:
        """The first ``n`` distinct workers clockwise from ``key``:
        the shard owner, then its failover successors."""
        if not self._ring:
            return []
        point = self._point(key)
        # bisect over the (point, worker) pairs; ties cannot collide
        # with real entries because keys and vnode labels differ.
        lo, hi = 0, len(self._ring)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._ring[mid][0] < point:
                lo = mid + 1
            else:
                hi = mid
        out: list[str] = []
        for i in range(len(self._ring)):
            worker = self._ring[(lo + i) % len(self._ring)][1]
            if worker not in out:
                out.append(worker)
                if len(out) >= min(n, len(self._workers)):
                    break
        return out

    def owner(self, key: str) -> str | None:
        pref = self.preference(key, 1)
        return pref[0] if pref else None


class WorkerLink:
    """A pooled NDJSON connection set to one worker.

    One in-flight request per connection (responses are in-order per
    connection on the worker side); idle connections are reused.  On a
    transport error the failed connection is discarded and the error
    propagates to the gateway's failover logic.  :meth:`retarget`
    repoints the link after a worker restart, dropping stale idle
    connections to the dead port.
    """

    def __init__(self, endpoint: WorkerEndpoint, *,
                 connect_timeout: float = 5.0):
        self.endpoint = endpoint
        self.connect_timeout = connect_timeout
        self._idle: list[tuple[asyncio.StreamReader,
                               asyncio.StreamWriter]] = []

    def retarget(self, host: str, port: int) -> None:
        self.endpoint.host = host
        self.endpoint.port = port
        idle, self._idle = self._idle, []
        for _, writer in idle:
            writer.close()

    async def _checkout(
        self,
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        while self._idle:
            reader, writer = self._idle.pop()
            if not writer.is_closing():
                return reader, writer
        return await asyncio.wait_for(
            asyncio.open_connection(
                self.endpoint.host, self.endpoint.port,
                limit=protocol.MAX_LINE_BYTES,
            ),
            timeout=self.connect_timeout,
        )

    async def request(
        self, obj: dict[str, object], *, timeout: float | None = None
    ) -> dict[str, object]:
        """One round trip; raises ``ConnectionError``/``OSError``/
        ``asyncio.TimeoutError`` on transport failure."""
        reader, writer = await self._checkout()
        try:
            writer.write(protocol.encode_message(obj))
            await writer.drain()
            read = reader.readline()
            line = await (
                asyncio.wait_for(read, timeout=timeout)
                if timeout is not None else read
            )
            if not line:
                raise ConnectionResetError(
                    f"worker {self.endpoint.worker_id} closed the connection"
                )
        except BaseException:
            writer.close()
            raise
        self._idle.append((reader, writer))
        return protocol.decode_message(line)

    async def aclose(self) -> None:
        idle, self._idle = self._idle, []
        for _, writer in idle:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass


#: Exceptions that mean "this worker is unreachable right now" —
#: the trigger for ring failover rather than a client-visible error.
TRANSPORT_ERRORS = (
    ConnectionError, OSError, EOFError,
    asyncio.TimeoutError, asyncio.IncompleteReadError,
)


@dataclass(frozen=True, slots=True)
class GatewayConfig:
    """Tunables of one :class:`CompileGateway`."""

    host: str = "127.0.0.1"
    port: int = 0
    #: provenance id stamped into forwarded requests' ``via``
    gateway_id: str = "gw-0"
    #: ring successors tried after the shard owner fails (distinct
    #: workers); the total attempts per request is ``1 + failover``
    failover: int = 1
    #: backoff hint attached to `overloaded` responses when every
    #: candidate worker was unreachable
    retry_after_ms: float = 50.0
    connect_timeout: float = 5.0
    #: deadline assumed for clients that send none (budget propagation)
    default_deadline: float = 60.0
    #: floor on the budget forwarded to a worker, so a nearly-expired
    #: deadline still makes a well-formed (positive) forwarded request
    min_forward_budget_ms: float = 10.0
    #: virtual nodes per worker on the consistent-hash ring
    ring_replicas: int = 64


@dataclass(slots=True)
class GatewayCounters:
    """Gateway-side outcome counters for ``stats``."""

    connections: int = 0
    requests: int = 0
    forwarded: int = 0
    failovers: int = 0
    worker_errors: int = 0
    shed_no_worker: int = 0
    rejected_draining: int = 0
    health: int = 0
    stats: int = 0
    protocol_errors: int = 0
    oversized_lines: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "connections": self.connections,
            "requests": self.requests,
            "forwarded": self.forwarded,
            "failovers": self.failovers,
            "worker_errors": self.worker_errors,
            "shed_no_worker": self.shed_no_worker,
            "rejected_draining": self.rejected_draining,
            "health": self.health,
            "stats": self.stats,
            "protocol_errors": self.protocol_errors,
            "oversized_lines": self.oversized_lines,
        }


class CompileGateway:
    """The client-facing shard router; see the module docstring."""

    def __init__(
        self,
        config: GatewayConfig | None = None,
        endpoints: list[WorkerEndpoint] | None = None,
        *,
        extra_stats=None,
    ):
        self.config = config or GatewayConfig()
        self.counters = GatewayCounters()
        self.shards = ShardMap(replicas=self.config.ring_replicas)
        self._links: dict[str, WorkerLink] = {}
        #: optional callable returning a ``fabric`` stats block
        #: (the supervisor injects worker pids/restart counts here)
        self._extra_stats = extra_stats
        self._server: asyncio.AbstractServer | None = None
        self._draining = False
        self._drained = asyncio.Event()
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._started_at = time.monotonic()
        for endpoint in endpoints or []:
            self.add_worker(endpoint)

    # -- worker registry -----------------------------------------------------

    def add_worker(self, endpoint: WorkerEndpoint) -> None:
        assert endpoint.worker_id not in self._links, endpoint.worker_id
        self.shards.add(endpoint.worker_id)
        self._links[endpoint.worker_id] = WorkerLink(
            endpoint, connect_timeout=self.config.connect_timeout
        )

    def update_endpoint(self, worker_id: str, host: str, port: int) -> None:
        """Repoint a restarted worker; its shard assignment (keyed on
        ``worker_id``, not the endpoint) is untouched."""
        self._links[worker_id].retarget(host, port)

    @property
    def worker_ids(self) -> list[str]:
        return sorted(self._links)

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        assert self._server is not None and self._server.sockets
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    @property
    def state(self) -> str:
        if self._drained.is_set():
            return "stopped"
        return "draining" if self._draining else "serving"

    async def start(self) -> None:
        self._started_at = time.monotonic()
        self._server = await asyncio.start_server(
            self._serve_connection,
            self.config.host,
            self.config.port,
            limit=protocol.MAX_LINE_BYTES,
        )

    def begin_drain(self) -> None:
        """Refuse new compile requests; in-flight forwards complete."""
        self._draining = True

    async def wait_drained(self) -> None:
        """Block until draining and every in-flight forward answered."""
        while not (self._draining and self._idle.is_set()):
            if self._draining:
                await self._idle.wait()
            else:
                await asyncio.sleep(0.01)

    async def aclose(self) -> None:
        self.begin_drain()
        await self._idle.wait()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for link in self._links.values():
            await link.aclose()
        self._drained.set()

    # -- connection handling -------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await protocol.serve_lines(
            reader, writer, self._handle_line, self.counters
        )

    async def _handle_line(self, line: bytes) -> dict[str, object]:
        try:
            obj = protocol.decode_message(line)
            request = protocol.parse_request(obj)
        except ProtocolError as exc:
            self.counters.protocol_errors += 1
            return protocol.error_response(None, str(exc))
        if request.op == "health":
            self.counters.health += 1
            return protocol.response(
                request.id, "ok", state=self.state,
                version=protocol.PROTOCOL_VERSION,
                workers=len(self.shards),
                **protocol.identity("gateway"),
            )
        if request.op == "stats":
            self.counters.stats += 1
            return protocol.response(
                request.id, "ok", stats=await self.stats()
            )
        return await self._handle_compile(obj, request)

    # -- forwarding ----------------------------------------------------------

    async def _handle_compile(
        self, obj: dict[str, object], request: protocol.Request
    ) -> dict[str, object]:
        assert request.job is not None
        self.counters.requests += 1
        if self._draining:
            self.counters.rejected_draining += 1
            return protocol.response(
                request.id, "shutting-down",
                error="gateway is draining; retry against another instance",
            )
        self._inflight += 1
        self._idle.clear()
        try:
            return await self._forward(obj, request)
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()

    async def _forward(
        self, obj: dict[str, object], request: protocol.Request
    ) -> dict[str, object]:
        assert request.job is not None
        t0 = time.monotonic()
        budget_s = (
            request.deadline_ms / 1000.0
            if request.deadline_ms is not None
            else self.config.default_deadline
        )
        key = shard_key(request.job)
        candidates = self.shards.preference(key, 1 + self.config.failover)
        if not candidates:
            self.counters.shed_no_worker += 1
            return protocol.response(
                request.id, "overloaded",
                error="no workers registered",
                retry_after_ms=self.config.retry_after_ms,
            )
        for i, worker_id in enumerate(candidates):
            remaining_ms = max(
                self.config.min_forward_budget_ms,
                (budget_s - (time.monotonic() - t0)) * 1000.0,
            )
            try:
                fwd = protocol.forward_envelope(
                    obj,
                    deadline_ms=remaining_ms,
                    gateway=self.config.gateway_id,
                    hop=request.hop + 1,
                )
            except ProtocolError as exc:  # relay-depth overflow
                self.counters.protocol_errors += 1
                return protocol.error_response(request.id, str(exc))
            link = self._links[worker_id]
            try:
                # Grace on top of the worker-side deadline so the
                # worker's own `timeout` answer wins the race.
                reply = await link.request(
                    fwd, timeout=remaining_ms / 1000.0 + 1.0
                )
            except TRANSPORT_ERRORS:
                self.counters.worker_errors += 1
                if i + 1 < len(candidates):
                    self.counters.failovers += 1
                continue
            if (
                reply.get("status") == "shutting-down"
                and i + 1 < len(candidates)
            ):
                self.counters.failovers += 1
                continue
            self.counters.forwarded += 1
            return reply
        # Every candidate unreachable: shed retryably; the supervisor
        # is restarting workers and the client's backoff covers it.
        return protocol.response(
            request.id, "overloaded",
            error=f"all {len(candidates)} candidate workers unreachable",
            retry_after_ms=self.config.retry_after_ms,
        )

    # -- observability -------------------------------------------------------

    async def _worker_stats(
        self, worker_id: str
    ) -> tuple[str, dict[str, object]]:
        link = self._links[worker_id]
        try:
            reply = await link.request(
                {"op": "stats", "id": f"gw-stats-{worker_id}"}, timeout=5.0
            )
        except TRANSPORT_ERRORS:
            return worker_id, {
                "state": "down",
                "endpoint": f"{link.endpoint.host}:{link.endpoint.port}",
            }
        stats = reply.get("stats")
        return worker_id, (
            stats if isinstance(stats, dict)
            else {"state": "bad-stats-reply"}
        )

    async def stats(self) -> dict[str, object]:
        """Gateway stats plus a per-worker fan-out and the ``cluster``
        rollup (key-wise sum of worker request counters)."""
        pairs = await asyncio.gather(
            *(self._worker_stats(w) for w in self.worker_ids)
        )
        workers = dict(pairs)
        cluster: dict[str, object] = {"workers": len(workers),
                                      "workers_up": 0}
        for stats in workers.values():
            requests = stats.get("requests")
            if not isinstance(requests, dict):
                continue
            cluster["workers_up"] = int(cluster["workers_up"]) + 1
            for counter, value in requests.items():
                if isinstance(value, int):
                    base = cluster.get(counter, 0)
                    cluster[counter] = (
                        base if isinstance(base, int) else 0
                    ) + value
        out: dict[str, object] = {
            "state": self.state,
            "uptime_s": time.monotonic() - self._started_at,
            **protocol.identity("gateway"),
            "gateway_id": self.config.gateway_id,
            "config": {
                "failover": self.config.failover,
                "ring_replicas": self.config.ring_replicas,
                "default_deadline": self.config.default_deadline,
            },
            "requests": self.counters.as_dict(),
            "workers": workers,
            "cluster": cluster,
        }
        if self._extra_stats is not None:
            out["fabric"] = self._extra_stats()
        return out
