"""Online compilation service: asyncio JSON-over-TCP front door.

Where :mod:`repro.service` batch-compiles an offline corpus, this
package *serves* compilation: ``python -m repro serve`` runs a
:class:`CompileServer` that accepts compile/allocate requests over TCP,
coalesces them into micro-batches for the
:class:`~repro.service.BatchCompiler`, deduplicates identical in-flight
work single-flight, sheds load from a bounded admission queue with
explicit ``overloaded`` responses, honours per-request deadlines, and
drains gracefully on SIGTERM.

Modules:

``repro.server.protocol``
    The wire format — newline-delimited JSON, request validation,
    framing/size limits, response statuses.
``repro.server.queueing``
    :class:`AdmissionQueue` — bounded admission, single-flight dedup,
    micro-batch coalescing, drain semantics.  Pure asyncio, no sockets.
``repro.server.server``
    :class:`CompileServer` + :func:`serve` — the TCP service, deadline
    handling, dispatch loop, ``health``/``stats`` endpoints.  With
    ``serve --workers N`` the batch compiler runs on N processes over
    one shared allocation cache.
``repro.server.client``
    :class:`ServerClient` — retries, exponential backoff with jitter,
    overload-aware request policy.
``repro.server.loadgen``
    The load generator behind ``python -m repro loadgen`` and
    ``benchmarks/bench_server.py``.

See ``docs/server.md`` for the protocol, backpressure semantics, and
the ops runbook.
"""

from .client import ServerClient, TransportError
from .loadgen import LoadgenConfig, run_load
from .protocol import (
    MAX_LINE_BYTES,
    MAX_SOURCE_BYTES,
    ProtocolError,
    Request,
)
from .queueing import AdmissionQueue, Flight
from .server import (
    CompileServer,
    ServerConfig,
    ServerCounters,
    serve,
)

__all__ = [
    "AdmissionQueue",
    "CompileServer",
    "Flight",
    "LoadgenConfig",
    "MAX_LINE_BYTES",
    "MAX_SOURCE_BYTES",
    "ProtocolError",
    "Request",
    "ServerClient",
    "ServerConfig",
    "ServerCounters",
    "TransportError",
    "run_load",
    "serve",
]
