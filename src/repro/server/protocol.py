"""Wire protocol of the compile server: newline-delimited JSON over TCP.

One request per line, one response line per request, in order::

    {"id": 1, "op": "compile", "source": "program p; ...", "strategy":
     "STOR1", "machine": {"num_fus": 4, "num_modules": 8},
     "deadline_ms": 30000}\n

    {"id": 1, "status": "ok", "result": {"key": "...", "singles": 7,
     "multiples": 1, "total_copies": 9, "residual": 0, "cache_hit":
     false, "dedup": false}, "server": {"queued_ms": 1.9,
     "batch_size": 4}}\n

Three operations exist:

``compile``
    Compile + storage-allocate one program.  The request body carries
    ``source``, ``name``, ``machine``, the job knobs of
    :mod:`repro.passes.knobs` (``strategy``, ``method``, ``unroll``, ...;
    each validated with its knob's message), plus a per-request
    ``deadline_ms`` and ``include_allocation`` (return the full encoded
    :class:`~repro.core.strategies.StorageResult`, not just the summary).
    Any other field is an error naming it.
``health``
    Liveness probe; answered immediately, even while draining.
``stats``
    Full server statistics snapshot (queue, batches, dedup, latency
    percentiles, cache counters).

Response ``status`` values (:data:`STATUSES`):

- ``ok`` — result attached;
- ``error`` — malformed request, oversized source, unknown strategy, or
  a compile/allocation failure (``error`` field has the message);
- ``overloaded`` — the bounded admission queue is full; the request was
  *not* accepted and the client should back off and retry
  (``retry_after_ms`` is a hint);
- ``timeout`` — the request's deadline expired before a result was
  ready (the underlying work may still complete and warm the cache);
- ``shutting-down`` — the server is draining and accepts no new work.

Framing limits are explicit: a request line longer than
:data:`MAX_LINE_BYTES` is a protocol error (the connection is closed
after an error response), and a ``source`` longer than
:data:`MAX_SOURCE_BYTES` is rejected per-request — an oversized/poison
program costs one error response, never a crash or an unbounded buffer.

``health`` and ``stats`` responses carry ``schema_version``
(:data:`SCHEMA_VERSION`) so probes can tell which payload shape they
are reading.  The server reads its sockets with :func:`serve_lines`.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Awaitable, Callable, Protocol

from ..liw.machine import MachineConfig
from ..passes.knobs import JOB_KNOBS
from ..service.batch import BatchJob

#: Hard cap on one request/response line (framing level).
MAX_LINE_BYTES = 1 << 20
#: Hard cap on the ``source`` field of a compile request.
MAX_SOURCE_BYTES = 1 << 18

PROTOCOL_VERSION = 1
#: Version of the ``health``/``stats`` payload schema.  Bumped when
#: fields are added/renamed so dashboards and harnesses can detect
#: what they are talking to; 2 added ``role``/``worker_id``; 3 added
#: a stats block for the atom-fragment cache (and the
#: ``max_atom_nodes``/``runner`` compile-request fields); 4 added the
#: ``array_layout`` compile-request field, the per-result ``array_opt``
#: summary, and the ``array_opt_compiles`` counter; 5 added the
#: ``frontend``/``entry`` compile-request fields (CPython-bytecode
#: frontend); 6 removed the fragment-cache stats block with the cache;
#: 7 removed ``role``, ``worker_id`` and the forwarded-in request
#: counter with the distributed fabric; 8 removed the ``upgrades``
#: block, its four request counters and ``config.adaptive`` with the
#: background upgrade lane; 9 rejects compile-request fields outside
#: :data:`COMPILE_FIELDS` (before, an unknown field was ignored).
SCHEMA_VERSION = 9

OPS = ("compile", "health", "stats")
#: Every field a compile request may carry: the envelope plus the job
#: knobs.
COMPILE_FIELDS = frozenset(
    {"op", "id", "source", "name", "machine", "deadline_ms",
     "include_allocation"} | {knob.name for knob in JOB_KNOBS}
)
STATUSES = ("ok", "error", "overloaded", "timeout", "shutting-down")


class ProtocolError(ValueError):
    """A request that cannot be parsed into a valid operation."""


@dataclass(frozen=True, slots=True)
class Request:
    """One decoded, validated client request."""

    op: str
    id: object = None
    job: BatchJob | None = None  # compile only
    deadline_ms: float | None = None
    include_allocation: bool = False


def encode_message(payload: dict[str, object]) -> bytes:
    """One protocol line: compact JSON + newline."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_message(line: bytes) -> dict[str, object]:
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"line exceeds {MAX_LINE_BYTES} bytes")
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        # A line under MAX_LINE_BYTES can still nest arrays or objects
        # deeper than the decoder recurses.
        raise ProtocolError("not valid JSON: nested too deeply") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("request must be a JSON object")
    return obj


def machine_from_dict(data: object) -> MachineConfig:
    """Build a MachineConfig from the optional ``machine`` field."""
    if data is None:
        return MachineConfig()
    if not isinstance(data, dict):
        raise ProtocolError("machine must be an object")
    allowed = {"num_fus", "num_modules", "mem_ports", "delta"}
    unknown = set(data) - allowed
    if unknown:
        raise ProtocolError(f"unknown machine fields: {sorted(unknown)}")
    try:
        return MachineConfig(**data)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad machine config: {exc}") from exc


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def parse_request(obj: dict[str, object]) -> Request:
    """Validate one decoded request object into a :class:`Request`.

    Everything user-controlled is checked here, before any work is
    queued, so a malformed request costs one error response."""
    op = obj.get("op")
    _require(op in OPS, f"op must be one of {OPS}, got {op!r}")
    request_id = obj.get("id")
    if op != "compile":
        return Request(op=str(op), id=request_id)
    unknown = sorted(set(obj) - COMPILE_FIELDS)
    _require(not unknown, f"unknown compile fields: {unknown}")

    source = obj.get("source")
    _require(isinstance(source, str) and source.strip() != "",
             "compile requires a non-empty 'source' string")
    assert isinstance(source, str)
    _require(
        len(source.encode("utf-8", "ignore")) <= MAX_SOURCE_BYTES,
        f"source exceeds {MAX_SOURCE_BYTES} bytes",
    )

    try:
        knobs = {
            knob.name: knob.parse(obj.get(knob.name, knob.default))
            for knob in JOB_KNOBS
        }
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc

    deadline_ms = obj.get("deadline_ms")
    if deadline_ms is not None:
        _require(
            isinstance(deadline_ms, (int, float))
            and not isinstance(deadline_ms, bool) and deadline_ms > 0,
            "deadline_ms must be a positive number",
        )

    machine = machine_from_dict(obj.get("machine"))
    name = obj.get("name", "request")
    _require(isinstance(name, str), "name must be a string")
    include_allocation = obj.get("include_allocation", False)
    _require(isinstance(include_allocation, bool),
             "include_allocation must be a boolean")
    assert isinstance(name, str) and isinstance(include_allocation, bool)
    return Request(
        op="compile",
        id=request_id,
        job=BatchJob(name, source, machine, **knobs),
        deadline_ms=None if deadline_ms is None else float(deadline_ms),
        include_allocation=include_allocation,
    )


def response(
    request_id: object, status: str, **fields: object
) -> dict[str, object]:
    assert status in STATUSES, status
    out: dict[str, object] = {"id": request_id, "status": status}
    out.update(fields)
    return out


def error_response(request_id: object, message: str) -> dict[str, object]:
    return response(request_id, "error", error=message)


class LineCounters(Protocol):
    """The counters :func:`serve_lines` updates."""

    connections: int
    oversized_lines: int
    protocol_errors: int


async def serve_lines(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    handle_line: Callable[[bytes], Awaitable[dict[str, object]]],
    counters: LineCounters,
) -> None:
    """Answer one connection's request lines with ``handle_line``, in
    order, until EOF.  Blank lines are skipped; a line over
    :data:`MAX_LINE_BYTES` gets one error response and the connection
    is closed; a client that resets the connection is not an error."""
    counters.connections += 1
    try:
        while True:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                # A line longer than the stream limit: answer once,
                # then close — the stream cannot be resynchronized.
                counters.oversized_lines += 1
                counters.protocol_errors += 1
                writer.write(encode_message(error_response(
                    None, f"request line exceeds {MAX_LINE_BYTES} bytes"
                )))
                await writer.drain()
                break
            if not line:
                break  # EOF
            if line.strip() == b"":
                continue
            writer.write(encode_message(await handle_line(line)))
            await writer.drain()
    except (ConnectionResetError, BrokenPipeError):
        pass  # client vanished; any accepted work still completes
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
