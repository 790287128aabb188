"""Client library for the compile server.

:class:`ServerClient` speaks the newline-delimited JSON protocol of
:mod:`repro.server.protocol` over one TCP connection and adds the retry
discipline a well-behaved client owes a backpressured service:

- **transport retries** — a refused/reset/half-closed connection is
  re-established and the request re-sent (requests are idempotent: the
  server's content-addressed cache makes a replay at worst a cache hit);
- **overload retries** — an ``overloaded`` response is retried after an
  exponential backoff with full jitter, honouring the server's
  ``retry_after_ms`` hint as the floor;
- **no retry** on ``error`` (the request itself is bad), ``timeout``
  (the deadline budget is spent), or ``shutting-down`` (this instance
  is going away) — those come back to the caller as-is.

The jitter source is an injectable :class:`random.Random` so tests and
the load generator stay deterministic.

Synchronous callers can use :func:`call_once` (connect, one request,
close) without touching asyncio.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket

from ..passes.knobs import KNOB
from .protocol import MAX_LINE_BYTES, encode_message


class TransportError(ConnectionError):
    """Could not obtain a response after every retry."""


class ServerClient:
    """One connection to a compile server, with retry/backoff policy.

    Parameters
    ----------
    retries:
        Attempts per request *beyond* the first (applies independently
        to transport failures and overload shedding).
    backoff_base / backoff_cap:
        The exponential schedule: attempt ``i`` sleeps
        ``min(cap, base * 2**i)`` scaled by full jitter in ``[0.5, 1.5)``.
    rng:
        Jitter source; pass a seeded :class:`random.Random` for
        reproducible schedules.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7070,
        *,
        retries: int = 4,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        connect_timeout: float = 5.0,
        response_timeout: float | None = None,
        rng: random.Random | None = None,
    ):
        self.host = host
        self.port = port
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.connect_timeout = connect_timeout
        self.response_timeout = response_timeout
        self.rng = rng if rng is not None else random.Random()
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._next_id = 0
        #: retry observability (the load generator reports these)
        self.overload_retries = 0
        self.transport_retries = 0

    # -- connection management ----------------------------------------------

    @property
    def connected(self) -> bool:
        return self._writer is not None and not self._writer.is_closing()

    async def connect(self) -> None:
        if self.connected:
            return
        self._reader, self._writer = await asyncio.wait_for(
            asyncio.open_connection(
                self.host, self.port, limit=MAX_LINE_BYTES
            ),
            timeout=self.connect_timeout,
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
            self._reader = None

    async def __aenter__(self) -> "ServerClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # -- request plumbing ----------------------------------------------------

    def backoff_delay(self, attempt: int, floor: float = 0.0) -> float:
        """Sleep before retry ``attempt`` (0-based): exponential with
        full jitter, never below the server-provided ``floor``."""
        base = min(self.backoff_cap, self.backoff_base * (2 ** attempt))
        return max(floor, base * (0.5 + self.rng.random()))

    async def _roundtrip(self, payload: dict[str, object]) -> dict[str, object]:
        """One attempt: send one line, read one line."""
        await self.connect()
        assert self._reader is not None and self._writer is not None
        self._writer.write(encode_message(payload))
        await self._writer.drain()
        read = self._reader.readline()
        if self.response_timeout is not None:
            line = await asyncio.wait_for(read, timeout=self.response_timeout)
        else:
            line = await read
        if not line:
            raise ConnectionResetError("server closed the connection")
        return json.loads(line)

    async def request(self, op: str, **fields: object) -> dict[str, object]:
        """Send one request, applying the full retry policy.

        Returns the final response dict (any status); raises
        :class:`TransportError` only when no response could be obtained
        within the retry budget."""
        self._next_id += 1
        payload: dict[str, object] = {
            "op": op, "id": self._next_id, **fields
        }
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            try:
                reply = await self._roundtrip(payload)
            except (ConnectionError, OSError, EOFError,
                    asyncio.IncompleteReadError, socket.gaierror) as exc:
                last_error = exc
                await self.close()
                if attempt < self.retries:
                    self.transport_retries += 1
                    await asyncio.sleep(self.backoff_delay(attempt))
                continue
            if reply.get("status") == "overloaded" and attempt < self.retries:
                self.overload_retries += 1
                hint = float(reply.get("retry_after_ms", 0.0)) / 1000.0
                await asyncio.sleep(self.backoff_delay(attempt, floor=hint))
                continue
            return reply
        raise TransportError(
            f"no response from {self.host}:{self.port} after "
            f"{self.retries + 1} attempts: {last_error!r}"
        )

    # -- operations ----------------------------------------------------------

    async def compile(
        self,
        source: str,
        *,
        name: str = "request",
        machine: dict[str, object] | None = None,
        deadline_ms: float | None = None,
        include_allocation: bool = False,
        **knobs: object,
    ) -> dict[str, object]:
        """Compile ``source`` under ``knobs`` (any job knob of
        :mod:`repro.passes.knobs`); only non-default values are sent."""
        fields: dict[str, object] = {"source": source, "name": name}
        for key, value in knobs.items():
            knob = KNOB.get(key)
            if knob is None or not knob.job:
                raise TypeError(f"compile() got an unknown knob {key!r}")
            if value != knob.default:
                fields[key] = value
        if machine is not None:
            fields["machine"] = machine
        if deadline_ms is not None:
            fields["deadline_ms"] = deadline_ms
        if include_allocation:
            fields["include_allocation"] = True
        return await self.request("compile", **fields)

    async def health(self) -> dict[str, object]:
        return await self.request("health")

    async def stats(self) -> dict[str, object]:
        reply = await self.request("stats")
        stats = reply.get("stats")
        return stats if isinstance(stats, dict) else reply


def call_once(
    host: str, port: int, op: str, /, **fields: object
) -> dict[str, object]:
    """Blocking one-shot helper: connect, one request, disconnect."""

    async def _go() -> dict[str, object]:
        client = ServerClient(host, port)
        try:
            return await client.request(op, **fields)
        finally:
            await client.close()

    return asyncio.run(_go())
