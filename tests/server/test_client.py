"""ServerClient retry policy: backoff schedule, overload and transport
retries, give-up behavior — against scripted fake servers."""

import asyncio
import json
import random

import pytest

from repro.passes.knobs import JOB_KNOBS, KNOB
from repro.server.client import ServerClient, TransportError
from repro.server.protocol import encode_message, parse_request
from repro.service.batch import BatchJob


def test_backoff_is_exponential_capped_and_jittered():
    client = ServerClient(rng=random.Random(42), backoff_base=0.1,
                          backoff_cap=1.0)
    for attempt in range(8):
        base = min(1.0, 0.1 * 2 ** attempt)
        for _ in range(20):
            delay = client.backoff_delay(attempt)
            assert base * 0.5 <= delay < base * 1.5
    # The server's retry_after hint is a floor.
    assert client.backoff_delay(0, floor=5.0) == 5.0


def test_backoff_deterministic_with_seeded_rng():
    a = ServerClient(rng=random.Random(7))
    b = ServerClient(rng=random.Random(7))
    assert [a.backoff_delay(i) for i in range(5)] == [
        b.backoff_delay(i) for i in range(5)
    ]


class ScriptedServer:
    """A raw TCP server answering from a per-connection script."""

    def __init__(self, replies, *, close_after=None):
        self.replies = list(replies)
        self.close_after = close_after
        self.requests_seen = []
        self.connections = 0
        self._server = None

    async def __aenter__(self):
        self._server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        return self

    async def __aexit__(self, *exc):
        self._server.close()
        await self._server.wait_closed()

    @property
    def port(self):
        return self._server.sockets[0].getsockname()[1]

    async def _handle(self, reader, writer):
        self.connections += 1
        answered = 0
        while True:
            line = await reader.readline()
            if not line:
                break
            request = json.loads(line)
            self.requests_seen.append(request)
            if not self.replies:
                break
            reply = dict(self.replies.pop(0))
            reply.setdefault("id", request.get("id"))
            writer.write(encode_message(reply))
            await writer.drain()
            answered += 1
            if self.close_after is not None and answered >= self.close_after:
                break
        writer.close()


def test_overloaded_responses_are_retried_until_ok():
    async def main():
        replies = [
            {"status": "overloaded", "retry_after_ms": 1.0},
            {"status": "overloaded", "retry_after_ms": 1.0},
            {"status": "ok", "result": {"singles": 1}},
        ]
        async with ScriptedServer(replies) as fake:
            client = ServerClient(
                "127.0.0.1", fake.port, retries=4,
                backoff_base=0.001, rng=random.Random(0),
            )
            reply = await client.request("compile", source="program x...")
            await client.close()
        assert reply["status"] == "ok"
        assert client.overload_retries == 2
        assert len(fake.requests_seen) == 3
        # All three attempts reused one connection (overload retries do
        # not reconnect).
        assert fake.connections == 1

    asyncio.run(main())


def test_overload_retry_budget_exhausted_returns_last_reply():
    async def main():
        replies = [{"status": "overloaded", "retry_after_ms": 1.0}] * 3
        async with ScriptedServer(replies) as fake:
            client = ServerClient(
                "127.0.0.1", fake.port, retries=2,
                backoff_base=0.001, rng=random.Random(0),
            )
            reply = await client.request("compile", source="s")
            await client.close()
        assert reply["status"] == "overloaded"  # surfaced, not raised
        assert client.overload_retries == 2

    asyncio.run(main())


def test_transport_retry_reconnects_after_server_hangup():
    async def main():
        # First connection: served one health reply, then hangs up;
        # the second request hits EOF and must retry on a new one.
        replies = [
            {"status": "ok", "state": "serving"},
            {"status": "ok", "state": "serving"},
        ]
        async with ScriptedServer(replies, close_after=1) as fake:
            client = ServerClient(
                "127.0.0.1", fake.port, retries=2,
                backoff_base=0.001, rng=random.Random(0),
            )
            first = await client.health()
            second = await client.health()
            await client.close()
        assert first["status"] == second["status"] == "ok"
        assert client.transport_retries == 1
        assert fake.connections == 2

    asyncio.run(main())


def test_no_retry_on_error_timeout_or_shutdown():
    async def main():
        for status in ("error", "timeout", "shutting-down"):
            async with ScriptedServer([{"status": status}]) as fake:
                client = ServerClient(
                    "127.0.0.1", fake.port, retries=3,
                    backoff_base=0.001, rng=random.Random(0),
                )
                reply = await client.request("compile", source="s")
                await client.close()
            assert reply["status"] == status
            assert len(fake.requests_seen) == 1  # exactly one attempt
            assert client.overload_retries == 0

    asyncio.run(main())


def test_transport_error_after_retry_budget():
    async def main():
        # A server that never answers: accepts and instantly hangs up.
        async with ScriptedServer([]) as fake:
            client = ServerClient(
                "127.0.0.1", fake.port, retries=2,
                backoff_base=0.001, rng=random.Random(0),
            )
            with pytest.raises(TransportError) as err:
                await client.request("health")
            await client.close()
        assert "3 attempts" in str(err.value)
        assert client.transport_retries == 2

    asyncio.run(main())


def test_connection_refused_is_a_transport_error():
    async def main():
        client = ServerClient(
            "127.0.0.1", 1, retries=1,  # port 1: nothing listens
            backoff_base=0.001, rng=random.Random(0),
        )
        with pytest.raises(TransportError):
            await client.request("health")

    asyncio.run(main())


def test_request_ids_increment():
    async def main():
        replies = [{"status": "ok"}, {"status": "ok"}]
        async with ScriptedServer(replies) as fake:
            client = ServerClient("127.0.0.1", fake.port)
            await client.request("health")
            await client.request("health")
            await client.close()
        ids = [r["id"] for r in fake.requests_seen]
        assert ids == [1, 2]

    asyncio.run(main())


# -- knob parity with the protocol ------------------------------------------

SOURCE = "program p; var x: int; begin x := 1; write(x) end."

#: a non-default value for every job knob (``runner`` has only its
#: default, so the client leaves it out and the server fills it in)
KNOB_VALUES = {
    "strategy": "STOR2",
    "method": "backtrack",
    "unroll": 3,
    "seed": 5,
    "k": 4,
    "max_atom_nodes": 20,
    "runner": "serial",
    "array_layout": "optimize",
    "frontend": "python",
    "entry": "f",
    "constants_in_memory": True,
}


class CapturingClient(ServerClient):
    """Records the compile payload instead of sending it."""

    async def request(self, op, **fields):
        self.sent = {"op": op, **fields}
        return {"status": "ok"}


def _payload(**kwargs):
    client = CapturingClient()
    asyncio.run(client.compile(SOURCE, **kwargs))
    return client.sent


def test_client_covers_every_job_knob():
    assert set(KNOB_VALUES) == {knob.name for knob in JOB_KNOBS}


@pytest.mark.parametrize("name", sorted(KNOB_VALUES))
def test_client_knob_round_trips_through_the_protocol(name):
    sent = _payload(**{name: KNOB_VALUES[name]})
    assert sent.get(name, KNOB[name].default) == KNOB_VALUES[name]
    job = parse_request(sent).job
    assert job == BatchJob("request", SOURCE, **{name: KNOB_VALUES[name]})


def test_client_sends_all_knobs_and_only_non_default_values():
    job = parse_request(_payload(**KNOB_VALUES)).job
    assert job == BatchJob("request", SOURCE, **KNOB_VALUES)
    defaults = {knob.name: knob.default for knob in JOB_KNOBS}
    sent = _payload(**defaults)
    assert sent == {"op": "compile", "source": SOURCE, "name": "request"}


def test_client_rejects_unknown_knobs():
    with pytest.raises(TypeError, match="fibers"):
        _payload(fibers=2)
