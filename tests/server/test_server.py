"""CompileServer end-to-end over real sockets (in-process on port 0, and
one `python -m repro serve` subprocess for the SIGTERM drain)."""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro.core.allocation import Allocation
from repro.core.strategies import StorageResult
from repro.server import CompileServer, ServerConfig, ServerClient
from repro.server import protocol
from repro.server.loadgen import make_program
from repro.service.batch import BatchReport, JobResult

SOURCE = """
program srv;
var i, n, s: int; a: array[8] of int;
begin
  n := 8;
  for i := 0 to n - 1 do a[i] := i * i;
  s := 0;
  for i := 0 to n - 1 do s := s + a[i];
  write(s)
end.
"""

OTHER = SOURCE.replace("s := s + a[i]", "s := s + a[i] + n")


def _config(**overrides) -> ServerConfig:
    defaults = dict(
        port=0, workers=1, max_queue=8, max_batch=4, batch_window=0.005
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


class SlowCompiler:
    """BatchCompiler stand-in with a controllable per-batch delay."""

    def __init__(self, delay: float):
        self.delay = delay
        self.batches: list[int] = []

        from repro.passes.cache import ArtifactCache
        from repro.service.cache import AllocationCache

        self.cache = AllocationCache()
        self.artifacts = ArtifactCache()

    def run(self, jobs) -> BatchReport:
        time.sleep(self.delay)
        self.batches.append(len(jobs))
        results = [
            JobResult(job, f"key-{job.source_key()}",
                      StorageResult("STOR1", Allocation(8), [], []),
                      False, "serial", self.delay)
            for job in jobs
        ]
        return BatchReport(results, self.delay, 1)


async def _started(config=None, compiler=None) -> CompileServer:
    server = CompileServer(config or _config(), compiler=compiler)
    await server.start()
    return server


async def _shutdown(server: CompileServer) -> dict:
    server.begin_drain()
    await server.wait_drained()
    await server.aclose()
    return server.drain_summary()


def test_compile_health_stats_round_trip():
    async def main():
        server = await _started()
        host, port = server.address
        async with ServerClient(host, port) as client:
            health = await client.health()
            assert health["status"] == "ok" and health["state"] == "serving"

            reply = await client.compile(SOURCE, name="demo")
            assert reply["status"] == "ok", reply
            result = reply["result"]
            assert result["cache_hit"] is False
            assert result["singles"] >= 1
            assert len(result["key"]) == 64
            assert reply["server"]["batch_size"] >= 1

            # Identical request again: served by the allocation cache.
            again = await client.compile(SOURCE, name="demo")
            assert again["status"] == "ok"
            assert again["result"]["cache_hit"] is True
            assert again["result"]["key"] == result["key"]

            stats = await client.stats()
            assert stats["state"] == "serving"
            assert stats["requests"]["ok"] == 2
            assert stats["requests"]["strategy_executions"] == 1
            assert stats["queue"]["batches"] >= 1
            assert stats["latency"]["total"]["count"] == 2
            assert "corrupt" in stats["cache"]
        summary = await _shutdown(server)
        assert summary["unanswered"] == 0

    asyncio.run(main())


def test_include_allocation_round_trips_storage():
    async def main():
        server = await _started()
        host, port = server.address
        async with ServerClient(host, port) as client:
            reply = await client.compile(SOURCE, include_allocation=True)
            assert reply["status"] == "ok"
            from repro.service.cache import decode_storage_result

            storage = decode_storage_result(reply["result"]["allocation"])
            assert storage.singles == reply["result"]["singles"]
        await _shutdown(server)

    asyncio.run(main())


def test_single_flight_dedup_coalesces_concurrent_identical_requests():
    async def main():
        # A slow compiler stretches the in-flight window so the herd
        # genuinely overlaps.
        compiler = SlowCompiler(delay=0.1)
        server = await _started(
            _config(max_queue=32, max_batch=4, batch_window=0.02), compiler
        )
        host, port = server.address

        async def one_request(i: int) -> dict:
            async with ServerClient(host, port) as client:
                return await client.compile(SOURCE, name=f"herd{i}")

        replies = await asyncio.gather(*(one_request(i) for i in range(10)))
        assert all(r["status"] == "ok" for r in replies)
        assert sum(bool(r["result"]["dedup"]) for r in replies) >= 8
        # The whole herd cost one batch with one job.
        assert compiler.batches == [1]
        stats = server.stats()
        assert stats["requests"]["dedup_hits"] >= 8
        assert stats["requests"]["strategy_executions"] == 1
        assert stats["queue"]["attached"] >= 8
        summary = await _shutdown(server)
        assert summary["unanswered"] == 0

    asyncio.run(main())


def test_bounded_queue_sheds_with_overloaded_not_buffering():
    async def main():
        compiler = SlowCompiler(delay=0.2)
        server = await _started(
            _config(max_queue=2, max_batch=1, batch_window=0.0), compiler
        )
        host, port = server.address

        async def raw_compile(i: int) -> dict:
            # retries=0: observe the shed directly, no client backoff.
            client = ServerClient(host, port, retries=0)
            try:
                return await client.compile(OTHER.replace("srv", f"s{i}"),
                                            name=f"flood{i}")
            finally:
                await client.close()

        replies = await asyncio.gather(*(raw_compile(i) for i in range(8)))
        statuses = sorted(r["status"] for r in replies)
        assert "overloaded" in statuses, statuses
        overloaded = [r for r in replies if r["status"] == "overloaded"]
        assert all("retry_after_ms" in r for r in overloaded)
        assert all(r["status"] in ("ok", "overloaded") for r in replies)
        # Shed requests were rejected at admission: nothing buffered.
        stats = server.stats()
        assert stats["queue"]["shed"] == len(overloaded)
        assert stats["requests"]["timeouts"] == 0
        summary = await _shutdown(server)
        assert summary["unanswered"] == 0

    asyncio.run(main())


def test_deadline_expiry_returns_timeout_and_cancels_queued_flight():
    async def main():
        compiler = SlowCompiler(delay=0.3)
        server = await _started(
            _config(max_queue=8, max_batch=1, batch_window=0.0), compiler
        )
        host, port = server.address
        async with ServerClient(host, port) as client:
            # Occupy the dispatch thread...
            blocker = asyncio.create_task(
                client_request(host, port, SOURCE, "blocker", 5_000)
            )
            await asyncio.sleep(0.05)
            # ...so this one sits queued past its tiny deadline.
            reply = await client.compile(
                OTHER, name="hurried", deadline_ms=30
            )
            assert reply["status"] == "timeout", reply
            assert "deadline" in reply["error"]
            blocked = await blocker
            assert blocked["status"] == "ok"
        stats = server.stats()
        assert stats["requests"]["timeouts"] == 1
        # Last waiter gone before dispatch -> the flight was cancelled.
        assert stats["queue"]["abandoned"] == 1
        summary = await _shutdown(server)
        assert summary["unanswered"] == 0

    asyncio.run(main())


async def client_request(host, port, source, name, deadline_ms):
    async with ServerClient(host, port) as client:
        return await client.compile(source, name=name,
                                    deadline_ms=deadline_ms)


def test_drain_completes_accepted_work_and_rejects_new():
    async def main():
        compiler = SlowCompiler(delay=0.15)
        server = await _started(
            _config(max_queue=8, max_batch=2, batch_window=0.0), compiler
        )
        host, port = server.address

        accepted = [
            asyncio.create_task(
                client_request(host, port,
                               OTHER.replace("srv", f"d{i}"),
                               f"drain{i}", 10_000)
            )
            for i in range(3)
        ]
        await asyncio.sleep(0.05)  # let them be admitted
        server.begin_drain()

        async with ServerClient(host, port) as late_client:
            late = await late_client.compile(SOURCE, name="late")
            assert late["status"] == "shutting-down"
            health = await late_client.health()
            assert health["state"] == "draining"

        replies = await asyncio.gather(*accepted)
        assert all(r["status"] == "ok" for r in replies), replies
        await server.wait_drained()
        await server.aclose()
        summary = server.drain_summary()
        assert summary["unanswered"] == 0
        assert summary["resolved"] == 3
        assert server.state == "stopped"

    asyncio.run(main())


def test_malformed_and_oversized_lines():
    async def main():
        server = await _started()
        host, port = server.address

        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"this is not json\n")
        await writer.drain()
        reply = await reader.readline()
        import json

        parsed = json.loads(reply)
        assert parsed["status"] == "error"
        assert "JSON" in parsed["error"]

        # The connection survives a malformed request...
        writer.write(protocol.encode_message({"op": "health"}))
        await writer.drain()
        assert json.loads(await reader.readline())["status"] == "ok"

        # ...but an oversized line gets one error and a hangup.
        writer.write(b"x" * (protocol.MAX_LINE_BYTES + 1024) + b"\n")
        await writer.drain()
        data = await reader.read()
        assert b"exceeds" in data
        writer.close()

        stats = server.stats()
        assert stats["requests"]["protocol_errors"] >= 2
        assert stats["requests"]["oversized_lines"] == 1
        await _shutdown(server)

    asyncio.run(main())


def test_deeply_nested_json_line_is_a_protocol_error():
    async def main():
        server = await _started()
        host, port = server.address

        reader, writer = await asyncio.open_connection(host, port)
        # 200 kB, under MAX_LINE_BYTES, but deeper than json recurses.
        writer.write(b"[" * 100_000 + b"]" * 100_000 + b"\n")
        await writer.drain()
        parsed = json.loads(await reader.readline())
        assert parsed["status"] == "error"
        assert "nested too deeply" in parsed["error"]

        # The connection and the server keep serving.
        writer.write(protocol.encode_message({"op": "health"}))
        await writer.drain()
        assert json.loads(await reader.readline())["status"] == "ok"
        writer.close()
        assert server.stats()["requests"]["protocol_errors"] == 1
        await _shutdown(server)

    asyncio.run(main())


def test_compile_error_reported_per_request():
    async def main():
        server = await _started()
        host, port = server.address
        async with ServerClient(host, port) as client:
            reply = await client.compile(
                "program broken; begin x := ; end.", name="bad"
            )
            assert reply["status"] == "error"
            assert "ParseError" in reply["error"]
            # The server is still healthy afterwards.
            good = await client.compile(SOURCE)
            assert good["status"] == "ok"
        stats = server.stats()
        assert stats["requests"]["errors"] == 1
        await _shutdown(server)

    asyncio.run(main())


def test_array_layout_optimize_round_trip():
    async def main():
        server = await _started()
        host, port = server.address
        async with ServerClient(host, port) as client:
            fixed = await client.compile(SOURCE, name="plain")
            assert fixed["status"] == "ok"
            assert "array_opt" not in fixed["result"]

            reply = await client.compile(
                SOURCE, name="opt", array_layout="optimize"
            )
            assert reply["status"] == "ok", reply
            opt = reply["result"]["array_opt"]
            assert opt["k"] == 8
            assert opt["specs"]
            assert opt["predicted_after"] <= opt["predicted_before"]
            # a distinct knob means a distinct content key
            assert reply["result"]["key"] != fixed["result"]["key"]

            stats = await client.stats()
            assert stats["requests"]["array_opt_compiles"] == 1
        await _shutdown(server)

    asyncio.run(main())


def test_process_pool_matches_serial_and_shares_the_cache(tmp_path):
    """``workers=2`` compiles concurrent distinct requests on a process
    pool to the same keys and allocations as ``workers=1``, and a second
    server on the same cache directory answers them all from disk."""
    sources = [make_program(i, 2 + i) for i in range(6)]

    async def compile_all(config: ServerConfig) -> list[dict]:
        server = await _started(config)
        host, port = server.address

        async def one(source: str) -> dict:
            async with ServerClient(host, port) as client:
                return await client.compile(source, include_allocation=True)

        replies = await asyncio.gather(*(one(s) for s in sources))
        await _shutdown(server)
        assert all(r["status"] == "ok" for r in replies), replies
        return [r["result"] for r in replies]

    def run(workers: int, cache: str) -> list[dict]:
        return asyncio.run(compile_all(_config(
            workers=workers, cache_dir=str(tmp_path / cache),
            max_batch=8, batch_window=0.1,
        )))

    serial = run(1, "serial")
    pooled = run(2, "pooled")
    warm = run(2, "pooled")
    assert "parallel" in {r["mode"] for r in pooled}
    for cold, hot, expected in zip(pooled, warm, serial):
        assert not cold["cache_hit"] and hot["cache_hit"]
        for result in (cold, hot):
            assert result["key"] == expected["key"]
            assert result["allocation"] == expected["allocation"]


def test_sigterm_drain_with_an_idle_connection_exits_cleanly():
    """A client that leaves its connection open must not turn the
    SIGTERM drain into a traceback: the server ends the connection at
    EOF once everything it accepted is answered."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).parents[2] / "src"),
                    env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--announce"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        assert proc.stdout is not None
        serving = json.loads(proc.stdout.readline())
        with socket.create_connection(
            (serving["host"], serving["port"]), timeout=30
        ) as sock:
            sock.sendall(protocol.encode_message({"op": "health", "id": 1}))
            reply = json.loads(sock.makefile("rb").readline())
            assert reply["status"] == "ok"
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
            assert sock.recv(1) == b""  # the server hung up
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, err
    drained = json.loads(out.splitlines()[-1])
    assert drained["event"] == "drained" and drained["unanswered"] == 0
    assert "Traceback" not in err, err
