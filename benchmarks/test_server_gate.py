"""Gate: the compile server under mixed load, then a SIGTERM drain.

Spawns ``python -m repro serve --announce`` (ephemeral port, scraped
from the announce line) and drives it with the
:mod:`repro.server.loadgen` workload: 50 requests over 16 clients, 40%
verbatim duplicates, plus poison (an oversized source and a broken
program).  The server must answer every request, shed load rather than
time out, and run fewer strategies than it sent ``ok`` answers.  A
final wave of fresh requests is launched just before SIGTERM, so the
drain must complete in-flight work: exit code 0, a ``drained`` record
with nothing unanswered, and every wave request either answered or
refused as the server shut down.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

from repro.server.client import ServerClient, TransportError
from repro.server.loadgen import LoadgenConfig, make_program, run_load

REPO_ROOT = Path(__file__).resolve().parent.parent
WAVE_OUTCOMES = {"ok", "shutting-down", "connection-closed", "overloaded"}


def start_server(cache_dir: Path) -> tuple[subprocess.Popen, str, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--announce", "--max-queue", "32", "--max-batch", "8",
            "--batch-window", "0.005", "--cache-dir", str(cache_dir),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        cwd=str(REPO_ROOT),
    )
    assert proc.stdout is not None
    event = json.loads(proc.stdout.readline())
    assert event["event"] == "serving", event
    return proc, str(event["host"]), int(event["port"])


async def sigterm_mid_wave(
    host: str, port: int, proc: subprocess.Popen, size: int
) -> list[str]:
    """Send ``size`` fresh compiles, SIGTERM while they are in flight,
    and return every request's outcome."""

    async def one(i: int) -> str:
        client = ServerClient(host, port, retries=2)
        try:
            reply = await client.compile(
                make_program(900 + i, 3 + i % 7),
                name=f"wave{i}", deadline_ms=60_000,
            )
            return str(reply["status"])
        except (TransportError, ConnectionError, OSError):
            # Raced the listener closing before admission: never accepted.
            return "connection-closed"
        finally:
            await client.close()

    tasks = [asyncio.create_task(one(i)) for i in range(size)]
    await asyncio.sleep(0.05)  # let the wave reach the queue
    proc.send_signal(signal.SIGTERM)
    return list(await asyncio.gather(*tasks))


def test_server_survives_mixed_load_and_drains_on_sigterm(tmp_path):
    config = LoadgenConfig(
        clients=16, requests=50, dup_rate=0.4, seed=0, poison=True,
        retries=8,
    )
    proc, host, port = start_server(tmp_path)
    try:
        report = asyncio.run(run_load(host, port, config))
        wave = asyncio.run(sigterm_mid_wave(host, port, proc, size=8))
        out, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()

    checks = report["checks"]
    assert checks["stayed_up"], report["outcomes"]
    assert checks["shed_not_timeout"], report["outcomes"]
    assert checks["dedup_effective"], report["server_stats"]
    assert proc.returncode == 0, err
    drained = [
        event for event in map(json.loads, out.splitlines())
        if event.get("event") == "drained"
    ]
    assert drained and drained[0]["unanswered"] == 0, out
    assert set(wave) <= WAVE_OUTCOMES, wave
