"""Compile-server load benchmark: spawn, flood, drain, gate.

Spawns a real ``python -m repro serve`` subprocess (ephemeral port,
scraped from its ``--announce`` JSON line), drives it with the
:mod:`repro.server.loadgen` workload — concurrent clients, a controlled
duplicate fraction, and poison requests (one oversized source, one
syntactically broken program) — then sends SIGTERM and verifies the
graceful drain: exit code 0 and a ``drained`` announce record with zero
unanswered accepted requests.  A final wave of requests is launched
*just before* the SIGTERM so the drain provably completes in-flight
work rather than merely exiting an idle server.

Emits ``BENCH_server.json``.  With ``--check`` (the CI smoke gate) the
script exits non-zero unless every check passes:

- ``stayed_up`` — every request got a response (no transport failures);
- ``shed_not_timeout`` — zero client-visible deadline timeouts: under
  pressure the server shed load with retryable ``overloaded`` responses
  instead of sitting on requests until they timed out;
- ``dedup_effective`` — strictly fewer strategy executions than
  successful responses (single-flight + content-addressed cache);
- ``drain_clean`` — SIGTERM drain answered everything it had accepted.

Usage::

    python benchmarks/bench_server.py [--out BENCH_server.json] [--check]
                                      [--clients 64] [--requests 256]
                                      [--dup-rate 0.4] [--smoke]

``--smoke`` is the CI profile: 50 mixed requests over 16 clients.
Standalone script (not collected by pytest), like ``bench_alloc.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.server.client import ServerClient, TransportError  # noqa: E402
from repro.server.loadgen import (  # noqa: E402
    LoadgenConfig,
    make_program,
    run_load,
)


def start_server(
    cache_dir: str, max_queue: int
) -> tuple[subprocess.Popen, str, int]:
    """Launch ``python -m repro serve --announce`` and scrape its port."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--announce",
            "--max-queue", str(max_queue),
            "--max-batch", "8",
            "--batch-window", "0.005",
            "--cache-dir", cache_dir,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
        cwd=str(REPO_ROOT),
    )
    assert proc.stdout is not None
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(
            "server produced no announce line; stderr:\n"
            + (proc.stderr.read() if proc.stderr else "")
        )
    event = json.loads(line)
    assert event.get("event") == "serving", event
    return proc, str(event["host"]), int(event["port"])


async def drain_wave(
    host: str, port: int, proc: subprocess.Popen, wave_size: int
) -> dict[str, object]:
    """Launch a wave of fresh requests, SIGTERM mid-flight, and account
    for every response: accepted work must complete, late arrivals may
    only be refused with ``shutting-down``."""

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

    tasks = [asyncio.create_task(one(i)) for i in range(wave_size)]
    await asyncio.sleep(0.05)  # let the wave reach the queue
    proc.send_signal(signal.SIGTERM)
    statuses = sorted(await asyncio.gather(*tasks))
    counts = {s: statuses.count(s) for s in dict.fromkeys(statuses)}
    allowed = {"ok", "shutting-down", "connection-closed", "overloaded"}
    return {
        "wave_size": wave_size,
        "outcomes": counts,
        "all_accounted": set(counts) <= allowed,
        "completed_ok": counts.get("ok", 0),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_server.json")
    parser.add_argument("--clients", type=int, default=64)
    parser.add_argument("--requests", type=int, default=256)
    parser.add_argument("--dup-rate", type=float, default=0.4)
    parser.add_argument("--max-queue", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless every check passes")
    parser.add_argument("--smoke", action="store_true",
                        help="CI profile: 50 requests over 16 clients")
    args = parser.parse_args(argv)

    if args.smoke:
        args.clients, args.requests = 16, 50

    config = LoadgenConfig(
        clients=args.clients,
        requests=args.requests,
        dup_rate=args.dup_rate,
        seed=args.seed,
        poison=True,
        retries=8,
    )

    with tempfile.TemporaryDirectory(prefix="repro-server-bench-") as tmp:
        proc, host, port = start_server(tmp, args.max_queue)
        try:
            t0 = time.perf_counter()
            report = asyncio.run(run_load(host, port, config))
            load_time = time.perf_counter() - t0

            wave = asyncio.run(drain_wave(host, port, proc, wave_size=8))

            try:
                out, err = proc.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, err = proc.communicate()
                raise RuntimeError("server did not drain within 120s")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

        drained: dict[str, object] = {}
        for line in out.splitlines():
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if event.get("event") == "drained":
                drained = event
                break

    checks = dict(report["checks"])
    checks["drain_clean"] = (
        proc.returncode == 0
        and drained.get("unanswered") == 0
        and bool(wave["all_accounted"])
    )
    checks["duplicate_share_configured"] = config.dup_rate >= 0.30

    bench = {
        "config": config.as_dict(),
        "max_queue": args.max_queue,
        "load_wall_time": load_time,
        "load": report,
        "drain_wave": wave,
        "drain_summary": drained,
        "server_exit_code": proc.returncode,
        "checks": checks,
    }
    Path(args.out).write_text(json.dumps(bench, indent=2, sort_keys=True))

    outcomes = report["outcomes"]
    print(f"server bench: {args.requests} requests / {args.clients} clients "
          f"(dup {config.dup_rate:.0%}) in {load_time:.2f}s")
    print(f"  outcomes: {outcomes}")
    print(f"  latency p50/p99: {report['latency']['p50'] * 1e3:.1f}ms / "
          f"{report['latency']['p99'] * 1e3:.1f}ms")
    executions = bench['load']['server_stats'].get(
        'requests', {}).get('strategy_executions')
    print(f"  strategy executions: {executions} "
          f"vs {outcomes.get('ok', 0)} ok responses; "
          f"overload retries: {report['client']['overload_retries']}")
    print(f"  drain: exit={proc.returncode} "
          f"unanswered={drained.get('unanswered')} wave={wave['outcomes']}")
    print(f"  checks: {checks}")
    print(f"report written to {args.out}")

    if args.check and not all(checks.values()):
        failing = [name for name, passed in checks.items() if not passed]
        print(f"CHECK FAILED: {failing}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
