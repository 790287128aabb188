"""Load generator for the compile server: ``python -m repro loadgen``.

Drives ``clients`` concurrent :class:`~repro.server.client.ServerClient`
connections through a shared workload of ``requests`` compile requests
with a controlled duplicate fraction (``dup_rate``): duplicates are
verbatim repeats drawn from a small pool of programs, which is exactly
the thundering-herd shape the server's single-flight dedup and
content-addressed cache exist for.  Optionally mixes in *poison*
requests — an oversized source and a syntactically broken program —
that a healthy server must answer with ``error`` without falling over.

The emitted report (what ``loadgen --json`` writes) carries client-
side outcome counts and latency percentiles, retry totals, the server's
own ``stats`` snapshot taken after the run, and the derived
``checks`` that ``benchmarks/test_server_gate.py`` asserts:

- ``stayed_up`` — every request got *some* response (no transport
  failures at the end of the retry budget);
- ``shed_not_timeout`` — overload pressure surfaced as retried
  ``overloaded`` responses, not client-visible deadline ``timeout`` s;
- ``dedup_effective`` — the server executed strictly fewer strategies
  than the number of successful compile responses (single-flight +
  cache collapse the duplicate share).
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field

from ..passes.events import LatencyRecorder
from .client import ServerClient, TransportError

#: Deliberately malformed source: parses as text, fails in the front end.
POISON_SOURCE = "program broken; begin x := ; end."


def make_program(tag: int, terms: int) -> str:
    """A mini-language program whose *allocation problem* scales with
    ``terms``: a reduction over ``terms`` live scalar accumulators, so
    each distinct ``terms`` yields a different renamed operand structure
    and therefore a different content fingerprint.  (Varying only a
    constant would not — the cache is content-addressed over what the
    STOR strategies consume, and constants are not scalar data values.)
    """
    temps = [f"t{j}" for j in range(terms)]
    init = "\n".join(f"  {t} := {j + 2};" for j, t in enumerate(temps))
    body = ";\n".join(
        f"    {temps[j]} := {temps[j]} + a[i] * {temps[(j + 1) % terms]}"
        for j in range(terms)
    )
    collect = ";\n".join(f"  s := s + {t}" for t in temps)
    return (
        f"program load{tag};\n"
        f"var i, n, s, {', '.join(temps)}: int; a: array[16] of int;\n"
        "begin\n"
        "  n := 16;\n"
        f"{init}\n"
        "  for i := 0 to n - 1 do a[i] := i * i;\n"
        "  s := 0;\n"
        "  for i := 0 to n - 1 do begin\n"
        f"{body}\n"
        "  end;\n"
        f"{collect};\n"
        "  write(s)\n"
        "end.\n"
    )


@dataclass(frozen=True, slots=True)
class LoadgenConfig:
    clients: int = 8
    requests: int = 64
    #: fraction of requests drawn from the duplicate pool
    dup_rate: float = 0.4
    #: distinct programs in the duplicate pool
    dup_pool: int = 2
    strategy: str = "STOR1"
    deadline_ms: float = 30_000.0
    seed: int = 0
    #: include one oversized and one syntactically broken request
    poison: bool = True
    retries: int = 6

    def as_dict(self) -> dict[str, object]:
        return {
            "clients": self.clients,
            "requests": self.requests,
            "dup_rate": self.dup_rate,
            "dup_pool": self.dup_pool,
            "strategy": self.strategy,
            "deadline_ms": self.deadline_ms,
            "seed": self.seed,
            "poison": self.poison,
            "retries": self.retries,
        }


def build_workload(config: LoadgenConfig) -> list[dict[str, object]]:
    """The request mix, shuffled deterministically by ``config.seed``.

    Returns per-request spec dicts: ``{"source", "name", "kind"}`` with
    ``kind`` one of ``unique`` / ``dup`` / ``poison-big`` /
    ``poison-bad``.
    """
    rng = random.Random(config.seed)
    # The duplicate pool uses small term counts; unique programs start
    # above the pool so no "unique" accidentally equals a duplicate.
    dup_sources = [
        make_program(i, 2 + i) for i in range(config.dup_pool)
    ]
    specs: list[dict[str, object]] = []
    n_poison = 2 if config.poison else 0
    for i in range(max(0, config.requests - n_poison)):
        if rng.random() < config.dup_rate:
            j = rng.randrange(config.dup_pool)
            specs.append({
                "source": dup_sources[j],
                "name": f"dup{j}",
                "kind": "dup",
            })
        else:
            specs.append({
                "source": make_program(100 + i, 2 + config.dup_pool + i),
                "name": f"uniq{i}",
                "kind": "unique",
            })
    if config.poison:
        from .protocol import MAX_SOURCE_BYTES

        specs.append({
            "source": "program big; begin s := 1 end."
                      + " " * (MAX_SOURCE_BYTES + 1),
            "name": "poison-big",
            "kind": "poison-big",
        })
        specs.append({
            "source": POISON_SOURCE,
            "name": "poison-bad",
            "kind": "poison-bad",
        })
    rng.shuffle(specs)
    return specs


@dataclass(slots=True)
class _Tally:
    outcomes: dict[str, int] = field(default_factory=dict)
    by_kind: dict[str, dict[str, int]] = field(default_factory=dict)
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    cache_hits: int = 0
    dedup_hits: int = 0
    transport_failures: int = 0

    def record(self, kind: str, status: str, elapsed: float,
               reply: dict[str, object] | None) -> None:
        self.outcomes[status] = self.outcomes.get(status, 0) + 1
        per_kind = self.by_kind.setdefault(kind, {})
        per_kind[status] = per_kind.get(status, 0) + 1
        self.latency.record(elapsed)
        if reply and isinstance(reply.get("result"), dict):
            result = reply["result"]
            if result.get("cache_hit"):  # type: ignore[union-attr]
                self.cache_hits += 1
            if result.get("dedup"):  # type: ignore[union-attr]
                self.dedup_hits += 1


async def run_load(
    host: str,
    port: int,
    config: LoadgenConfig | None = None,
) -> dict[str, object]:
    """Run the full workload; returns the JSON-able report."""
    config = config or LoadgenConfig()
    specs = build_workload(config)
    queue: asyncio.Queue[dict[str, object]] = asyncio.Queue()
    for spec in specs:
        queue.put_nowait(spec)

    tally = _Tally()
    clients: list[ServerClient] = []

    async def worker(worker_id: int) -> None:
        client = ServerClient(
            host, port,
            retries=config.retries,
            rng=random.Random(config.seed * 1000 + worker_id),
        )
        clients.append(client)
        try:
            while True:
                try:
                    spec = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                t0 = time.monotonic()
                try:
                    reply = await client.compile(
                        str(spec["source"]),
                        name=str(spec["name"]),
                        strategy=config.strategy,
                        deadline_ms=config.deadline_ms,
                    )
                except TransportError:
                    tally.transport_failures += 1
                    tally.record(str(spec["kind"]), "transport-failure",
                                 time.monotonic() - t0, None)
                    continue
                tally.record(
                    str(spec["kind"]), str(reply.get("status", "?")),
                    time.monotonic() - t0, reply,
                )
        finally:
            await client.close()

    t_start = time.monotonic()
    await asyncio.gather(*(worker(i) for i in range(config.clients)))
    wall_time = time.monotonic() - t_start

    # One last connection for the server-side snapshot.
    stats_client = ServerClient(host, port, retries=2)
    try:
        server_stats = await stats_client.stats()
    except (TransportError, ConnectionError, OSError):
        server_stats = {}
    finally:
        await stats_client.close()

    ok = tally.outcomes.get("ok", 0)
    executions = _dig(server_stats, "requests", "strategy_executions")
    report: dict[str, object] = {
        "config": config.as_dict(),
        "wall_time": wall_time,
        "throughput_rps": len(specs) / wall_time if wall_time > 0 else 0.0,
        "outcomes": dict(sorted(tally.outcomes.items())),
        "outcomes_by_kind": {
            kind: dict(sorted(v.items()))
            for kind, v in sorted(tally.by_kind.items())
        },
        "latency": tally.latency.snapshot(),
        "client": {
            "cache_hits": tally.cache_hits,
            "dedup_hits": tally.dedup_hits,
            "overload_retries": sum(c.overload_retries for c in clients),
            "transport_retries": sum(c.transport_retries for c in clients),
            "transport_failures": tally.transport_failures,
        },
        "server_stats": server_stats,
    }
    report["checks"] = {
        "stayed_up": tally.transport_failures == 0,
        "shed_not_timeout": tally.outcomes.get("timeout", 0) == 0,
        "dedup_effective": (
            isinstance(executions, int) and ok > 0 and executions < ok
        ),
    }
    return report


def _dig(data: object, *path: str) -> object:
    for part in path:
        if not isinstance(data, dict):
            return None
        data = data.get(part)
    return data
