"""One-shot experiment report: regenerates every table/figure/claim.

Run as ``python -m repro.analysis.report``; EXPERIMENTS.md records one
full output of this module next to the paper's numbers.

Also renders the batch-service reports (``python -m repro batch``):
:func:`batch_report_json` / :func:`format_batch_report` — and the
per-pass trace tables of ``python -m repro compile --trace``:
:func:`format_trace` / :func:`trace_json`.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from ..passes.events import PassEvent
    from ..service.batch import BatchReport

from .figures import (
    reproduce_fig1,
    reproduce_fig3,
    reproduce_fig5,
    reproduce_fig8,
)
from .speedup import generate_speedup
from .table1 import generate_table1
from .table2 import generate_table2
from .worstcase import (
    hitting_set_gap_adversary,
    worst_coloring_gap_random,
    worst_hitting_gap_random,
)


def _section(title: str) -> str:
    return f"\n{'=' * 72}\n{title}\n{'=' * 72}"


def figures_report() -> str:
    lines = [_section("Worked figures (paper Figs. 1, 3, 5, 8)")]
    f1 = reproduce_fig1()
    lines.append(
        f"Fig. 1: conflict-free single-copy assignment found: "
        f"{f1.base_conflict_free}"
    )
    lines.append(f1.base_allocation.grid())
    lines.append(
        f"  + V2V4V5 -> extra copies: {f1.extra1_copies} (paper: 1, a copy"
        " of V5)"
    )
    lines.append(
        f"  + V1V4V5 -> extra copies: {f1.extra2_copies} (paper: 2 — with"
        " V5 in all three modules; any 2-extra-copy allocation is equally"
        " optimal)"
    )

    f3 = reproduce_fig3()
    lines.append(
        "Fig. 3: minimum removals all have size 2; optimal extra copies by"
        " removal choice:"
    )
    for removed, copies in sorted(
        f3.copies_by_removal.items(), key=lambda kv: sorted(kv[0])
    ):
        tag = ""
        if set(removed) == {4, 5}:
            tag = "   <- the paper's first (worse) choice"
        if set(removed) == {2, 5}:
            tag = "   <- the paper's second (better) choice"
        lines.append(f"  remove {sorted(removed)} -> {copies} extra{tag}")
    lines.append(
        f"  spread = {f3.spread} (same removal count, different copying —"
        " the figure's point)"
    )

    f5 = reproduce_fig5()
    lines.append(
        f"Fig. 5: heuristic coloured {sorted(f5.colored)} and removed"
        f" {f5.removed} (paper: four values coloured, V5 removed)"
    )
    for step in f5.coloring.trace:
        lines.append(
            f"    {step.action:11s} V{step.node}"
            + (f" -> M{step.module + 1}" if step.module is not None else "")
            + f"  (urgency numerator {step.urgency_numerator},"
            f" modules left {step.modules_left})"
        )

    f8 = reproduce_fig8()
    lines.append(
        f"Fig. 8: placement uses {f8.v4_copies} copies of V4 (paper"
        f" solution 2 = 3; solution 1 wasted 4); conflict-free:"
        f" {f8.conflict_free}"
    )
    lines.append(f8.allocation.grid())
    return "\n".join(lines)


def worstcase_report() -> str:
    lines = [_section("Worst-case claims (heuristic vs optimal)")]
    gap = worst_coloring_gap_random(trials=40, n=9, k=3)
    lines.append(
        f"Colouring: worst random gap {gap.instance}: heuristic removed"
        f" {gap.heuristic_removed}, optimal {gap.optimal_removed}"
        f" (paper bound: ratio can reach (n-k)/2 = {(gap.n - gap.k) / 2:.1f})"
    )
    for m in (3, 5, 8):
        hs = hitting_set_gap_adversary(m)
        lines.append(
            f"Hitting set m={m}: paper-heuristic {hs.paper_size},"
            f" greedy {hs.greedy_size}, optimal {hs.optimal_size},"
            f" H_m bound {hs.h_m_bound:.2f}"
            f" (ratio {hs.paper_ratio:.2f} <= H_m: "
            f"{hs.paper_ratio <= hs.h_m_bound + 1e-9})"
        )
    hs_worst = worst_hitting_gap_random(trials=200)
    lines.append(
        f"Hitting set: worst random gap {hs_worst.instance}:"
        f" paper-heuristic {hs_worst.paper_size} vs optimal"
        f" {hs_worst.optimal_size} (ratio {hs_worst.paper_ratio:.2f},"
        f" H_m bound {hs_worst.h_m_bound:.2f})"
    )
    return "\n".join(lines)


def full_report(unroll: int = 4) -> str:
    """Regenerate every experiment; returns the printable report."""
    parts = []
    t0 = time.time()

    parts.append(_section("Table 1 (k=8, hitting-set approach)"))
    parts.append(generate_table1(unroll=unroll).format())

    parts.append(_section("Table 2 (k=8 and k=4)"))
    parts.append(generate_table2(unroll=unroll).format())

    parts.append(_section("Speed-up claim (paper: 64-300%)"))
    table = generate_speedup(unroll=unroll)
    parts.append(table.format())
    lo, hi = table.range
    parts.append(f"range: {lo:.0f}% .. {hi:.0f}%")

    parts.append(figures_report())
    parts.append(worstcase_report())

    parts.append(f"\n[report generated in {time.time() - t0:.1f}s]")
    return "\n".join(parts)


def format_trace(events: "Iterable[PassEvent]") -> str:
    """Per-pass timing table for one pipeline run's terminal events.

    Sub-stage events (``allocate.STOR2.region1``, ...) are indented
    under their pass; skipped and cache-served passes are labelled.
    """
    rows = [e for e in events if e.is_terminal]
    lines = [
        f"{'pass':28s} {'status':8s} {'time':>10s}  details",
        "-" * 72,
    ]
    total = 0.0
    for e in rows:
        status = {"end": "ran", "cache-hit": "cached"}.get(e.status, e.status)
        name = e.name
        if e.is_substage:
            name = "  " + name.split(".", 1)[1]
        total += e.wall_time if e.executed else 0.0
        details = " ".join(f"{k}={v}" for k, v in e.counts.items())
        if e.warnings:
            details += ("  " if details else "") + "! " + "; ".join(e.warnings)
        lines.append(
            f"{name:28s} {status:8s} {e.wall_time * 1e3:9.3f}ms  {details}"
        )
    lines.append("-" * 72)
    lines.append(f"{'total':28s} {'':8s} {total * 1e3:9.3f}ms")
    return "\n".join(lines)


def trace_json(events: "Iterable[PassEvent]") -> list[dict[str, object]]:
    """JSON-able rendering of a run's terminal pass events."""
    return [e.as_dict() for e in events if e.is_terminal]


def batch_report_json(report: "BatchReport") -> dict[str, object]:
    """The metrics JSON of one batch run: per-job outcomes and stage
    metrics, aggregate stage totals, and cache hit/miss statistics."""
    return report.as_dict()


def format_batch_report(report: "BatchReport") -> str:
    """Human-readable rendering of a :class:`BatchReport`."""
    lines = [
        f"{'program':10s} {'strategy':8s} {'mode':15s} {'hit':3s} "
        f"{'=1':>4s} {'>1':>4s} {'copies':>6s} {'time':>8s}"
    ]
    for r in report.results:
        if r.storage is not None:
            cols = (
                f"{r.storage.singles:4d} {r.storage.multiples:4d} "
                f"{r.storage.total_copies:6d}"
            )
        else:
            cols = f"{'-':>4s} {'-':>4s} {'-':>6s}"
        hit = "y" if r.cache_hit else "."
        lines.append(
            f"{r.job.name:10s} {r.job.strategy.upper():8s} {r.mode:15s} "
            f"{hit:3s} {cols} {r.wall_time:7.3f}s"
            + (f"  ! {r.error}" if r.error else "")
        )
    cache = report.cache_stats
    lines.append(
        f"{report.num_ok}/{len(report.results)} ok in "
        f"{report.wall_time:.3f}s with {report.workers} worker(s); "
        f"cache {cache.get('hits', 0)} hit / {cache.get('misses', 0)} miss "
        f"({report.hit_rate:.0%} of jobs served from cache)"
    )
    frontend = report.artifact_stats
    if frontend.get("hits", 0) or frontend.get("misses", 0):
        lines.append(
            f"front-end passes: {frontend.get('hits', 0)} reused / "
            f"{frontend.get('misses', 0)} compiled "
            f"({frontend.get('entries', 0)} cached stage entr"
            f"{'y' if frontend.get('entries', 0) == 1 else 'ies'})"
        )
    totals = sorted(
        report.stage_totals().items(), key=lambda kv: -kv[1]
    )
    if totals:
        lines.append(
            "stage totals: "
            + ", ".join(f"{name} {t:.3f}s" for name, t in totals[:8])
        )
    return "\n".join(lines)


def format_server_stats(stats: dict[str, object]) -> str:
    """Human-readable rendering of a ``stats`` endpoint snapshot
    (:meth:`repro.server.CompileServer.stats`)."""

    def block(name: str) -> dict[str, object]:
        value = stats.get(name)
        return value if isinstance(value, dict) else {}

    requests, queue, cache = block("requests"), block("queue"), block("cache")
    latency = block("latency")
    total = latency.get("total", {})
    if not isinstance(total, dict):
        total = {}
    lines = [
        f"state={stats.get('state', '?')} "
        f"uptime={float(stats.get('uptime_s', 0.0) or 0.0):.1f}s",
        f"requests: {requests.get('requests', 0)} total, "
        f"{requests.get('ok', 0)} ok, {requests.get('errors', 0)} error, "
        f"{requests.get('overloaded', 0)} overloaded, "
        f"{requests.get('timeouts', 0)} timeout",
        f"queue: depth {queue.get('depth', 0)}/{queue.get('max_depth', 0)} "
        f"(high water {queue.get('high_water', 0)}), "
        f"{queue.get('shed', 0)} shed, {queue.get('attached', 0)} coalesced "
        f"single-flight, {queue.get('abandoned', 0)} abandoned",
        f"batches: {queue.get('batches', 0)} dispatched, "
        f"mean size {float(queue.get('mean_batch_size', 0.0) or 0.0):.2f}, "
        f"max {queue.get('max_batch_size', 0)}",
        f"dedup: {requests.get('dedup_hits', 0)} attached waiters, "
        f"{requests.get('strategy_executions', 0)} strategy executions, "
        f"{requests.get('cache_hits', 0)} cache-served responses",
        f"latency: p50 {float(total.get('p50', 0.0) or 0.0) * 1e3:.1f}ms "
        f"p90 {float(total.get('p90', 0.0) or 0.0) * 1e3:.1f}ms "
        f"p99 {float(total.get('p99', 0.0) or 0.0) * 1e3:.1f}ms",
        f"cache: {cache.get('hits', 0)} hit / {cache.get('misses', 0)} miss"
        f" / {cache.get('corrupt', 0)} quarantined "
        f"({float(cache.get('hit_rate', 0.0) or 0.0):.0%})",
    ]
    return "\n".join(lines)


def format_loadgen_report(report: dict[str, object]) -> str:
    """Human-readable rendering of a load-generator run
    (:func:`repro.server.loadgen.run_load`)."""

    def block(name: str) -> dict[str, object]:
        value = report.get(name)
        return value if isinstance(value, dict) else {}

    config, outcomes = block("config"), block("outcomes")
    latency, client, checks = block("latency"), block("client"), block("checks")
    lines = [
        f"{config.get('requests', '?')} requests over "
        f"{config.get('clients', '?')} clients "
        f"(dup rate {float(config.get('dup_rate', 0.0) or 0.0):.0%}) in "
        f"{float(report.get('wall_time', 0.0) or 0.0):.3f}s "
        f"({float(report.get('throughput_rps', 0.0) or 0.0):.1f} req/s)",
        "outcomes: " + ", ".join(
            f"{status} {count}" for status, count in outcomes.items()
        ),
        f"latency: p50 {float(latency.get('p50', 0.0) or 0.0) * 1e3:.1f}ms "
        f"p90 {float(latency.get('p90', 0.0) or 0.0) * 1e3:.1f}ms "
        f"p99 {float(latency.get('p99', 0.0) or 0.0) * 1e3:.1f}ms "
        f"max {float(latency.get('max', 0.0) or 0.0) * 1e3:.1f}ms",
        f"client: {client.get('cache_hits', 0)} cache-hit responses, "
        f"{client.get('dedup_hits', 0)} dedup-attached, "
        f"{client.get('overload_retries', 0)} overload retries, "
        f"{client.get('transport_failures', 0)} transport failures",
        "checks: " + ", ".join(
            f"{name}={'ok' if passed else 'FAIL'}"
            for name, passed in checks.items()
        ),
    ]
    server_stats = report.get("server_stats")
    if isinstance(server_stats, dict) and server_stats:
        lines.append("-- server --")
        lines.append(format_server_stats(server_stats))
    return "\n".join(lines)


def main() -> None:  # pragma: no cover - exercised via CLI
    print(full_report())


if __name__ == "__main__":  # pragma: no cover
    main()
