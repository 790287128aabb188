"""Delta-cache benchmark: incremental recompiles against cold ones.

Emits ``BENCH_incremental.json`` with one phase and its CI gate:

- **incremental_delta_ratio** — allocation time of an edited program
  against a delta cache warmed by the original, relative to a cold
  allocation of the same edit.  The program is built from independent
  loop segments (each its own conflict-graph component); the edit
  inserts a statement into one segment, shifting every later value id —
  the rank-space fingerprints must still serve every untouched
  segment's atoms.  Gate: ratio ≤ ``--max-ratio`` (default 0.5x).

The warm result is checked byte-identical to the cold one
(``encode_storage_result``) before any timing is reported: a fast wrong
answer fails immediately.

The JSON report has three blocks: ``incremental`` (segments,
instructions, values, warm hits/misses, ``cold_s``, ``warm_s`` and
``incremental_delta_ratio``), ``checks`` (gate name -> passed) and
``config`` (``repeat``, ``max_ratio``).

Usage::

    python benchmarks/bench_incremental.py [--out BENCH_incremental.json]
                                           [--repeat 3] [--check]
                                           [--max-ratio 0.5]

Standalone script (not collected by pytest), like ``bench_alloc.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.strategies import run_strategy  # noqa: E402
from repro.liw.machine import MachineConfig  # noqa: E402
from repro.passes.delta import DeltaCache, DeltaScope  # noqa: E402
from repro.pipeline import compile_source  # noqa: E402
from repro.service.cache import encode_storage_result  # noqa: E402


def _best_of(fn: Callable[[], object], repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# --------------------------------------------------------------------------
# Incremental recompilation
# --------------------------------------------------------------------------


def segmented_source(segments: int, edited: bool = False) -> str:
    """``segments`` independent loop nests over disjoint variables —
    each loop body is its own block, hence its own conflict-graph
    component.  ``edited`` inserts one statement into segment 0,
    shifting every later segment's value ids without changing their
    structure."""
    names = [
        [f"s{c}v{i}" for i in range(6)] for c in range(segments)
    ]
    lines = ["program segments;", "var"]
    decls = ", ".join(n for group in names for n in group)
    lines.append(f"  {decls}: int;")
    idxs = ", ".join(f"i{c}" for c in range(segments))
    lines.append(f"  {idxs}: int;")
    lines.append("begin")
    for c, group in enumerate(names):
        a, b, d, e, f, g = group
        lines.append(f"  {a} := {c + 2};")
        lines.append(f"  {b} := {c + 5};")
        lines.append(f"  for i{c} := 1 to 6 do")
        lines.append("    begin")
        if edited and c == 0:
            lines.append(f"      {a} := {a} + 7;")
        lines.append(f"      {d} := ({a} + {b} * i{c}) mod 9973;")
        lines.append(f"      {e} := ({d} * {a} - {b}) mod 9973;")
        lines.append(f"      {f} := ({e} + {d} * {b}) mod 9973;")
        lines.append(f"      {g} := ({f} - {e} + {a}) mod 9973;")
        lines.append(f"      {a} := ({g} + {f} * 3) mod 9973;")
        lines.append(f"      {b} := ({a} - {g} + 11) mod 9973")
        lines.append("    end;")
    for c, group in enumerate(names):
        lines.append(f"  write({group[0]} + {group[5]});")
    lines[-1] = lines[-1].rstrip(";")
    lines.append("end")
    lines.append(".")
    return "\n".join(lines)


def bench_incremental(repeat: int) -> dict[str, object]:
    machine = MachineConfig(num_fus=4, num_modules=8)
    original = compile_source(
        segmented_source(10), machine, unroll=2, constants_in_memory=True
    )
    edited = compile_source(
        segmented_source(10, edited=True), machine, unroll=2,
        constants_in_memory=True,
    )

    def alloc(program, scope):
        return run_strategy(
            "STOR1", program.schedule, program.renamed, delta=scope
        )

    cold_result = alloc(edited, None)
    cache = DeltaCache()
    alloc(original, DeltaScope(cache))  # warm on the pre-edit program
    probe = DeltaScope(cache)
    warm_result = alloc(edited, probe)
    if encode_storage_result(warm_result) != encode_storage_result(
        cold_result
    ):
        raise SystemExit("delta mismatch: warm recompile != cold compile")

    t_cold = _best_of(lambda: alloc(edited, None), repeat)
    t_warm = _best_of(
        lambda: alloc(edited, DeltaScope(cache)), repeat
    )
    return {
        "segments": 10,
        "instructions": edited.schedule.num_instructions,
        "values": len(edited.renamed.values),
        "warm_hits": probe.hits,
        "warm_misses": probe.misses,
        "cold_s": t_cold,
        "warm_s": t_warm,
        "incremental_delta_ratio": (
            t_warm / t_cold if t_cold else 0.0
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_incremental.json",
                        help="output JSON path")
    parser.add_argument("--repeat", type=int, default=3,
                        help="cold repetitions per timing (min taken)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if a gate fails")
    parser.add_argument("--max-ratio", type=float, default=0.5,
                        help="max allowed warm/cold allocation ratio")
    args = parser.parse_args(argv)

    incremental = bench_incremental(args.repeat)
    checks = {
        "incremental_delta_ratio": (
            incremental["incremental_delta_ratio"] <= args.max_ratio
        ),
    }
    report = {
        "incremental": incremental,
        "checks": checks,
        "config": {"repeat": args.repeat, "max_ratio": args.max_ratio},
    }
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True))

    print(
        f"incremental: cold {incremental['cold_s'] * 1e3:.1f}ms, "
        f"warm {incremental['warm_s'] * 1e3:.1f}ms, "
        f"ratio {incremental['incremental_delta_ratio']:.3f} "
        f"({incremental['warm_hits']} hits / "
        f"{incremental['warm_misses']} misses)"
    )
    print(f"report written to {args.out}")

    if args.check:
        failed = [name for name, ok in checks.items() if not ok]
        for name in failed:
            print(f"GATE FAILED: {name}", file=sys.stderr)
        return 1 if failed else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
