"""Allocation-kernel benchmark: bitset kernels vs the set-based reference.

Times the allocation phase (conflict graph -> colouring -> duplication)
of the live :mod:`repro.core` bitset kernels against the frozen
reference implementations in :mod:`repro.core.reference`, on

- the six registry programs (real schedules through the front end), and
- synthetic stress programs at k=4 and k=8 (hundreds of instructions
  with repeated rows, the regime the masks/memoisation target),

verifying on every run that both stacks produce byte-identical
allocations, copy histories and stats (residual list, copies created),
and emits ``BENCH_alloc.json``.  With ``--check`` the script exits
non-zero if the live kernels are more than ``--threshold`` (default
1.2x) slower than the reference on any registry program — the CI
perf-regression gate.

Usage::

    python benchmarks/bench_alloc.py [--out BENCH_alloc.json]
                                     [--repeat 5] [--check]
                                     [--threshold 1.2]

Standalone script (not collected by pytest), like ``bench_pipeline.py``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path
from typing import Callable, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import (  # noqa: E402
    Allocation,
    ConflictGraph,
    assign_modules,
    backtrack_duplication,
    color_graph,
    conflicting_instructions,
)
from repro.core.duplication import hitting_set_duplication  # noqa: E402
from repro.core.reference import (  # noqa: E402
    ReferenceConflictGraph,
    reference_assign_modules,
    reference_backtrack_duplication,
    reference_color_graph,
    reference_conflicting_instructions,
    reference_hitting_set_duplication,
)
from repro.passes.artifacts import PipelineOptions  # noqa: E402
from repro.pipeline import run_pipeline  # noqa: E402
from repro.programs import all_programs  # noqa: E402


def _timed(fn: Callable[[], object]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _pair(new_fn, ref_fn, repeat: int) -> dict[str, float]:
    """Best of ``repeat`` cold invocations of each side, interleaved
    (alternating which side goes first), so that a slow stretch of a
    shared host lands on both sides rather than on one."""
    t_new = t_ref = float("inf")
    for i in range(repeat):
        if i % 2:
            t_ref = min(t_ref, _timed(ref_fn))
            t_new = min(t_new, _timed(new_fn))
        else:
            t_new = min(t_new, _timed(new_fn))
            t_ref = min(t_ref, _timed(ref_fn))
    return {
        "new_s": t_new,
        "ref_s": t_ref,
        "ratio_new_over_ref": t_new / t_ref if t_ref else 1.0,
        "speedup": t_ref / t_new if t_new else float("inf"),
    }


def _check_identical(live, ref, what: str) -> None:
    """Exit unless both stacks produced the same allocation, the same
    copy history and the same stats (residual list, copies created)."""
    for part, got, want in (
        ("allocation", live.allocation.as_dict(), ref.allocation.as_dict()),
        ("history", live.allocation.history, ref.allocation.history),
        ("stats", live.stats, ref.stats),
    ):
        if got != want:
            raise SystemExit(f"{part} mismatch: {what}")


# --------------------------------------------------------------------------
# Registry programs: the full allocation phase on real schedules
# --------------------------------------------------------------------------


def _program_inputs(source: str):
    run = run_pipeline(source, PipelineOptions())
    schedule = run.artifact("schedule")
    renamed = run.artifact("renamed")
    operand_sets = [
        frozenset(ops) for ops in schedule.operand_sets() if ops
    ]
    duplicable = {
        v.id
        for v in renamed.values
        if (v.def_sites or v.use_sites) and not v.multi_def
    }
    k = schedule.machine.k
    return operand_sets, duplicable, k


def bench_registry(repeat: int) -> dict[str, dict]:
    out: dict[str, dict] = {}
    for spec in all_programs():
        operand_sets, duplicable, k = _program_inputs(spec.source)
        entry: dict[str, object] = {
            "k": k,
            "instructions": len(operand_sets),
            "values": len({v for s in operand_sets for v in s}),
        }
        for method in ("hitting_set", "backtrack"):
            live = assign_modules(
                operand_sets, k, method=method, duplicable=duplicable
            )
            ref = reference_assign_modules(
                operand_sets, k, method=method, duplicable=duplicable
            )
            _check_identical(live, ref, f"{spec.name} {method}")
            entry[method] = _pair(
                lambda: assign_modules(
                    operand_sets, k, method=method, duplicable=duplicable
                ),
                lambda: reference_assign_modules(
                    operand_sets, k, method=method, duplicable=duplicable
                ),
                repeat,
            )
        out[spec.name] = entry
    return out


# --------------------------------------------------------------------------
# Stress programs: synthetic operand sets sized for the kernels
# --------------------------------------------------------------------------


def stress_program(
    seed: int, k: int, values: int, distinct: int, instructions: int
) -> list[frozenset[int]]:
    """Random operand sets with repeated rows: ``distinct`` unique
    instructions sampled ``instructions`` times, widths 2..k."""
    rng = random.Random(seed)
    pool = [
        frozenset(rng.sample(range(values), rng.randint(2, k)))
        for _ in range(distinct)
    ]
    return [rng.choice(pool) for _ in range(instructions)]


def _colored(sets: Sequence[frozenset[int]], k: int):
    coloring = color_graph(ConflictGraph.from_operand_sets(sets), k)
    alloc = Allocation(k)
    for v, m in coloring.assignment.items():
        alloc.add_copy(v, m)
    return alloc, coloring.unassigned


def bench_stress(repeat: int) -> dict[str, dict]:
    shapes = {
        "stress-k4": dict(seed=41, k=4, values=96, distinct=120,
                          instructions=420),
        "stress-k8": dict(seed=83, k=8, values=160, distinct=150,
                          instructions=500),
    }
    out: dict[str, dict] = {}
    for name, shape in shapes.items():
        k = shape["k"]
        sets = stress_program(**shape)
        duplicable = {v for s in sets for v in s}
        base_alloc, unassigned = _colored(sets, k)

        kernels: dict[str, dict] = {}
        kernels["conflict_graph"] = _pair(
            lambda: ConflictGraph.from_operand_sets(sets).num_edges,
            lambda: ReferenceConflictGraph.from_operand_sets(sets).num_edges,
            repeat,
        )
        kernels["coloring"] = _pair(
            lambda: color_graph(ConflictGraph.from_operand_sets(sets), k),
            lambda: reference_color_graph(
                ReferenceConflictGraph.from_operand_sets(sets), k
            ),
            repeat,
        )
        kernels["backtrack"] = _pair(
            lambda: backtrack_duplication(
                sets, base_alloc.copy(), unassigned, random.Random(0)
            ),
            lambda: reference_backtrack_duplication(
                sets, base_alloc.copy(), unassigned, random.Random(0)
            ),
            repeat,
        )
        kernels["hitting_set"] = _pair(
            lambda: hitting_set_duplication(
                sets, base_alloc.copy(), unassigned, duplicable,
                random.Random(0),
            ),
            lambda: reference_hitting_set_duplication(
                sets, base_alloc.copy(), unassigned, duplicable,
                random.Random(0),
            ),
            repeat,
        )
        full = assign_modules(sets, k, duplicable=duplicable)
        kernels["verify"] = _pair(
            lambda: conflicting_instructions(sets, full.allocation),
            lambda: reference_conflicting_instructions(
                sets, full.allocation
            ),
            repeat,
        )

        alloc_phase: dict[str, dict] = {}
        for method in ("hitting_set", "backtrack"):
            live = assign_modules(
                sets, k, method=method, duplicable=duplicable
            )
            ref = reference_assign_modules(
                sets, k, method=method, duplicable=duplicable
            )
            _check_identical(live, ref, f"{name} {method}")
            alloc_phase[method] = _pair(
                lambda: assign_modules(
                    sets, k, method=method, duplicable=duplicable
                ),
                lambda: reference_assign_modules(
                    sets, k, method=method, duplicable=duplicable
                ),
                repeat,
            )
        out[name] = {
            "k": k,
            "instructions": len(sets),
            "distinct_instructions": len(set(sets)),
            "values": len(duplicable),
            "kernels": kernels,
            "allocation_phase": alloc_phase,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_alloc.json",
                        help="output JSON path")
    parser.add_argument("--repeat", type=int, default=5,
                        help="cold repetitions per timing (min taken)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if live kernels regress past the "
                             "threshold on any registry program")
    parser.add_argument("--threshold", type=float, default=1.2,
                        help="max allowed new/ref time ratio (--check)")
    args = parser.parse_args(argv)

    registry = bench_registry(args.repeat)
    stress = bench_stress(args.repeat)
    report = {"registry": registry, "stress": stress,
              "config": {"repeat": args.repeat}}
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True))

    width = max(len(n) for n in list(registry) + list(stress))
    print(f"{'program':{width}s} {'method':11s} {'new':>9s} {'ref':>9s}"
          f" {'speedup':>8s}")
    failures: list[str] = []
    for name, entry in registry.items():
        for method in ("hitting_set", "backtrack"):
            pair = entry[method]
            print(f"{name:{width}s} {method:11s}"
                  f" {pair['new_s'] * 1e3:8.2f}ms"
                  f" {pair['ref_s'] * 1e3:8.2f}ms"
                  f" {pair['speedup']:7.2f}x")
            if pair["ratio_new_over_ref"] > args.threshold:
                failures.append(
                    f"{name}/{method}: new is "
                    f"{pair['ratio_new_over_ref']:.2f}x the reference "
                    f"(threshold {args.threshold}x)"
                )
    for name, entry in stress.items():
        for method, pair in entry["allocation_phase"].items():
            print(f"{name:{width}s} {method:11s}"
                  f" {pair['new_s'] * 1e3:8.2f}ms"
                  f" {pair['ref_s'] * 1e3:8.2f}ms"
                  f" {pair['speedup']:7.2f}x")
    print(f"report written to {args.out}")

    if args.check and failures:
        for f in failures:
            print(f"PERF REGRESSION: {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
