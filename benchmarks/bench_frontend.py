"""CPython-bytecode frontend benchmark: the pykernels corpus end to end.

Every :mod:`repro.programs.pykernels` registry kernel is compiled
through the CPython-bytecode frontend (:mod:`repro.frontends.pybytecode`,
``--frontend python``), storage-allocated, and executed on the memory
simulator at the paper machine widths (k = 8 and k = 4) — once under
the default interleaved layout (the baseline t_min/t_ave/t_actual) and
once under the array-layout optimizer's plan (t_opt).  The outputs of
each run are compared against *native CPython execution* of the same
kernel.  It emits ``BENCH_frontend.json``.

With ``--check`` (the CI gate) the script exits non-zero unless:

- every kernel compiles and allocates successfully (no residual
  conflicts under STOR2),
- every simulated run — baseline and optimized — reproduces the
  native CPython outputs exactly, and
- ``t_opt <= t_ave`` at k = 8 for every array-indexing kernel (the
  workload class the array-aware allocator targets).

Usage::

    python benchmarks/bench_frontend.py [--out BENCH_frontend.json]
                                        [--check]

Standalone script (not collected by pytest), like ``bench_arrays.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.arraylayout import optimize_arrays  # noqa: E402
from repro.core.strategies import run_strategy  # noqa: E402
from repro.liw.machine import MachineConfig  # noqa: E402
from repro.pipeline import compile_source, simulate  # noqa: E402
from repro.programs import all_pykernels, native_run  # noqa: E402

KS = (8, 4)


def bench_one(spec, k: int, native: list[object]) -> dict[str, object]:
    machine = MachineConfig(num_fus=4, num_modules=k)
    t0 = time.perf_counter()
    program = compile_source(
        spec.source, machine, frontend="python", py_entry=spec.entry
    )
    compile_wall = time.perf_counter() - t0
    storage = run_strategy("STOR2", program.schedule, program.renamed)
    inputs = list(spec.inputs)

    base = simulate(program, storage.allocation, inputs)
    plan = optimize_arrays(program.schedule, storage)
    opt = simulate(program, storage.allocation, inputs, plan=plan)

    mem = base.memory
    t_opt = opt.memory.t_actual
    return {
        "k": k,
        "uses_arrays": spec.uses_arrays,
        "compile_wall_s": compile_wall,
        "long_instructions": program.schedule.num_instructions,
        "operations": program.schedule.num_operations,
        "singles": storage.singles,
        "multiples": storage.multiples,
        "residual": len(storage.residual_instructions),
        "t_min": mem.t_min,
        "t_ave": mem.t_ave,
        "t_max": mem.t_max,
        "t_actual": mem.t_actual,
        "t_opt": t_opt,
        "opt_vs_ave": t_opt / mem.t_ave if mem.t_ave else 1.0,
        "ave_ratio": mem.ave_ratio,
        "moves": plan.num_moves,
        "cycles": base.cycles,
        "outputs_equal_native": base.outputs == native,
        "opt_outputs_equal_native": opt.outputs == native,
    }


def run_bench() -> dict[str, object]:
    kernels: dict[str, dict[str, object]] = {}
    for spec in all_pykernels():
        native = native_run(spec)
        entries = {}
        for k in KS:
            entry = bench_one(spec, k, native)
            entries[f"k{k}"] = entry
            match = ("ok" if entry["outputs_equal_native"]
                     and entry["opt_outputs_equal_native"] else "MISMATCH")
            print(
                f"{spec.name:10s} k={k}: t_opt={entry['t_opt']:8.1f}  "
                f"t_ave={entry['t_ave']:8.1f}  "
                f"({entry['opt_vs_ave']:.3f}x of t_ave)  native={match}"
            )
        kernels[spec.name] = entries
    return {"ks": list(KS), "kernels": kernels}


def check(report: dict[str, object]) -> list[str]:
    """The CI-gate conditions; returns human-readable failures."""
    failures: list[str] = []
    kernels = report["kernels"]
    assert isinstance(kernels, dict)
    for name, entries in kernels.items():
        for key, entry in entries.items():
            if entry["residual"]:
                failures.append(
                    f"{name} {key}: {entry['residual']} residual "
                    "allocation conflicts"
                )
            if not entry["outputs_equal_native"]:
                failures.append(
                    f"{name} {key}: baseline outputs diverge from CPython"
                )
            if not entry["opt_outputs_equal_native"]:
                failures.append(
                    f"{name} {key}: optimized outputs diverge from CPython"
                )
        k8 = entries["k8"]
        if k8["uses_arrays"]:
            t_opt, t_ave = float(k8["t_opt"]), float(k8["t_ave"])
            if t_opt > t_ave + 1e-9:
                failures.append(
                    f"{name} k8: t_opt {t_opt:.1f} > t_ave {t_ave:.1f} "
                    "on an array-indexing kernel"
                )
    if len(kernels) < 10:
        failures.append(f"only {len(kernels)} kernels in the registry")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_frontend.json")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless every kernel allocates, "
                             "matches native CPython, and t_opt <= t_ave "
                             "at k=8 on array-indexing kernels")
    args = parser.parse_args()

    report = run_bench()
    failures = check(report)
    report["checks"] = {"failures": failures, "ok": not failures}

    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"report written to {args.out}")

    if failures:
        for failure in failures:
            print(f"GATE FAIL: {failure}", file=sys.stderr)
        return 1 if args.check else 0
    kernels = report["kernels"]
    assert isinstance(kernels, dict)
    print(
        f"frontend gate ok: {len(kernels)} kernels match native CPython, "
        "t_opt <= t_ave at k=8 on every array-indexing kernel"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
