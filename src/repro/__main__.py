"""Command-line compiler driver.

Usage::

    python -m repro compile PROGRAM.p [options]      # schedule + allocation
    python -m repro compile PROGRAM.p --trace        # + per-pass timings
    python -m repro run PROGRAM.p [--input V ...]    # execute + Δ report
    python -m repro bench NAME                       # one paper benchmark
    python -m repro batch [NAME ...]                 # pooled corpus + cache
    python -m repro run K.py --frontend python       # CPython-bytecode kernel
    python -m repro batch --frontend python          # pykernels corpus
    python -m repro serve [--port P ...]             # online compile service
    python -m repro serve --workers N                # N compile processes
    python -m repro loadgen [--clients N ...]        # drive a running server
    python -m repro report                           # all tables/figures

``PROGRAM.p`` is mini-language source (or, with ``--frontend python``,
a ``.py`` file whose entry function is named by ``--entry``); ``NAME``
is one of the paper's six benchmarks (TAYLOR1, TAYLOR2, EXACT, FFT,
SORT, COLOR), or with ``--frontend python`` a
:mod:`repro.programs.pykernels` registry kernel.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import suppress
from pathlib import Path

from .frontends.errors import FrontendError
from .ir.interp import ArrayIndexError, ExecutionLimitExceeded, InputExhausted
from .lang.errors import LangError
from .liw.machine import MachineConfig
from .passes.artifacts import PipelineOptions, compiled_program
from .passes.events import CollectingTracer
from .passes.knobs import JOB_KNOBS, KNOB, KNOBS, Knob, pipeline_options
from .pipeline import run_pipeline
from .programs import get_program, outputs_match, program_names


def _machine(args: argparse.Namespace) -> MachineConfig:
    return MachineConfig(
        num_fus=args.fus, num_modules=args.modules, delta=args.delta
    )


def _knob_values(
    args: argparse.Namespace, knobs: tuple[Knob, ...] = KNOBS
) -> dict[str, object]:
    """The values of the command-line flags among ``knobs``."""
    return {knob.name: getattr(args, knob.name) for knob in knobs if knob.flag}


def _options(args: argparse.Namespace) -> PipelineOptions:
    """The pass-pipeline configuration one CLI invocation describes."""
    return pipeline_options(_knob_values(args), _machine(args))


def _source_file(path: str) -> str:
    """A ``program`` argument: the text of the file it names."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise argparse.ArgumentTypeError(
            f"cannot read {path}: {exc.strerror}"
        ) from None


def _checked(convert, ok, rule: str):
    """An argparse type: ``convert(text)``, accepted only if ``ok``."""

    def parse(text: str):
        value = None
        with suppress(ValueError):
            value = convert(text)
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    return parse


_positive_int = _checked(int, lambda v: v >= 1, "an int >= 1")
_port = _checked(int, lambda v: 0 <= v <= 65535, "a port in 0..65535")
#: seconds, by the protocol's ``deadline_ms`` rule
_seconds = _checked(
    float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0"
)
_window = _checked(
    float, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0"
)
_fraction = _checked(float, lambda v: 0 <= v <= 1, "a number in [0, 1]")


def _input_value(text: str) -> int | float:
    """An ``--input`` value: an int if it reads as one, else a float."""
    for convert in (int, float):
        with suppress(ValueError):
            return convert(text)
    raise argparse.ArgumentTypeError(f"not a number: {text!r}")


def cmd_compile(args: argparse.Namespace) -> int:
    import json

    from .analysis.report import format_trace, trace_json

    tracer = CollectingTracer()
    run = run_pipeline(args.program, _options(args), tracer=tracer)
    program = compiled_program(run.store)
    storage = run.artifact("storage")
    print(f"; {program.name}: {program.schedule.num_instructions} long "
          f"instructions, {program.schedule.num_operations} operations")
    if args.show_schedule:
        print(program.schedule.pretty())
    print(f"; storage ({args.strategy}, {args.method}): "
          f"{storage.singles} single-copy, {storage.multiples} duplicated, "
          f"{len(storage.residual_instructions)} residual conflicts")
    plan = run.store.get_optional("array_plan")
    if plan is not None:
        print(f"; array layout: {len(plan.specs)} array(s) planned, "
              f"{plan.num_moves} schedule move(s), predicted conflicts "
              f"{plan.predicted_before:.0f} -> {plan.predicted_after:.0f}")
    if args.show_allocation:
        print(storage.allocation.grid())
    if args.trace:
        print(format_trace(tracer.events))
    if args.trace_json:
        Path(args.trace_json).write_text(
            json.dumps(trace_json(tracer.events), indent=2)
        )
        print(f"; pass trace written to {args.trace_json}", file=sys.stderr)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    run = run_pipeline(args.program, _options(args), inputs=args.input)
    result = run.artifact("simulation")
    for value in result.outputs:
        print(value)
    mem = result.memory
    opt_note = (
        f" t_opt/t_min={mem.actual_ratio:.3f}"
        if run.store.has("array_plan") else ""
    )
    print(
        f"; cycles={result.cycles} stalls={mem.stall_time:.0f} "
        f"t_ave/t_min={mem.ave_ratio:.3f} t_max/t_min={mem.max_ratio:.3f}"
        f"{opt_note}",
        file=sys.stderr,
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    spec = get_program(args.name)
    run = run_pipeline(spec.source, _options(args), inputs=list(spec.inputs))
    program = compiled_program(run.store)
    storage = run.artifact("storage")
    result = run.artifact("simulation")
    ok = spec.reference is None or outputs_match(
        result.outputs, spec.reference(spec.inputs)
    )
    mem = result.memory
    print(f"{spec.name}: {spec.description}")
    print(f"  long instructions: {program.schedule.num_instructions}")
    print(f"  storage: {storage.singles} single / {storage.multiples} dup")
    print(f"  cycles: {result.cycles}  stalls: {mem.stall_time:.0f}")
    print(f"  t_ave/t_min: {mem.ave_ratio:.3f}  t_max/t_min: {mem.max_ratio:.3f}")
    print(f"  outputs: {len(result.outputs)} values "
          f"({'match reference' if ok else 'MISMATCH'})")
    return 0 if ok else 1


def cmd_batch(args: argparse.Namespace) -> int:
    import json

    from .analysis.report import batch_report_json, format_batch_report
    from .programs import all_programs, all_pykernels, get_pykernel
    from .service import AllocationCache, BatchCompiler, BatchJob
    from .service.cache import encode_storage_result

    if args.frontend == "python":
        # The corpus is the pykernels registry: real Python functions
        # compiled through the CPython-bytecode frontend, each naming
        # its own entry function.
        lookup, everything = get_pykernel, all_pykernels
    else:
        lookup, everything = get_program, all_programs
    try:
        specs = (
            [lookup(name) for name in args.names]
            if args.names else everything()
        )
    except KeyError as exc:
        print(f"repro batch: error: {exc.args[0]}", file=sys.stderr)
        return 2
    machine = _machine(args)
    values = _knob_values(args, JOB_KNOBS)
    jobs = [
        BatchJob(
            spec.name, spec.source, machine,
            **{**values, "entry": getattr(spec, "entry", args.entry)},
        )
        for spec in specs
    ]
    compiler = BatchCompiler(
        workers=args.workers,
        timeout=args.timeout,
        cache=AllocationCache(args.cache_dir),
    )
    report = compiler.run(jobs)
    print(format_batch_report(report))
    if args.json_path:
        Path(args.json_path).write_text(
            json.dumps(batch_report_json(report), indent=2, sort_keys=True)
        )
        print(f"; metrics JSON written to {args.json_path}", file=sys.stderr)
    ok = report.num_ok == len(jobs)
    if args.verify_serial:
        serial = BatchCompiler(workers=1, cache=AllocationCache()).run(jobs)
        identical = all(
            a.ok and b.ok
            and encode_storage_result(a.storage)
            == encode_storage_result(b.storage)
            for a, b in zip(report.results, serial.results)
        )
        print(
            "; serial check: "
            + ("results identical" if identical else "MISMATCH"),
            file=sys.stderr,
        )
        ok = ok and identical
    return 0 if ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json

    def announce(event: dict[str, object]) -> None:
        # One JSON line per lifecycle event so harnesses (CI smoke,
        # benchmarks/bench_server.py) can scrape the bound port and the
        # drain summary.
        print(json.dumps(event, sort_keys=True), flush=True)

    from .server import ServerConfig, serve

    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        job_timeout=args.job_timeout,
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        batch_window=args.batch_window,
        default_deadline=args.deadline,
        cache_dir=args.cache_dir,
    )

    summary = asyncio.run(
        serve(config, announce=announce if args.announce else None)
    )
    if not args.announce:
        print(
            f"; drained: {summary['resolved']} resolved, "
            f"{summary['abandoned']} abandoned, "
            f"{summary['unanswered']} unanswered",
            file=sys.stderr,
        )
    return 0 if summary["unanswered"] == 0 else 1


def cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from .analysis.report import format_loadgen_report
    from .server.loadgen import LoadgenConfig, run_load

    config = LoadgenConfig(
        clients=args.clients,
        requests=args.requests,
        dup_rate=args.dup_rate,
        strategy=args.strategy,
        deadline_ms=args.deadline * 1000.0,
        seed=args.seed,
        poison=not args.no_poison,
    )
    report = asyncio.run(run_load(args.host, args.port, config))
    print(format_loadgen_report(report))
    if args.json_path:
        Path(args.json_path).write_text(
            json.dumps(report, indent=2, sort_keys=True)
        )
        print(f"; load report written to {args.json_path}", file=sys.stderr)
    checks = report.get("checks", {})
    return 0 if all(checks.values()) else 1


def cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import full_report

    print(full_report(unroll=args.unroll))
    return 0


def _add_knob(p: argparse.ArgumentParser, knob: Knob) -> None:
    """One knob's flag, validated as the protocol validates it."""
    if knob.type is bool:
        p.add_argument(knob.flag, dest=knob.name, help=knob.help,
                       action="store_false" if knob.default else "store_true")
        return

    def convert(text: str) -> object:
        try:
            return knob.parse_text(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    choices = knob.choices() if knob.choices else None
    p.add_argument(knob.flag, dest=knob.name, type=convert,
                   default=knob.default, help=knob.help,
                   metavar="{%s}" % ",".join(choices) if choices else None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel-memory LIW compiler (Gupta & Soffa, PPoPP'88)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(
        p: argparse.ArgumentParser, knobs: tuple[Knob, ...] = KNOBS
    ) -> None:
        p.add_argument("--fus", type=_positive_int, default=4,
                       help="functional units")
        p.add_argument("--modules", "-k", type=_positive_int, default=8,
                       help="memory modules")
        for knob in knobs:
            if knob.flag:
                _add_knob(p, knob)

    p_compile = sub.add_parser("compile", help="compile and allocate")
    p_compile.add_argument("program", type=_source_file)
    p_compile.add_argument("--show-schedule", action="store_true")
    p_compile.add_argument("--show-allocation", action="store_true")
    p_compile.add_argument("--trace", action="store_true",
                           help="print the per-pass timing table")
    p_compile.add_argument("--trace-json", default=None,
                           help="write the JSON pass trace to this file")
    common(p_compile)
    p_compile.set_defaults(fn=cmd_compile)

    p_run = sub.add_parser("run", help="compile, allocate, and execute")
    p_run.add_argument("program", type=_source_file)
    p_run.add_argument("--input", "-i", action="append", default=[],
                       type=_input_value, help="input value (repeatable)")
    common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_bench = sub.add_parser("bench", help="run one paper benchmark")
    p_bench.add_argument("name", choices=program_names())
    common(p_bench)
    p_bench.set_defaults(fn=cmd_bench)

    p_batch = sub.add_parser(
        "batch", help="batch-compile a corpus over a process pool + cache"
    )
    p_batch.add_argument(
        "names", nargs="*", metavar="NAME",
        help="registry programs (default: all six; with --frontend "
             "python, pykernels registry names, default all)",
    )
    p_batch.add_argument("--workers", "-j", type=_positive_int, default=None,
                         help="process-pool size (1 = serial)")
    p_batch.add_argument("--timeout", type=float, default=None,
                         help="per-job seconds before serial fallback")
    p_batch.add_argument("--cache-dir", default=None,
                         help="persist the allocation cache here")
    p_batch.add_argument("--json", dest="json_path", default=None,
                         help="write the metrics JSON report to this file")
    p_batch.add_argument("--verify-serial", action="store_true",
                         help="re-run serially and compare results")
    # batch jobs carry the job knobs; Δ reaches them through the machine
    common(p_batch, JOB_KNOBS + (KNOB["delta"],))
    p_batch.set_defaults(fn=cmd_batch)

    p_serve = sub.add_parser(
        "serve", help="run the asyncio compile service (JSON over TCP)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=_port, default=7070,
                         help="0 picks an ephemeral port (see --announce)")
    p_serve.add_argument("--workers", type=_positive_int, default=1,
                         help="BatchCompiler pool width (1 = in-thread)")
    p_serve.add_argument("--job-timeout", type=_seconds, default=120.0,
                         help="per-job seconds inside the batch compiler")
    p_serve.add_argument("--max-queue", type=_positive_int, default=64,
                         help="admission-queue bound (backpressure point)")
    p_serve.add_argument("--max-batch", type=_positive_int, default=8,
                         help="micro-batch size cap")
    p_serve.add_argument("--batch-window", type=_window, default=0.01,
                         help="seconds to coalesce arrivals into a batch")
    p_serve.add_argument("--deadline", type=_seconds, default=60.0,
                         help="default per-request deadline (seconds)")
    p_serve.add_argument("--cache-dir", default=None,
                         help="persist the allocation cache here")
    p_serve.add_argument("--announce", action="store_true",
                         help="print JSON lifecycle events (port, drain)")
    p_serve.set_defaults(fn=cmd_serve)

    p_load = sub.add_parser(
        "loadgen", help="drive a running compile server with mixed load"
    )
    p_load.add_argument("--host", default="127.0.0.1")
    p_load.add_argument("--port", type=_port, default=7070)
    p_load.add_argument("--clients", type=_positive_int, default=8,
                        help="concurrent client connections")
    p_load.add_argument("--requests", type=_positive_int, default=64,
                        help="total compile requests")
    p_load.add_argument("--dup-rate", type=_fraction, default=0.4,
                        help="fraction of duplicate requests")
    _add_knob(p_load, KNOB["strategy"])
    p_load.add_argument("--deadline", type=_seconds, default=30.0,
                        help="per-request deadline (seconds)")
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument("--no-poison", action="store_true",
                        help="skip the oversized/broken poison requests")
    p_load.add_argument("--json", dest="json_path", default=None,
                        help="write the load report JSON to this file")
    p_load.set_defaults(fn=cmd_loadgen)

    p_report = sub.add_parser("report", help="regenerate every experiment")
    p_report.add_argument("--unroll", type=int, default=4)
    p_report.set_defaults(fn=cmd_report)

    return parser


#: Faults of the program being compiled or run, not of the compiler:
#: ``compile``/``run``/``bench`` report them as one ``error:`` line and
#: exit 1.  Any other exception still ends in a traceback.
PROGRAM_ERRORS = (
    LangError,
    FrontendError,
    InputExhausted,
    ExecutionLimitExceeded,
    ArrayIndexError,
)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.fn not in (cmd_compile, cmd_run, cmd_bench):
        return args.fn(args)
    try:
        return args.fn(args)
    except PROGRAM_ERRORS as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
