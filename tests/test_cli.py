"""Tests for the command-line driver (python -m repro)."""

import pytest

from repro.__main__ import build_parser, main
from tests.lang.test_parser import DEEP_PROGRAMS


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "sum.p"
    path.write_text(
        """
program sums;
var i, s: int;
begin
  s := 0;
  for i := 1 to 10 do s := s + i;
  write(s)
end.
"""
    )
    return str(path)


def test_compile_command(program_file, capsys):
    assert main(["compile", program_file]) == 0
    out = capsys.readouterr().out
    assert "long" in out and "storage" in out


def test_compile_show_allocation(program_file, capsys):
    assert main(["compile", program_file, "--show-allocation"]) == 0
    assert "M1" in capsys.readouterr().out


def test_compile_show_schedule(program_file, capsys):
    assert main(["compile", program_file, "--show-schedule"]) == 0
    out = capsys.readouterr().out
    assert "[" in out  # schedule listing


def test_compile_trace(program_file, capsys):
    assert main(["compile", program_file, "--trace"]) == 0
    out = capsys.readouterr().out
    for name in ("parse", "sema", "lower", "rename", "schedule",
                 "allocate", "total"):
        assert name in out
    assert "ran" in out and "ms" in out
    assert "skip" in out  # unroll disabled at factor 1


def test_compile_trace_json(program_file, tmp_path, capsys):
    import json

    trace_path = tmp_path / "trace.json"
    assert main([
        "compile", program_file, "--trace-json", str(trace_path),
        "--strategy", "STOR2",
    ]) == 0
    events = json.loads(trace_path.read_text())
    names = [e["pass"] for e in events]
    assert "parse" in names and "allocate" in names
    assert any(n.startswith("allocate.") for n in names)  # sub-stages
    done = [e for e in events if e["status"] == "end"]
    assert all("fingerprint" in e for e in done if "." not in e["pass"])


def test_compile_pipeline_flags(program_file, capsys):
    assert main([
        "compile", program_file, "--no-simplify",
        "--rename-mode", "variable", "--seed", "3",
    ]) == 0
    assert "storage" in capsys.readouterr().out


def test_run_command(program_file, capsys):
    assert main(["run", program_file]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip().splitlines()[0] == "55"
    assert "cycles=" in captured.err


def test_run_with_inputs(tmp_path, capsys):
    path = tmp_path / "echo.p"
    path.write_text(
        "program echo; var x: int; r: real;"
        " begin read(x); read(r); write(x + 1); write(r) end."
    )
    assert main(["run", str(path), "-i", "41", "-i", "2.5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["42", "2.5"]


def test_run_machine_flags(program_file, capsys):
    assert main([
        "run", program_file, "-k", "2", "--fus", "2", "--unroll", "2",
        "--memory-constants", "--strategy", "STOR3", "--method", "backtrack",
    ]) == 0
    assert capsys.readouterr().out.strip().splitlines()[0] == "55"


def test_bench_command(capsys):
    assert main(["bench", "FFT", "--unroll", "2"]) == 0
    out = capsys.readouterr().out
    assert "FFT" in out and "match reference" in out


def test_bench_rejects_unknown_program():
    with pytest.raises(SystemExit):
        main(["bench", "NOTAPROGRAM"])


def _stalls(out):
    line = next(ln for ln in out.splitlines() if "stalls:" in ln)
    return int(line.split("stalls:")[1])


def test_bench_simulates_at_the_given_delta(capsys):
    assert main(["bench", "TAYLOR1"]) == 0
    base = _stalls(capsys.readouterr().out)
    assert main(["bench", "TAYLOR1", "--delta", "3"]) == 0
    assert _stalls(capsys.readouterr().out) != base


def test_bench_wrong_output_value_exits_1(monkeypatch, capsys):
    import dataclasses

    import repro.__main__ as cli

    spec = cli.get_program("TAYLOR1")
    wrong = dataclasses.replace(
        spec,
        reference=lambda inputs: [
            v + 1 for v in spec.reference(inputs)  # same count, new values
        ],
    )
    monkeypatch.setattr(cli, "get_program", lambda name: wrong)
    assert main(["bench", "TAYLOR1"]) == 1
    assert "MISMATCH" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (["batch", "NOPE"], "unknown program 'NOPE'"),
        (["batch", "--frontend", "python", "nope"], "unknown pykernel"),
        (["compile", "/nonexistent/x.p"], "cannot read /nonexistent/x.p"),
        (["run", "/nonexistent/x.p"], "cannot read /nonexistent/x.p"),
        (["bench", "TAYLOR1", "--fus", "0"],
         "argument --fus: must be an int >= 1, got '0'"),
        (["bench", "TAYLOR1", "--modules", "0"],
         "argument --modules/-k: must be an int >= 1, got '0'"),
        (["run", "PROGRAM", "-i", "abc"],
         "argument --input/-i: not a number: 'abc'"),
    ],
)
def test_bad_names_and_paths_exit_2_with_one_error_line(
    argv, fragment, program_file, capsys
):
    argv = [program_file if arg == "PROGRAM" else arg for arg in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # rejected by argparse
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [ln for ln in err.splitlines() if ": error: " in ln]
    assert len(errors) == 1 and fragment in errors[0]


@pytest.mark.parametrize(
    "command,source,fragment",
    [
        ("compile", "program p; var x: int begin write(1) end.",
         "repro compile: error: expected ';', found 'begin' at 1:23"),
        ("run", "program p; var x: int begin write(1) end.",
         "repro run: error: expected ';', found 'begin' at 1:23"),
        ("run", "program p; var x: int; begin read(x); write(x) end.",
         "repro run: error: LIW program read past end of input"),
        ("run",
         "program p; var i: int; a: array[4] of int;"
         " begin i := 9; a[i] := 1; write(a[i]) end.",
         "repro run: error: array 'a' index 9 out of range [0, 4)"),
        ("compile", "program p; var x: int; begin x := ²; write(x) end.",
         "repro compile: error: unexpected character '²' at 1:35"),
    ],
)
def test_bad_programs_exit_1_with_one_error_line(
    command, source, fragment, tmp_path, capsys
):
    path = tmp_path / "bad.p"
    path.write_text(source)
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines() == [fragment]


def test_long_python_expression_exits_1_with_one_error_line(
    tmp_path, capsys
):
    path = tmp_path / "long.py"
    path.write_text(
        "def k():\n    x = " + "+".join(["1"] * 3000) + "\n    write(x)\n"
    )
    assert main(["compile", str(path), "--frontend", "python"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines() == [
        "repro compile: error: "
        "expression nested too deeply for CPython's compiler"
    ]


@pytest.mark.parametrize("name", DEEP_PROGRAMS)
def test_deep_program_exits_1_with_one_error_line(name, tmp_path, capsys):
    path = tmp_path / "deep.p"
    path.write_text(DEEP_PROGRAMS[name])
    assert main(["compile", str(path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    [line] = err.strip().splitlines()
    assert line.startswith(
        "repro compile: error: nesting deeper than 64 levels at 1:"
    )


def test_compiler_faults_still_raise(program_file, monkeypatch):
    import repro.__main__ as cli

    def broken(*args, **kwargs):
        raise RuntimeError("compiler bug")

    monkeypatch.setattr(cli, "run_pipeline", broken)
    with pytest.raises(RuntimeError, match="compiler bug"):
        main(["run", program_file])


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (["batch", "--workers", "0"],
         "argument --workers/-j: must be an int >= 1, got '0'"),
        (["serve", "--workers", "0"],
         "argument --workers: must be an int >= 1, got '0'"),
        (["serve", "--max-queue", "0"],
         "argument --max-queue: must be an int >= 1, got '0'"),
        (["serve", "--max-batch", "0"],
         "argument --max-batch: must be an int >= 1, got '0'"),
        (["serve", "--port", "99999"],
         "argument --port: must be a port in 0..65535, got '99999'"),
        (["serve", "--port", "-1"],
         "argument --port: must be a port in 0..65535, got '-1'"),
        (["serve", "--deadline", "0"],
         "argument --deadline: must be a finite number > 0, got '0'"),
        (["serve", "--deadline", "nan"],
         "argument --deadline: must be a finite number > 0, got 'nan'"),
        (["serve", "--job-timeout", "inf"],
         "argument --job-timeout: must be a finite number > 0, got 'inf'"),
        (["serve", "--batch-window", "-0.5"],
         "argument --batch-window: must be a finite number >= 0"),
        (["loadgen", "--clients", "0"],
         "argument --clients: must be an int >= 1, got '0'"),
        (["loadgen", "--requests", "-1"],
         "argument --requests: must be an int >= 1, got '-1'"),
        (["loadgen", "--dup-rate", "1.5"],
         "argument --dup-rate: must be a number in [0, 1], got '1.5'"),
        (["loadgen", "--port", "70000"],
         "argument --port: must be a port in 0..65535, got '70000'"),
        (["loadgen", "--deadline", "0"],
         "argument --deadline: must be a finite number > 0, got '0'"),
        (["serve", "--adaptive"], "unrecognized arguments: --adaptive"),
        (["serve", "--hot-threshold", "3"],
         "unrecognized arguments: --hot-threshold 3"),
        (["serve", "--upgrade-budget", "5"],
         "unrecognized arguments: --upgrade-budget 5"),
        (["loadgen", "--num-modules", "2"],
         "unrecognized arguments: --num-modules 2"),
    ],
)
def test_bad_service_flags_exit_2_without_traceback(argv, fragment, capsys):
    # Parsed only: a flag that slipped through would start a server.
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [ln for ln in err.splitlines() if ": error: " in ln]
    assert len(errors) == 1 and fragment in errors[0]


@pytest.mark.parametrize(
    "flags",
    [["--layout", "single"], ["--rename-mode", "variable"],
     ["--no-simplify"]],
)
def test_batch_rejects_flags_its_jobs_do_not_carry(flags, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["batch", "TAYLOR1", *flags])
    assert exit_info.value.code == 2
    assert (
        f"unrecognized arguments: {' '.join(flags)}"
        in capsys.readouterr().err
    )


def test_batch_delta_reaches_the_job_machine():
    from repro.__main__ import _machine

    args = build_parser().parse_args(["batch", "TAYLOR1", "--delta", "2"])
    assert _machine(args).delta == 2.0


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_layout_choice(program_file, capsys):
    assert main(["run", program_file, "--layout", "skewed"]) == 0


@pytest.fixture()
def array_program_file(tmp_path):
    path = tmp_path / "arr.p"
    path.write_text(
        """
program arr;
var i, s: int; a: array[8] of int; b: array[8] of int;
begin
  s := 0;
  for i := 0 to 7 do begin
    a[i] := i * 2;
    b[i] := a[i] + 1;
    s := s + b[i]
  end;
  write(s)
end.
"""
    )
    return str(path)


def test_compile_array_layout_optimize(array_program_file, capsys):
    assert main([
        "compile", array_program_file, "--array-layout", "optimize",
        "--unroll", "4",
    ]) == 0
    out = capsys.readouterr().out
    assert "array layout:" in out
    assert "predicted conflicts" in out


def test_compile_array_layout_fixed_stays_silent(array_program_file, capsys):
    assert main(["compile", array_program_file, "--unroll", "4"]) == 0
    assert "array layout:" not in capsys.readouterr().out


def test_run_array_layout_optimize_matches_fixed(array_program_file, capsys):
    assert main(["run", array_program_file, "--unroll", "4"]) == 0
    fixed = capsys.readouterr()
    assert main([
        "run", array_program_file, "--unroll", "4",
        "--array-layout", "optimize",
    ]) == 0
    opt = capsys.readouterr()
    assert opt.out == fixed.out  # identical program outputs
    assert "t_opt/t_min=" in opt.err
    assert "t_opt/t_min=" not in fixed.err


def test_bench_array_layout_optimize(capsys):
    assert main([
        "bench", "TAYLOR1", "--unroll", "2", "--array-layout", "optimize",
    ]) == 0
    assert "match reference" in capsys.readouterr().out


def test_batch_array_layout_optimize(tmp_path, capsys):
    report_path = tmp_path / "batch.json"
    assert main([
        "batch", "TAYLOR1", "--unroll", "2",
        "--array-layout", "optimize", "--json", str(report_path),
    ]) == 0
    import json

    report = json.loads(report_path.read_text())
    assert report["num_ok"] == 1
