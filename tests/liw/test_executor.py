"""Differential and unit tests for the LIW executor."""

import pytest

from repro.ir import build_cfg, compile_to_tac, rename, run_cfg
from repro.ir.interp import ExecutionLimitExceeded, InputExhausted
from repro.liw import MachineConfig, TraceRecorder, run_schedule, schedule_program


def both(body: str, decls: str = "var x, y, z, i: int; r: real; a: array[8] of int;",
         inputs=None, machine=None, **kw):
    src = f"program t; {decls} begin {body} end."
    cfg = build_cfg(compile_to_tac(src, **kw))
    interp = run_cfg(cfg, list(inputs or []))
    rn = rename(cfg)
    sched = schedule_program(rn, machine or MachineConfig())
    initial = rn.initial_values()
    execd = run_schedule(sched, list(inputs or []), initial_values=initial)
    return interp, execd


DIFFERENTIAL_CASES = [
    "x := 2 + 3; write(x)",
    "x := 5; y := 1; while x > 0 do begin y := y * x; x := x - 1 end; write(y)",
    "for i := 0 to 7 do a[i] := i * i; for i := 0 to 7 do write(a[i])",
    "read(x); read(y); if x > y then write(x) else write(y)",
    "x := 10; y := 0; while x > 0 do begin if x mod 2 = 0 then y := y + x; x := x - 1 end; write(y)",
    "r := 1.5; r := r * 2.0 + 1.0; write(r)",
    "for i := 0 to 5 do begin x := i; y := x + y end; write(y); write(x)",
    "for i := 5 downto 0 do write(i)",
    "x := 3; for i := 0 to x do begin write(i * 2) end",
]


@pytest.mark.parametrize("body", DIFFERENTIAL_CASES)
def test_executor_matches_interpreter(body):
    inputs = [4, 9]
    interp, execd = both(body, inputs=inputs)
    assert execd.outputs == interp.outputs


@pytest.mark.parametrize("fus,mods", [(1, 1), (2, 4), (4, 8), (8, 8)])
def test_machine_shape_does_not_change_semantics(fus, mods):
    body = (
        "x := 0; for i := 0 to 9 do begin a[i mod 8] := i; x := x + a[i mod 8] end;"
        " write(x)"
    )
    interp, execd = both(
        body, machine=MachineConfig(num_fus=fus, num_modules=mods)
    )
    assert execd.outputs == interp.outputs


def test_lock_step_anti_dependence():
    # y := x and x := 2 may share a cycle; y must read the OLD x
    interp, execd = both("x := 1; y := x; x := 2; write(y); write(x)")
    assert execd.outputs == interp.outputs == [1, 2]


def test_memory_constants_differential():
    interp, execd = both(
        "r := 2.5; r := r + 2.5; write(r)",
        constants_in_memory=True,
        immediate_limit=0,
    )
    assert execd.outputs == interp.outputs == [5.0]


def test_input_exhaustion_raised():
    with pytest.raises(InputExhausted):
        both("read(x); read(y)", inputs=[1])


def test_cycle_limit():
    src = "program t; var x: int; begin while true do x := x + 1 end."
    cfg = build_cfg(compile_to_tac(src))
    rn = rename(cfg)
    sched = schedule_program(rn, MachineConfig())
    with pytest.raises(ExecutionLimitExceeded):
        run_schedule(sched, max_cycles=500)


def test_trace_recorder_sees_every_instruction():
    src = "program t; var x, y: int; begin x := 1; y := x + 1; write(y) end."
    cfg = build_cfg(compile_to_tac(src))
    rn = rename(cfg)
    sched = schedule_program(rn, MachineConfig())
    rec = TraceRecorder()
    result = run_schedule(sched, observers=[rec])
    assert len(rec.events) == result.cycles
    assert any(e.scalar_sources for e in rec.events)
    assert any(e.scalar_dests for e in rec.events)


def test_cycles_fewer_than_interpreter_steps():
    body = "; ".join(f"x := x + {i}" for i in range(1, 9)) + "; write(x)"
    interp, execd = both(body)
    # multi-def web serialises, but constants pack: no more cycles than steps
    assert execd.cycles <= interp.steps


def test_array_touch_events_resolved():
    src = "program t; var i: int; a: array[4] of int; begin for i := 0 to 3 do a[i] := i end."
    cfg = build_cfg(compile_to_tac(src))
    rn = rename(cfg)
    sched = schedule_program(rn, MachineConfig())
    rec = TraceRecorder()
    run_schedule(sched, observers=[rec])
    touched = sorted(
        t.index for e in rec.events for t in e.array_touches if t.is_store
    )
    assert touched == [0, 1, 2, 3]


# -- decoded execution: op order, bounds, blocks entered mid-run ---------------


def _hand_schedule(*words):
    """A one-block schedule of the given long instructions; the last
    one halts."""
    from repro.ir import tac
    from repro.ir.cfg import Cfg
    from repro.liw.schedule import BlockSchedule, LiwInstruction, Schedule

    liws = [LiwInstruction(list(ops)) for ops in words]
    liws[-1].branch = tac.Halt()
    cfg = Cfg("hand", [], {}, [])
    return Schedule(cfg, MachineConfig(), [BlockSchedule(0, "entry", liws)])


def _both_executors(sched, inputs):
    from tests.sim_oracle import ReferenceExecutor

    got = run_schedule(sched, list(inputs))
    want = ReferenceExecutor(sched, list(inputs)).run()
    assert got.outputs == want.outputs
    assert got.cycles == want.cycles
    return got


def test_reads_in_one_word_consume_inputs_in_op_order():
    from repro.ir import tac

    v1, v2, v3 = tac.Value(1), tac.Value(2), tac.Value(3)
    sched = _hand_schedule(
        [tac.ReadIn(v1), tac.ReadIn(v2)],
        [tac.Binary(v3, "sub", v1, v2)],
        [tac.WriteOut(v3)],
    )
    assert _both_executors(sched, [10, 3]).outputs == [7]


def test_writes_in_one_word_keep_op_order():
    from repro.ir import tac

    v1, v2 = tac.Value(1), tac.Value(2)
    sched = _hand_schedule(
        [tac.ReadIn(v1)],
        [tac.ReadIn(v2)],
        [tac.WriteOut(v2), tac.WriteOut(v1), tac.WriteOut(tac.Const(0))],
    )
    assert _both_executors(sched, [1, 2]).outputs == [2, 1, 0]


def test_out_of_range_index_raises_from_executor():
    from repro.ir import ArrayIndexError

    src = (
        "program t; var i: int; a: array[4] of int;"
        " begin read(i); a[i] := 1; write(a[0]) end."
    )
    rn = rename(build_cfg(compile_to_tac(src)))
    sched = schedule_program(rn, MachineConfig())
    assert run_schedule(sched, [3]).outputs == [0]
    with pytest.raises(ArrayIndexError) as info:
        run_schedule(sched, [9])
    assert str(info.value) == "array 'a' index 9 out of range [0, 4)"
    with pytest.raises(IndexError, match=r"index -1 out of range \[0, 4\)"):
        run_schedule(sched, [-1])


def test_loop_block_first_entered_mid_run():
    from tests.sim_oracle import ReferenceExecutor

    body = (
        "x := 0; for i := 0 to 9 do x := x + i;"
        " y := 1; for i := 0 to 19 do begin a[i mod 8] := y; y := y + x * i end;"
        " write(x); write(y); write(a[3])"
    )
    interp, execd = both(body)
    assert execd.outputs == interp.outputs
    src = f"program t; var x, y, z, i: int; r: real; a: array[8] of int; begin {body} end."
    rn = rename(build_cfg(compile_to_tac(src)))
    sched = schedule_program(rn, MachineConfig())
    from repro.liw import LiwExecutor

    got = LiwExecutor(sched, initial_values=rn.initial_values())
    want = ReferenceExecutor(sched, initial_values=rn.initial_values())
    assert got.run().outputs == want.run().outputs == interp.outputs
    assert got.liw_counts == want.liw_counts
    assert max(got.liw_counts.values()) >= 20


def test_each_run_decodes_the_schedule_as_it_is_now():
    """Compiler stages edit a word's ops in place; a later run must see
    the edit (nothing is cached on the instruction)."""
    from repro.ir import tac

    v1, v2 = tac.Value(1), tac.Value(2)
    sched = _hand_schedule(
        [tac.ReadIn(v1)],
        [tac.Binary(v2, "add", v1, tac.Const(1))],
        [tac.WriteOut(v2)],
    )
    assert run_schedule(sched, [5]).outputs == [6]
    sched.blocks[0].liws[1].ops[0] = tac.Binary(v2, "mul", v1, tac.Const(3))
    assert run_schedule(sched, [5]).outputs == [15]


def test_branch_condition_reads_state_before_write_back():
    """A word that redefines its own branch condition branches on the
    old value (lock step), like every other fetch."""
    from repro.ir import tac
    from repro.ir.cfg import Cfg
    from repro.liw.schedule import BlockSchedule, LiwInstruction, Schedule

    v1 = tac.Value(1)
    blocks = [
        BlockSchedule(0, "entry", [
            LiwInstruction([tac.ReadIn(v1)]),
            LiwInstruction(
                [tac.Binary(v1, "sub", v1, tac.Const(1))],
                tac.CJump(v1, "yes", "no"),
            ),
        ]),
        BlockSchedule(1, "yes", [
            LiwInstruction([tac.WriteOut(v1)], tac.Halt()),
        ]),
        BlockSchedule(2, "no", [
            LiwInstruction([tac.WriteOut(tac.Const(-1))], tac.Halt()),
        ]),
    ]
    sched = Schedule(Cfg("hand", [], {}, []), MachineConfig(), blocks)
    assert _both_executors(sched, [1]).outputs == [0]
    assert _both_executors(sched, [0]).outputs == [-1]
