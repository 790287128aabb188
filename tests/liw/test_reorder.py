"""Dependence-legal op movement: legality, replay, and verification."""

import pytest

from repro.core.strategies import stor1
from repro.liw.ddg import build_ddg
from repro.liw.machine import MachineConfig
from repro.liw.reorder import (
    Move,
    apply_moves,
    block_cycle_map,
    copy_schedule,
    move_fits,
    move_keeps_dependences,
    resolve_op,
    verify_schedule,
)
from repro.pipeline import compile_for_paper, simulate
from repro.programs import get_program

SRC = """
program p;
var i, s: int; a: array[8] of int; b: array[8] of int;
begin
  s := 0;
  for i := 0 to 7 do begin
    a[i] := i;
    b[i] := a[i] + 1;
    s := s + b[i]
  end;
  write(s)
end.
"""


def _compiled(source=SRC, k=8, unroll=4):
    machine = MachineConfig(num_fus=4, num_modules=k)
    program = compile_for_paper(source, machine, unroll=unroll)
    storage = stor1(program.schedule, program.renamed, k)
    return program, storage


def test_copy_schedule_is_isolated():
    program, _ = _compiled()
    schedule = program.schedule
    clone = copy_schedule(schedule)
    assert clone is not schedule
    assert verify_schedule(clone) == []
    bs = next(b for b in clone.blocks if b.liws and b.liws[0].ops)
    before = len(bs.liws[0].ops)
    moved = bs.liws[0].ops.pop()
    bs.liws[-1].ops.append(moved)
    original = next(
        b for b in schedule.blocks if b.block_index == bs.block_index
    )
    assert len(original.liws[0].ops) == before  # original untouched
    # the shared cfg/machine are the same objects, the words are not
    assert clone.cfg is schedule.cfg


def test_block_cycle_map_covers_body():
    program, _ = _compiled()
    schedule = program.schedule
    for bs in schedule.blocks:
        body = schedule.cfg.blocks[bs.block_index].body
        cycles = block_cycle_map(body, bs.liws)
        assert cycles is not None
        assert set(cycles) == set(range(len(body)))


def test_block_cycle_map_refuses_foreign_ops():
    program, _ = _compiled()
    schedule = copy_schedule(program.schedule)
    donor, host = None, None
    for bs in schedule.blocks:
        if bs.liws and bs.liws[0].ops:
            if donor is None:
                donor = bs
            elif bs.block_index != donor.block_index:
                host = bs
                break
    assert donor is not None and host is not None
    host.liws[0].ops.append(donor.liws[0].ops[0])
    body = schedule.cfg.blocks[host.block_index].body
    assert block_cycle_map(body, host.liws) is None


def test_every_legal_move_verifies():
    """Property: any single move that ``move_fits`` and
    ``move_keeps_dependences`` admit produces a schedule the independent
    re-verifier accepts."""
    program, _ = _compiled()
    schedule = program.schedule
    machine = schedule.machine
    checked = 0
    for bi, bs in enumerate(schedule.blocks):
        block = schedule.cfg.blocks[bs.block_index]
        cycles = block_cycle_map(block.body, bs.liws)
        if cycles is None or len(bs.liws) < 2:
            continue
        ddg = build_ddg(block)
        pos_of = {id(op): pos for pos, op in enumerate(block.body)}
        for pos in range(len(block.body)):
            for to_cycle in (cycles[pos] - 1, cycles[pos] + 1):
                if not (move_fits(
                    cycles, bs.liws, pos_of, pos, to_cycle,
                    machine.num_fus, machine.ports,
                ) and move_keeps_dependences(ddg, cycles, pos, to_cycle)):
                    continue
                op = resolve_op(bs.liws[cycles[pos]], pos_of, pos)
                op_index = bs.liws[cycles[pos]].ops.index(op)
                move = Move(bs.block_index, cycles[pos], op_index, to_cycle)
                assert verify_schedule(apply_moves(schedule, (move,))) == []
                checked += 1
                if checked >= 25:
                    return
    assert checked > 0


def test_illegal_move_caught_by_verifier():
    """Moving a producer past its consumer must trip verification."""
    program, _ = _compiled()
    schedule = program.schedule
    for bs in schedule.blocks:
        block = schedule.cfg.blocks[bs.block_index]
        cycles = block_cycle_map(block.body, bs.liws)
        if cycles is None or len(bs.liws) < 2:
            continue
        ddg = build_ddg(block)
        for edge in ddg.edges:
            if edge.latency < 1:
                continue
            src_cycle, dst_cycle = cycles[edge.src], cycles[edge.dst]
            if src_cycle >= dst_cycle:
                continue
            pos_of = {id(op): pos for pos, op in enumerate(block.body)}
            op = resolve_op(bs.liws[src_cycle], pos_of, edge.src)
            if op is None:
                continue
            bad = Move(
                bs.block_index, src_cycle,
                bs.liws[src_cycle].ops.index(op), dst_cycle,
            )
            problems = verify_schedule(apply_moves(schedule, (bad,)))
            assert problems, (bs.label, bad)
            return
    pytest.skip("no movable true dependence found")


def test_move_rejects_out_of_range_cycles():
    program, _ = _compiled()
    schedule = program.schedule
    bs = next(b for b in schedule.blocks if len(b.liws) >= 2)
    block = schedule.cfg.blocks[bs.block_index]
    cycles = block_cycle_map(block.body, bs.liws)
    pos_of = {id(op): pos for pos, op in enumerate(block.body)}
    fus, ports = schedule.machine.num_fus, schedule.machine.ports
    assert not move_fits(cycles, bs.liws, pos_of, 0, -1, fus, ports)
    assert not move_fits(cycles, bs.liws, pos_of, 0, len(bs.liws), fus, ports)
    # a no-op "move" to the current cycle is refused too
    assert not move_fits(cycles, bs.liws, pos_of, 0, cycles[0], fus, ports)


def test_apply_moves_range_checked():
    program, _ = _compiled()
    with pytest.raises(ValueError):
        apply_moves(program.schedule, (Move(9999, 0, 0, 1),))
    bs = program.schedule.blocks[0]
    with pytest.raises(ValueError):
        apply_moves(
            program.schedule,
            (Move(bs.block_index, 0, 99, min(1, len(bs.liws) - 1)),),
        )


def test_move_as_dict_round_trip():
    move = Move(2, 5, 1, 4)
    d = move.as_dict()
    assert d == {"block": 2, "from_cycle": 5, "op_index": 1, "to_cycle": 4}
    assert Move(d["block"], d["from_cycle"], d["op_index"], d["to_cycle"]) \
        == move


def test_reordered_schedule_executes_identically():
    """End to end: the optimizer's recorded moves, replayed through
    apply_moves, change nothing observable about SORT's execution."""
    from repro.core.arraylayout import optimize_arrays

    spec = get_program("TAYLOR2")
    program, storage = _compiled(spec.source)
    plan = optimize_arrays(program.schedule, storage)
    base = simulate(program, storage.allocation, list(spec.inputs))
    opt = simulate(program, storage.allocation, list(spec.inputs), plan=plan)
    assert opt.outputs == base.outputs
    assert opt.cycles == base.cycles  # moves never change cycle counts
