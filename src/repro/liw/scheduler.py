"""List scheduler packing renamed TAC into long instruction words.

Standard critical-path list scheduling per basic block:

- priority = longest dependence path to the end of the block;
- an operation is ready in cycle ``c`` when every predecessor ``p``
  satisfies ``cycle(p) + latency(p→op) <= c`` (anti dependences have
  latency 0, so a value may be overwritten in the same cycle its last
  reader fires — operand fetch precedes write-back in lock-step
  hardware);
- resources per long instruction: ``num_fus`` operation slots and
  ``ports`` operand fetches (distinct scalar sources + array loads),
  mirroring the paper's "up to k operands" bound;
- the block terminator rides in the last long instruction when its
  condition operand fits, else in one extra instruction.
"""

from __future__ import annotations

from ..ir import tac
from ..ir.cfg import BasicBlock, Cfg
from ..ir.rename import RenamedProgram
from .ddg import build_ddg
from .machine import MachineConfig
from .schedule import BlockSchedule, LiwInstruction, Schedule


def _access_cost(
    instr: tac.TacInstr, current_operands: set[int]
) -> tuple[int, set[int]]:
    """Extra memory accesses ``instr`` adds to an instruction already
    touching ``current_operands`` (scalar value ids, R+W).  Array loads
    and stores each cost one access.  Returns (cost, new ids)."""
    new_ids: set[int] = set()
    for op in (*instr.uses(), *instr.defs()):
        if isinstance(op, tac.Value) and op.id not in current_operands:
            new_ids.add(op.id)
    arrays = 1 if instr.ARRAY_ACCESS else 0
    return len(new_ids) + arrays, new_ids


def schedule_block(
    block: BasicBlock, machine: MachineConfig
) -> BlockSchedule:
    body = block.body
    terminator = block.terminator
    ddg = build_ddg(block)
    heights = ddg.heights()
    n = len(body)

    cycle_of: dict[int, int] = {}
    unscheduled = set(range(n))
    liws: list[LiwInstruction] = []
    ports = machine.ports

    cycle = 0
    while unscheduled:
        liw = LiwInstruction()
        operands: set[int] = set()
        accesses = 0
        placed_any = True
        # Keep sweeping the ready list: placing a node can make a
        # 0-latency (anti-dependent) successor ready within this cycle.
        while placed_any and len(liw.ops) < machine.num_fus:
            placed_any = False
            ready = [
                i
                for i in unscheduled
                if all(
                    e.src in cycle_of and cycle_of[e.src] + e.latency <= cycle
                    for e in ddg.preds[i]
                )
            ]
            # Highest first; ties broken by program order for determinism.
            ready.sort(key=lambda i: (-heights[i], i))
            for i in ready:
                if len(liw.ops) >= machine.num_fus:
                    break
                cost, new_ids = _access_cost(body[i], operands)
                if accesses + cost > ports:
                    continue
                liw.ops.append(body[i])
                operands |= new_ids
                accesses += cost
                cycle_of[i] = cycle
                unscheduled.discard(i)
                placed_any = True
        if not liw.ops:
            # Port budget smaller than one op's fetch count (ports=1
            # machines): force the best ready op so scheduling always
            # terminates; the memory system serialises the fetches.
            ready = [
                i
                for i in unscheduled
                if all(
                    e.src in cycle_of and cycle_of[e.src] + e.latency <= cycle
                    for e in ddg.preds[i]
                )
            ]
            if not ready:
                raise RuntimeError(
                    f"scheduler made no progress in block {block.label!r}"
                )
            ready.sort(key=lambda i: (-heights[i], i))
            forced = ready[0]
            liw.ops.append(body[forced])
            cycle_of[forced] = cycle
            unscheduled.discard(forced)
        liws.append(liw)
        cycle += 1

    # Attach the terminator.  It must issue no earlier than one cycle
    # after the flow-dependence producing its condition; since the
    # producer is in some earlier-or-equal cycle and the terminator goes
    # into the last (or a fresh) instruction, only the last-cycle case
    # needs a check.
    if not liws:
        liws.append(LiwInstruction())
    last = liws[-1]
    cond_ids = {u.id for u in terminator.uses() if isinstance(u, tac.Value)}
    produced_last = last.scalar_dests() & cond_ids
    extra = len(cond_ids - last.scalar_operands())
    if produced_last or last.mem_accesses + extra > ports:
        liws.append(LiwInstruction(branch=terminator))
    else:
        last.branch = terminator

    return BlockSchedule(block.index, block.label, liws)


def schedule_program(
    renamed: RenamedProgram, machine: MachineConfig | None = None
) -> Schedule:
    """Schedule every block of a renamed program."""
    machine = machine or MachineConfig()
    cfg: Cfg = renamed.cfg
    blocks = [schedule_block(b, machine) for b in cfg.blocks]
    return Schedule(cfg, machine, blocks)
