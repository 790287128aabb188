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

Each cycle fills one long instruction in *sweeps*:

- a sweep takes the operations ready at its start, highest first, ties
  by program order (the key ``(-height, index)``), and places each that
  fits the free FU slots and ports;
- an operation skipped for ports stays ready;
- operations released mid-sweep (0-latency successors of one just
  placed) join only the next sweep;
- sweeps repeat while the last one placed something and FU slots
  remain;
- if a cycle places nothing (a port budget below one operation's
  fetch count, e.g. ``ports=1``), the best ready operation is forced
  into it alone.

A ready heap on that key, a heap of released operations keyed by the
cycle they become ready and per-operation predecessor counts make each
placement cost only its out-edges.  Within a cycle an operation's extra
fetches plus the instruction's access count never fall, so one skipped
for ports is next looked at in the following cycle.
"""

from __future__ import annotations

import heapq

from ..ir import tac
from ..ir.cfg import BasicBlock, Cfg
from ..ir.rename import RenamedProgram
from .ddg import build_ddg
from .machine import MachineConfig
from .schedule import BlockSchedule, LiwInstruction, Schedule


def schedule_block(
    block: BasicBlock, machine: MachineConfig
) -> BlockSchedule:
    body = block.body
    terminator = block.terminator
    ddg = build_ddg(block)
    heights = ddg.heights()
    succs = ddg.succs
    n = len(body)
    num_fus = machine.num_fus
    ports = machine.ports

    # Per op, once: its distinct scalar value ids (R+W), its array
    # access count, its count of unscheduled predecessors and its
    # earliest-ready cycle so far.
    vids = [
        frozenset([op.id for op in i.uses() + i.defs()
                   if isinstance(op, tac.Value)])
        for i in body
    ]
    arrays = [1 if i.ARRAY_ACCESS else 0 for i in body]
    waiting = [len(p) for p in ddg.preds]
    earliest = [0] * n
    # Key (-height, index) as one int: ``key % n`` is the index.
    keys = [-heights[i] * n + i for i in range(n)]
    ready = [keys[i] for i in range(n) if not waiting[i]]
    heapq.heapify(ready)
    released: list[tuple[int, int]] = []  # (ready cycle, key)

    def place(i: int, cycle: int) -> None:
        for e in succs[i]:
            d = e.dst
            waiting[d] -= 1
            if cycle + e.latency > earliest[d]:
                earliest[d] = cycle + e.latency
            if not waiting[d]:
                heapq.heappush(released, (earliest[d], keys[d]))

    liws: list[LiwInstruction] = []
    left = n
    cycle = 0
    while left:
        ops: list[tac.TacInstr] = []
        operands: set[int] = set()
        accesses = 0
        skipped: list[int] = []
        placed_any = True
        while placed_any and len(ops) < num_fus:
            placed_any = False
            while released and released[0][0] <= cycle:
                heapq.heappush(ready, heapq.heappop(released)[1])
            while ready and len(ops) < num_fus:
                key = heapq.heappop(ready)
                i = key % n
                new_ids = vids[i] - operands
                cost = len(new_ids) + arrays[i]
                if accesses + cost > ports:
                    skipped.append(key)
                    continue
                ops.append(body[i])
                operands |= new_ids
                accesses += cost
                place(i, cycle)
                left -= 1
                placed_any = True
        for key in skipped:
            heapq.heappush(ready, key)
        if not ops:
            # Port budget smaller than one op's fetch count (ports=1
            # machines): force the best ready op so scheduling always
            # terminates; the memory system serialises the fetches.
            if not ready:
                raise RuntimeError(
                    f"scheduler made no progress in block {block.label!r}"
                )
            i = heapq.heappop(ready) % n
            ops.append(body[i])
            place(i, cycle)
            left -= 1
        liws.append(LiwInstruction(ops))
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
