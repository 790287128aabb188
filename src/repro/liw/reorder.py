"""Dependence-legal movement of operations between long instructions.

The list scheduler packs for height and resources; it is blind to the
*memory-module* profile of the words it builds.  The array-layout
optimizer (:mod:`repro.core.arraylayout`) uses this module as its
second lever: moving one array operation into an adjacent long
instruction can break a predicted bank conflict that no layout could —
two accesses with an unknown index distance fetched in the same cycle.

A move is the atomic transformation: take ``ops[op_index]`` out of the
word at ``from_cycle`` and append it to the word at ``to_cycle`` of the
same block.  A move is legal when it passes two pure checks of the
exact conditions the scheduler itself enforced:

- :func:`move_fits`: the destination word respects the machine's
  ``num_fus`` operation slots and ``ports`` access budget, and a value
  consumed by the block terminator is still produced strictly before
  the word carrying the branch;
- :func:`move_keeps_dependences`: every dependence-graph
  predecessor/successor latency still holds (anti dependences keep
  their latency-0 same-cycle allowance).

The first needs no dependence graph, so a caller runs it first and
builds the graph only for a move that fits.

:func:`apply_moves` replays a recorded move list onto a *fresh copy* of
a schedule (schedules are shared artifacts — pass-cache entries must
never be mutated), and :func:`verify_schedule` re-checks every block
against a freshly built DDG, which is the post-transformation safety
net the optimization pass runs before publishing its plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir import tac
from .ddg import DependenceGraph, build_ddg
from .schedule import BlockSchedule, LiwInstruction, Schedule

__all__ = [
    "Move",
    "copy_schedule",
    "apply_moves",
    "move_fits",
    "move_keeps_dependences",
    "resolve_op",
    "verify_schedule",
    "block_cycle_map",
]


@dataclass(frozen=True, slots=True)
class Move:
    """One recorded operation move, replayable in sequence."""

    block_index: int
    from_cycle: int
    op_index: int
    to_cycle: int

    def as_dict(self) -> dict[str, int]:
        return {
            "block": self.block_index,
            "from_cycle": self.from_cycle,
            "op_index": self.op_index,
            "to_cycle": self.to_cycle,
        }


def copy_schedule(schedule: Schedule) -> Schedule:
    """A structurally fresh schedule sharing the (immutable-in-practice)
    TAC operations.  Mutating the copy's words never touches the
    original — schedules live in artifact caches and must stay frozen."""
    blocks = [
        BlockSchedule(
            bs.block_index,
            bs.label,
            [LiwInstruction(list(liw.ops), liw.branch) for liw in bs.liws],
        )
        for bs in schedule.blocks
    ]
    return Schedule(schedule.cfg, schedule.machine, blocks)


def block_cycle_map(
    block_body: list[tac.TacInstr], liws: list[LiwInstruction]
) -> dict[int, int] | None:
    """Body position -> cycle for one block's words.

    Returns ``None`` when the words hold operations that are not body
    instructions (e.g. scheduled transfers) or an instruction object
    appears twice — blocks this module then refuses to touch.
    """
    pos_of = {id(instr): pos for pos, instr in enumerate(block_body)}
    if len(pos_of) != len(block_body):
        return None
    cycles: dict[int, int] = {}
    for cycle, liw in enumerate(liws):
        for op in liw.ops:
            pos = pos_of.get(id(op))
            if pos is None or pos in cycles:
                return None
            cycles[pos] = cycle
    return cycles


def _branch_cycle(liws: list[LiwInstruction]) -> int | None:
    for cycle, liw in enumerate(liws):
        if liw.branch is not None:
            return cycle
    return None


def _cond_value_ids(liws: list[LiwInstruction]) -> frozenset[int]:
    for liw in liws:
        if liw.branch is not None:
            return frozenset(
                u.id for u in liw.branch.uses() if isinstance(u, tac.Value)
            )
    return frozenset()


def move_fits(
    cycles: dict[int, int],
    liws: list[LiwInstruction],
    pos_of: dict[int, int],
    pos: int,
    to_cycle: int,
    num_fus: int,
    ports: int,
) -> bool:
    """Whether body op ``pos`` fits in the word at ``to_cycle``: the
    target word exists and differs, has a free FU slot and port budget,
    and the branch rule holds.

    ``pos_of`` maps ``id(op) -> body position`` (see
    :func:`block_cycle_map`'s construction); ``cycles`` maps body
    position -> current cycle."""
    if not 0 <= to_cycle < len(liws):
        return False
    from_cycle = cycles[pos]
    if to_cycle == from_cycle:
        return False

    moved = resolve_op(liws[from_cycle], pos_of, pos)
    if moved is None:
        return False
    target = liws[to_cycle]
    if len(target.ops) + 1 > num_fus:
        return False
    tentative = LiwInstruction(target.ops + [moved], target.branch)
    if tentative.mem_accesses > ports:
        return False

    branch_cycle = _branch_cycle(liws)
    if branch_cycle is not None:
        cond_ids = _cond_value_ids(liws)
        defines_cond = any(
            isinstance(d, tac.Value) and d.id in cond_ids
            for d in moved.defs()
        )
        if defines_cond and to_cycle >= branch_cycle:
            return False
    return True


def move_keeps_dependences(
    ddg: DependenceGraph, cycles: dict[int, int], pos: int, to_cycle: int
) -> bool:
    """Whether every dependence edge of body op ``pos`` still holds
    with the op in ``to_cycle``."""
    for edge in ddg.preds[pos]:
        if cycles[edge.src] + edge.latency > to_cycle:
            return False
    for edge in ddg.succs[pos]:
        if to_cycle + edge.latency > cycles[edge.dst]:
            return False
    return True


def resolve_op(
    liw: LiwInstruction, pos_of: dict[int, int], pos: int
) -> tac.TacInstr | None:
    """The operation object in ``liw`` whose body position is ``pos``."""
    for op in liw.ops:
        if pos_of.get(id(op)) == pos:
            return op
    return None


def apply_moves(schedule: Schedule, moves: tuple[Move, ...]) -> Schedule:
    """Replay recorded moves onto a fresh copy of ``schedule``.

    Moves are applied in order with the (from_cycle, op_index)
    coordinates valid *at application time* — exactly how the optimizer
    recorded them — so replay reproduces the optimizer's working
    schedule operation-for-operation.
    """
    out = copy_schedule(schedule)
    by_index = {bs.block_index: bs for bs in out.blocks}
    for move in moves:
        bs = by_index.get(move.block_index)
        if bs is None:
            raise ValueError(f"move references unknown block {move!r}")
        liws = bs.liws
        if not (
            0 <= move.from_cycle < len(liws)
            and 0 <= move.to_cycle < len(liws)
            and 0 <= move.op_index < len(liws[move.from_cycle].ops)
        ):
            raise ValueError(f"move out of range: {move!r}")
        op = liws[move.from_cycle].ops.pop(move.op_index)
        liws[move.to_cycle].ops.append(op)
    return out


def verify_schedule(schedule: Schedule) -> list[str]:
    """Re-check every block of a (possibly reordered) schedule against a
    freshly built DDG.  Returns human-readable violations (empty =
    valid).  Checks dependence latencies, op conservation, and the
    branch-condition ordering; resource budgets are checked by the
    mover, not here (the list scheduler itself may exceed ``ports`` on
    degenerate machines)."""
    problems: list[str] = []
    for bs in schedule.blocks:
        block = schedule.cfg.blocks[bs.block_index]
        body = block.body
        cycles = block_cycle_map(body, bs.liws)
        if cycles is None:
            problems.append(f"block {bs.label}: words hold non-body ops")
            continue
        if len(cycles) != len(body):
            problems.append(
                f"block {bs.label}: {len(body) - len(cycles)} body "
                f"op(s) missing from the schedule"
            )
            continue
        ddg = build_ddg(block)
        for edge in ddg.edges:
            if cycles[edge.src] + edge.latency > cycles[edge.dst]:
                problems.append(
                    f"block {bs.label}: {edge.kind} dependence "
                    f"{edge.src}->{edge.dst} violated "
                    f"({cycles[edge.src]} + {edge.latency} > "
                    f"{cycles[edge.dst]})"
                )
        branch_cycle = _branch_cycle(bs.liws)
        if branch_cycle is not None:
            cond_ids = _cond_value_ids(bs.liws)
            for pos, instr in enumerate(body):
                if any(
                    isinstance(d, tac.Value) and d.id in cond_ids
                    for d in instr.defs()
                ) and cycles[pos] >= branch_cycle:
                    problems.append(
                        f"block {bs.label}: branch condition produced "
                        f"in cycle {cycles[pos]} >= branch cycle "
                        f"{branch_cycle}"
                    )
    return problems
