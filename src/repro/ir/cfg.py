"""Control-flow graph over TAC basic blocks.

The CFG is normalised so that every block ends in exactly one terminator
(:class:`~repro.ir.tac.Jump`, :class:`~repro.ir.tac.CJump`, or
:class:`~repro.ir.tac.Halt`); fall-through edges become explicit jumps.
Unreachable blocks are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import tac


@dataclass(slots=True)
class BasicBlock:
    """A maximal straight-line sequence of TAC instructions."""

    index: int
    label: str
    instrs: list[tac.TacInstr] = field(default_factory=list)
    succs: list[int] = field(default_factory=list)
    preds: list[int] = field(default_factory=list)

    @property
    def terminator(self) -> tac.TacInstr:
        return self.instrs[-1]

    @property
    def body(self) -> list[tac.TacInstr]:
        """Instructions excluding the terminator."""
        return self.instrs[:-1]

    def __str__(self) -> str:
        lines = [f"{self.label}:  ; preds={self.preds} succs={self.succs}"]
        lines += [f"    {i}" for i in self.instrs]
        return "\n".join(lines)


@dataclass(slots=True)
class Cfg:
    """Control-flow graph; block 0 is the entry."""

    name: str
    blocks: list[BasicBlock]
    arrays: dict[str, tac.ArrayInfo]
    scalars: list[str]
    #: memory-resident constant symbols and their initial values
    const_table: dict[str, int | float | bool] = field(default_factory=dict)

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    def block_of_label(self, label: str) -> BasicBlock:
        for block in self.blocks:
            if block.label == label:
                return block
        raise KeyError(label)

    def instructions(self) -> list[tuple[int, int, tac.TacInstr]]:
        """All instructions as (block_index, position, instr) triples."""
        out = []
        for block in self.blocks:
            for pos, instr in enumerate(block.instrs):
                out.append((block.index, pos, instr))
        return out

    def pretty(self) -> str:
        return "\n".join(str(b) for b in self.blocks)


def build_cfg(program: tac.TacProgram) -> Cfg:
    """Partition a linear TAC program into a normalised CFG."""
    # Pass 1: find leaders (first instruction, labelled instructions,
    # instructions following terminators).
    instrs = program.instrs
    if not instrs:
        instrs = [tac.Halt()]

    leaders: set[int] = {0}
    label_at: dict[str, int] = {}
    for i, instr in enumerate(instrs):
        if isinstance(instr, tac.Label):
            leaders.add(i)
            label_at[instr.name] = i
        elif instr.is_terminator and i + 1 < len(instrs):
            leaders.add(i + 1)

    ordered = sorted(leaders)
    start_to_block: dict[int, int] = {s: bi for bi, s in enumerate(ordered)}

    blocks: list[BasicBlock] = []
    for bi, start in enumerate(ordered):
        end = ordered[bi + 1] if bi + 1 < len(ordered) else len(instrs)
        body = [x for x in instrs[start:end] if not isinstance(x, tac.Label)]
        first = instrs[start]
        label = first.name if isinstance(first, tac.Label) else f".B{bi}"
        blocks.append(BasicBlock(bi, label, body))

    def block_of(label: str) -> int:
        pos = label_at[label]
        # A label may sit on another label; the leader set contains the
        # labelled instruction's index directly.
        return start_to_block[pos]

    # Pass 2: normalise terminators and wire edges.
    for bi, block in enumerate(blocks):
        if not block.instrs or not block.instrs[-1].is_terminator:
            # fall through to the next block (or halt at the end)
            if bi + 1 < len(blocks):
                block.instrs.append(tac.Jump(blocks[bi + 1].label))
            else:
                block.instrs.append(tac.Halt())
        # dict.fromkeys: a CJump whose arms meet has one successor.
        targets = block.instrs[-1].targets()
        block.succs = list(dict.fromkeys(block_of(t) for t in targets))

    # Pass 3: drop unreachable blocks, recompute indices and edges.
    reachable: set[int] = set()
    stack = [0]
    while stack:
        bi = stack.pop()
        if bi in reachable:
            continue
        reachable.add(bi)
        stack.extend(blocks[bi].succs)

    keep = [b for b in blocks if b.index in reachable]
    remap = {b.index: ni for ni, b in enumerate(keep)}
    for b in keep:
        b.index = remap[b.index]
        b.succs = [remap[s] for s in b.succs]
    for b in keep:
        b.preds = []
    for b in keep:
        for s in b.succs:
            keep[s].preds.append(b.index)

    return Cfg(
        program.name,
        keep,
        dict(program.arrays),
        list(program.scalars),
        dict(program.const_table),
    )
