"""Long-instruction containers: what the scheduler produces.

A :class:`LiwInstruction` bundles operations that execute in lock-step in
one machine cycle.  Its *scalar source set* — the distinct data values
fetched from memory modules during the operand-fetch phase — is exactly
the paper's notion of "the operands required by an instruction", and is
what the conflict-graph construction consumes.  Constants are immediates
and fetch nothing; array accesses hit a module that depends on the
run-time index and are tracked separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir import tac
from ..ir.cfg import Cfg
from .machine import MachineConfig


@dataclass(frozen=True, slots=True)
class ArrayAccess:
    """One array element access within a long instruction."""

    array: str
    index: tac.Operand
    is_store: bool


@dataclass(slots=True)
class LiwInstruction:
    """One long instruction word: parallel ops plus an optional branch."""

    ops: list[tac.TacInstr] = field(default_factory=list)
    branch: tac.TacInstr | None = None

    def all_ops(self) -> list[tac.TacInstr]:
        return self.ops + ([self.branch] if self.branch is not None else [])

    def scalar_sources(self) -> set[int]:
        """Distinct data values fetched by this instruction (value ids)."""
        out: set[int] = set()
        for instr in self.all_ops():
            for slot in instr.USES:
                op = getattr(instr, slot)
                if isinstance(op, tac.Value):
                    out.add(op.id)
        return out

    def scalar_dests(self) -> set[int]:
        """Distinct data values written back by this instruction."""
        out: set[int] = set()
        for instr in self.all_ops():
            for slot in instr.DEFS:
                op = getattr(instr, slot)
                if isinstance(op, tac.Value):
                    out.add(op.id)
        return out

    def scalar_operands(self) -> set[int]:
        """All distinct scalar operands — sources and destinations.

        This is the paper's per-instruction operand list (its Fig. 1
        three-operand instructions with k = 3 are ``dest, src, src``
        triples), the unit the conflict graph is built from.
        """
        return self.scalar_sources() | self.scalar_dests()

    def array_accesses(self) -> list[ArrayAccess]:
        return [
            ArrayAccess(
                instr.array,  # type: ignore[attr-defined]
                instr.index,  # type: ignore[attr-defined]
                instr.ARRAY_ACCESS == tac.STORE,
            )
            for instr in self.all_ops()
            if instr.ARRAY_ACCESS
        ]

    def transfers(self) -> list[tac.Transfer]:
        """Scheduled inter-module copy operations riding in this word."""
        return [op for op in self.ops if isinstance(op, tac.Transfer)]

    @property
    def mem_fetches(self) -> int:
        """Operand fetches this instruction performs (scalars + array loads)."""
        loads = sum(1 for a in self.array_accesses() if not a.is_store)
        return len(self.scalar_sources()) + loads

    @property
    def mem_accesses(self) -> int:
        """All memory accesses: scalar operands (R+W) plus array touches
        plus two per scheduled transfer — what the machine's "up to k
        operands" budget bounds."""
        return (
            len(self.scalar_operands())
            + len(self.array_accesses())
            + 2 * len(self.transfers())
        )

    def __str__(self) -> str:
        parts = [str(op) for op in self.ops]
        if self.branch is not None:
            parts.append(str(self.branch))
        return " || ".join(parts) if parts else "nop"


@dataclass(slots=True)
class BlockSchedule:
    """The long instructions of one basic block, in issue order."""

    block_index: int
    label: str
    liws: list[LiwInstruction] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.liws)


@dataclass(slots=True)
class Schedule:
    """A complete scheduled program."""

    cfg: Cfg
    machine: MachineConfig
    blocks: list[BlockSchedule]

    def instructions(self) -> list[LiwInstruction]:
        """All long instructions in block order (static program text)."""
        out: list[LiwInstruction] = []
        for bs in self.blocks:
            out.extend(bs.liws)
        return out

    @property
    def num_instructions(self) -> int:
        return sum(len(bs) for bs in self.blocks)

    @property
    def num_operations(self) -> int:
        return sum(len(liw.all_ops()) for bs in self.blocks for liw in bs.liws)

    def operand_sets(self) -> list[frozenset[int]]:
        """Per-instruction scalar operand sets (sources and destinations)
        — the conflict-graph input."""
        return [
            frozenset(liw.scalar_operands())
            for bs in self.blocks
            for liw in bs.liws
        ]

    def pretty(self) -> str:
        lines: list[str] = []
        for bs in self.blocks:
            lines.append(f"{bs.label}:")
            for i, liw in enumerate(bs.liws):
                lines.append(f"  [{i:3d}] {liw}")
        return "\n".join(lines)
