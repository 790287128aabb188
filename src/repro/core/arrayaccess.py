"""Compile-time analysis of array access patterns in a scheduled program.

The paper treats array accesses as unpredictable and settles for the
statistical t_ave/t_max envelope (§3).  On our unrolled IR they are
mostly *predictable*: index expressions are affine in a handful of base
values (the induction variable, loop-invariant operands), so the
compiler can see exactly which ``a[i]``-style accesses are fetched in
parallel by one long instruction — and therefore which ones a layout
can or cannot separate.

This module recovers, per scheduled long instruction:

- the **affine form** of every array index — an :class:`AffineExpr`
  ``const + Σ coeff·sym`` over symbolic base values, or ``None`` when
  the index is genuinely data-dependent (e.g. SORT's permutation
  indices);
- the **co-access profile** — which (array, index-expr) pairs the
  instruction touches in parallel, alongside the instruction's scalar
  module loads under the existing allocation (array-vs-scalar
  collisions are part of the conflict picture);
- a **block weight** marking loop blocks, so the optimizer concentrates
  on the instructions that execute many times.

Two accesses whose affine forms share the same symbolic part have a
compile-time-known module *distance* under any linear layout; accesses
with different symbolic parts are only statistically predictable.  The
layout optimizer (:mod:`repro.core.arraylayout`) consumes exactly this
distinction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir import tac
from ..ir.cfg import BasicBlock, Cfg

__all__ = [
    "AffineExpr",
    "ArrayRef",
    "LiwProfile",
    "BlockProfile",
    "AccessProfile",
    "analyze_accesses",
    "block_index_exprs",
    "word_profile",
    "LOOP_WEIGHT",
]

#: Static weight of a long instruction inside a CFG cycle.  Loop bodies
#: execute many times; prologue/epilogue code once.  The exact trip
#: count is unknowable at compile time — any weight ≫ 1 makes the
#: optimizer prioritise loop conflicts, which is all that is needed.
LOOP_WEIGHT = 16


@dataclass(frozen=True, slots=True)
class AffineExpr:
    """``const + Σ coeff·sym`` with integer coefficients.

    ``terms`` is a canonically sorted tuple of (symbol, coefficient)
    pairs; symbols are opaque strings naming base values (``v<id>`` for
    values live into the block, ``d<block>.<pos>`` for values produced
    by non-affine definitions inside it).
    """

    const: int = 0
    terms: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def constant(value: int) -> "AffineExpr":
        return AffineExpr(const=value)

    @staticmethod
    def symbol(name: str) -> "AffineExpr":
        return AffineExpr(terms=((name, 1),))

    @staticmethod
    def _make(const: int, coeffs: dict[str, int]) -> "AffineExpr":
        terms = tuple(
            (s, c) for s, c in sorted(coeffs.items()) if c != 0
        )
        return AffineExpr(const=const, terms=terms)

    def _coeffs(self) -> dict[str, int]:
        return dict(self.terms)

    def add(self, other: "AffineExpr") -> "AffineExpr":
        coeffs = self._coeffs()
        for s, c in other.terms:
            coeffs[s] = coeffs.get(s, 0) + c
        return self._make(self.const + other.const, coeffs)

    def sub(self, other: "AffineExpr") -> "AffineExpr":
        return self.add(other.scale(-1))

    def scale(self, factor: int) -> "AffineExpr":
        return self._make(
            self.const * factor, {s: c * factor for s, c in self.terms}
        )

    @property
    def is_constant(self) -> bool:
        return not self.terms

    def signature(self) -> tuple[tuple[str, int], ...]:
        """The symbolic part: equal signatures ⇒ compile-time-known
        index difference (``self.const - other.const``)."""
        return self.terms

    def __str__(self) -> str:
        parts = [str(self.const)] if self.const or not self.terms else []
        for s, c in self.terms:
            parts.append(f"{c}*{s}" if c != 1 else s)
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True, slots=True)
class ArrayRef:
    """One array access of a long instruction, with its recovered index.

    ``expr`` is ``None`` when the index is not affine in the block's
    base values — the access is then only statistically predictable.
    ``body_pos`` is the access's position in the block body (the DDG's
    node numbering), which lets the scheduler co-optimizer map profile
    entries back to movable operations.
    """

    array: str
    expr: AffineExpr | None
    is_store: bool
    body_pos: int


@dataclass(frozen=True, slots=True)
class LiwProfile:
    """The memory-relevant shape of one long instruction."""

    cycle: int
    scalar_sources: frozenset[int]
    scalar_dests: frozenset[int]
    accesses: tuple[ArrayRef, ...]


@dataclass(slots=True)
class BlockProfile:
    block_index: int
    label: str
    weight: int
    liws: list[LiwProfile] = field(default_factory=list)


@dataclass(slots=True)
class AccessProfile:
    """Per-instruction co-access profile of a whole scheduled program."""

    blocks: list[BlockProfile] = field(default_factory=list)

    def arrays_touched(self) -> dict[str, int]:
        """Weighted static access count per array (search ordering)."""
        counts: dict[str, int] = {}
        for bp in self.blocks:
            for lp in bp.liws:
                for ref in lp.accesses:
                    counts[ref.array] = counts.get(ref.array, 0) + bp.weight
        return counts

    @property
    def total_accesses(self) -> int:
        return sum(len(lp.accesses) for bp in self.blocks for lp in bp.liws)

    def affine_fraction(self) -> float:
        """Share of array accesses with a recovered affine index."""
        total = affine = 0
        for bp in self.blocks:
            for lp in bp.liws:
                for ref in lp.accesses:
                    total += 1
                    affine += ref.expr is not None
        return affine / total if total else 1.0


# --------------------------------------------------------------------------
# Affine recovery: forward symbolic evaluation over one block body
# --------------------------------------------------------------------------


def _operand_expr(
    op: tac.Operand, env: dict[int, AffineExpr | None]
) -> AffineExpr | None:
    if isinstance(op, tac.Const):
        v = op.value
        if isinstance(v, bool) or not isinstance(v, int):
            return None
        return AffineExpr.constant(v)
    if isinstance(op, tac.Value):
        if op.id not in env:
            # Live-in value: a fresh base symbol, stable per value id so
            # every use in the block shares it.
            env[op.id] = AffineExpr.symbol(f"v{op.id}")
        return env[op.id]
    return None  # Sym operands only exist before renaming


def block_index_exprs(
    block: BasicBlock,
) -> dict[int, AffineExpr | None]:
    """Affine index expression per array access in ``block.body``.

    Keys are body positions of ``Load``/``Store``/``ReadArr``
    instructions; the value is the index's affine form *at that program
    point* (forward symbolic evaluation in body order — exactly the
    order the data dependences the scheduler preserves), or ``None``.
    """
    env: dict[int, AffineExpr | None] = {}
    out: dict[int, AffineExpr | None] = {}

    def fresh(pos: int) -> AffineExpr:
        return AffineExpr.symbol(f"d{block.index}.{pos}")

    for pos, instr in enumerate(block.body):
        if instr.ARRAY_ACCESS:
            out[pos] = _operand_expr(instr.index, env)  # type: ignore[attr-defined]

        if isinstance(instr, tac.Binary):
            a = _operand_expr(instr.a, env)
            b = _operand_expr(instr.b, env)
            result: AffineExpr | None = None
            if a is not None and b is not None:
                if instr.op == "add":
                    result = a.add(b)
                elif instr.op == "sub":
                    result = a.sub(b)
                elif instr.op == "mul":
                    if b.is_constant:
                        result = a.scale(b.const)
                    elif a.is_constant:
                        result = b.scale(a.const)
            if isinstance(instr.dest, tac.Value):
                env[instr.dest.id] = result if result is not None else fresh(pos)
        elif isinstance(instr, tac.Unary):
            a = _operand_expr(instr.a, env)
            result = None
            if a is not None:
                if instr.op == "copy":
                    result = a
                elif instr.op == "neg":
                    result = a.scale(-1)
            if isinstance(instr.dest, tac.Value):
                env[instr.dest.id] = result if result is not None else fresh(pos)
        elif isinstance(instr, (tac.Load, tac.ReadIn)):
            if isinstance(instr.dest, tac.Value):
                env[instr.dest.id] = fresh(pos)
        # Store/ReadArr/WriteOut/Transfer define no scalar; terminators
        # are outside block.body.

    return out


# --------------------------------------------------------------------------
# Loop weighting: blocks on a CFG cycle execute many times
# --------------------------------------------------------------------------


def _cyclic_blocks(cfg: Cfg) -> set[int]:
    """Indices of blocks that lie on some CFG cycle (loop bodies)."""
    n = len(cfg.blocks)
    cyclic: set[int] = set()
    for start in range(n):
        # BFS from the successors of `start`; reaching `start` again
        # means it sits on a cycle.  CFGs here are tiny (tens of
        # blocks), so the quadratic sweep is immaterial.
        seen: set[int] = set()
        frontier = list(cfg.blocks[start].succs)
        while frontier:
            b = frontier.pop()
            if b == start:
                cyclic.add(start)
                break
            if b in seen:
                continue
            seen.add(b)
            frontier.extend(cfg.blocks[b].succs)
    return cyclic


# --------------------------------------------------------------------------
# Profile construction over a schedule
# --------------------------------------------------------------------------


def analyze_accesses(schedule) -> AccessProfile:
    """Build the per-instruction co-access profile of a schedule.

    For every long instruction: its scalar source/dest value sets (the
    allocation-dependent part of its module loads) and its array
    accesses with recovered affine indices.  Blocks on CFG cycles carry
    :data:`LOOP_WEIGHT`.
    """
    cfg: Cfg = schedule.cfg
    cyclic = _cyclic_blocks(cfg)
    profile = AccessProfile()

    for bs in schedule.blocks:
        block = cfg.blocks[bs.block_index]
        exprs = block_index_exprs(block)
        pos_of = _op_positions(block)
        bp = BlockProfile(
            bs.block_index,
            bs.label,
            LOOP_WEIGHT if bs.block_index in cyclic else 1,
        )
        for cycle, liw in enumerate(bs.liws):
            bp.liws.append(word_profile(liw, cycle, pos_of, exprs))
        profile.blocks.append(bp)
    return profile


def word_profile(
    liw,
    cycle: int,
    pos_of: dict[int, int],
    exprs: dict[int, AffineExpr | None],
) -> LiwProfile:
    """One long instruction's profile: its scalar sources and dests and
    its array accesses, each with the affine index of its body position
    (``pos_of`` maps ``id(op)`` to that position; -1 when unknown)."""
    refs: list[ArrayRef] = []
    for op in liw.all_ops():
        if not op.ARRAY_ACCESS:
            continue
        pos = pos_of.get(id(op), -1)
        refs.append(
            ArrayRef(
                op.array,
                exprs.get(pos) if pos >= 0 else None,
                op.ARRAY_ACCESS == tac.STORE,
                pos,
            )
        )
    return LiwProfile(
        cycle,
        frozenset(liw.scalar_sources()),
        frozenset(liw.scalar_dests()),
        tuple(refs),
    )


def _op_positions(block: BasicBlock) -> dict[int, int]:
    """Identity map from body instruction to its body position (the
    scheduler packs the body's own instruction objects into LIWs)."""
    return {id(instr): pos for pos, instr in enumerate(block.body)}
