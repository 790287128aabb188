"""Renaming: turn scalar symbols into distinct *data values*.

The paper assumes "corresponding to each definition of a variable, a
distinct data value is created" (§2).  With control flow, definitions
whose values merge at join points must share storage, so we use the
classical *web* granularity (as in register allocation, and in the
renaming work of Cytron & Ferrante the paper cites): definitions and uses
connected through def-use chains form one web, and each web becomes one
data value.  Straight-line re-definitions of the same variable thereby
split into separate values exactly as in the paper, while joins stay
sound.

A web with more than one (real) definition is flagged ``multi_def``:
duplicating such a value would require multi-module stores, so the
duplication algorithms (paper §2.2) only ever replicate single-definition
values — the paper's values are single-definition by construction.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from . import tac
from .cfg import BasicBlock, Cfg
from .dataflow import compute_reaching


class _UnionFind:
    def __init__(self, n: int):
        self._parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[max(ra, rb)] = min(ra, rb)


@dataclass(slots=True)
class DataValue:
    """One renamed data value (a web of definitions and uses)."""

    id: int
    name: str
    origin: str  # source variable or temporary name
    is_temp: bool
    def_sites: list[tuple[int, int]] = field(default_factory=list)
    use_sites: list[tuple[int, int]] = field(default_factory=list)
    from_entry: bool = False  # includes the uninitialised entry pseudo-def

    @property
    def multi_def(self) -> bool:
        """True when the value has more than one real definition and hence
        must not be duplicated across memory modules."""
        return len(self.def_sites) > 1

    @property
    def blocks(self) -> set[int]:
        return {b for b, _ in self.def_sites} | {b for b, _ in self.use_sites}

    def __str__(self) -> str:
        return self.name


@dataclass(slots=True)
class RenamedProgram:
    """A CFG whose scalar operands are :class:`~repro.ir.tac.Value` nodes,
    plus the table of data values they refer to."""

    cfg: Cfg
    values: list[DataValue]

    def value(self, vid: int) -> DataValue:
        return self.values[vid]

    def values_of_origin(self, origin: str) -> list[DataValue]:
        return [v for v in self.values if v.origin == origin]

    def initial_values(self) -> dict[int, int | float | bool]:
        """Initial contents of memory-resident constants, by value id."""
        table = self.cfg.const_table
        return {
            v.id: table[v.origin] for v in self.values if v.origin in table
        }


#: Renaming granularities accepted by :func:`rename`.
RENAME_MODES = ("web", "variable")


def rename(cfg: Cfg, mode: str = "web") -> RenamedProgram:
    """Compute data values over ``cfg`` and return a rewritten copy.

    ``mode='web'`` (default) renames at du-chain web granularity — the
    paper's "each definition creates a distinct data value", made sound
    under control flow.  ``mode='variable'`` keeps one value per source
    variable (no renaming), the baseline the paper's §3 closing remark
    says renaming improves on; it exists for that ablation
    (`benchmarks/test_ablations.py::test_ablation_renaming`).

    The input CFG is not modified.
    """
    if mode not in RENAME_MODES:
        raise ValueError(f"unknown rename mode {mode!r}")
    reaching = compute_reaching(cfg)
    uf = _UnionFind(len(reaching.defs))
    for def_ids in reaching.use_defs.values():
        ids = sorted(def_ids)
        for other in ids[1:]:
            uf.union(ids[0], other)
    if mode == "variable":
        # Collapse every definition of the same variable into one value.
        by_var: dict[str, int] = {}
        for d in reaching.defs:
            first = by_var.setdefault(d.var, d.id)
            uf.union(first, d.id)

    # Assign value ids to web roots in first-encounter order so numbering
    # is stable and readable.
    root_to_value: dict[int, int] = {}
    values: list[DataValue] = []
    per_origin_count: dict[str, int] = {}

    def value_for_root(root: int) -> DataValue:
        vid = root_to_value.get(root)
        if vid is not None:
            return values[vid]
        origin = reaching.defs[root].var
        seq = per_origin_count.get(origin, 0)
        per_origin_count[origin] = seq + 1
        is_temp = origin.startswith("%")
        name = origin if is_temp or seq == 0 else f"{origin}#{seq}"
        dv = DataValue(len(values), name, origin, is_temp)
        root_to_value[root] = dv.id
        values.append(dv)
        return dv

    # Deterministic order: walk defs by id (entry defs first, then program
    # order), so web numbering follows the program text.
    for d in reaching.defs:
        root = uf.find(d.id)
        dv = value_for_root(root)
        if d.is_entry:
            dv.from_entry = True
        else:
            dv.def_sites.append((d.block, d.pos))

    def value_of_def(def_id: int) -> DataValue:
        return values[root_to_value[uf.find(def_id)]]

    # Rewrite a deep copy of the CFG block by block.
    new_blocks: list[BasicBlock] = []
    def_at: dict[tuple[int, int, str], int] = {}
    for d in reaching.defs:
        if not d.is_entry:
            def_at[(d.block, d.pos, d.var)] = d.id

    for block in cfg.blocks:
        new_instrs: list[tac.TacInstr] = []
        for pos, instr in enumerate(block.instrs):
            new_instr = copy.copy(instr)

            # Uses before defs: that fixes the order of ``use_sites``.
            for slot in new_instr.USES:
                op = getattr(new_instr, slot)
                if isinstance(op, tac.Sym):
                    def_ids = reaching.use_defs[(block.index, pos, op.name)]
                    dv = value_of_def(next(iter(def_ids)))
                    dv.use_sites.append((block.index, pos))
                    setattr(new_instr, slot, tac.Value(dv.id))
            for slot in new_instr.DEFS:
                op = getattr(new_instr, slot)
                assert isinstance(op, tac.Sym)
                dv = value_of_def(def_at[(block.index, pos, op.name)])
                setattr(new_instr, slot, tac.Value(dv.id))
            new_instrs.append(new_instr)
        new_blocks.append(
            BasicBlock(
                block.index, block.label, new_instrs,
                list(block.succs), list(block.preds),
            )
        )

    new_cfg = Cfg(
        cfg.name,
        new_blocks,
        dict(cfg.arrays),
        list(cfg.scalars),
        dict(cfg.const_table),
    )
    return RenamedProgram(new_cfg, values)
