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

Only a variable with two or more definitions can have webs that merge,
so only those variables get reaching-definitions dataflow.  A declared
variable counts its entry pseudo-definition (its uninitialised storage)
as one.  Every other variable — nearly all compiler temporaries, and
declared variables that are never assigned, such as memory-resident
constants — has exactly one definition, and each of its uses gets that
definition directly, after a reachability check in the CFG.  The
dataflow runs over the remaining definitions only, as integer bitsets
with dense bit numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable

from . import tac
from .cfg import BasicBlock, Cfg


class RenameError(ValueError):
    """A scalar use that no definition reaches (a malformed CFG)."""


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

_REBUILDERS: dict[type, Callable[..., tac.TacInstr]] = {}


def _rebuilder(cls: type[tac.TacInstr]) -> Callable[..., tac.TacInstr]:
    """Compile ``rebuild(instr, use, dfn)`` for ``cls``: a new ``cls``
    whose ``Sym`` use slots hold successive ``use()`` results (in
    ``USES`` order), whose def slots hold ``dfn()`` results and whose
    other fields are ``instr``'s.  Straight-line code over the named
    fields, like :func:`repro.ir.tac._slot_reader`; compiled on first
    use of each class."""
    lines = ["def rebuild(instr, use, dfn):"]
    for s in cls.USES:
        lines.append(f"    {s} = instr.{s}")
        lines.append(f"    if isinstance({s}, Sym): {s} = use()")
    for s in cls.DEFS:
        lines.append(f"    {s} = dfn()")
    slots = {*cls.USES, *cls.DEFS}
    args = ", ".join(
        f.name if f.name in slots else f"instr.{f.name}" for f in fields(cls)
    )
    lines.append(f"    return cls({args})")
    namespace = {"cls": cls, "Sym": tac.Sym}
    exec("\n".join(lines) + "\n", namespace)
    fn = _REBUILDERS[cls] = namespace["rebuild"]
    return fn


def rename(cfg: Cfg, mode: str = "web") -> RenamedProgram:
    """Compute data values over ``cfg`` and return a rewritten copy.

    ``mode='web'`` (default) renames at du-chain web granularity — the
    paper's "each definition creates a distinct data value", made sound
    under control flow.  ``mode='variable'`` keeps one value per source
    variable (no renaming), the baseline the paper's §3 closing remark
    says renaming improves on; it exists for that ablation
    (`benchmarks/test_ablations.py::test_ablation_renaming`).

    Definitions are numbered entry pseudo-definitions first (one per
    declared scalar), then in program order; each value takes the
    number of its first definition's web, so value ids follow the
    program text.  The input CFG is not modified and shares no
    instruction with the result.  A use that no definition reaches
    raises :class:`RenameError`.
    """
    if mode not in RENAME_MODES:
        raise ValueError(f"unknown rename mode {mode!r}")
    blocks = cfg.blocks

    # Definitions: ``def_var``/``def_site`` by def id; ``ndefs`` counts
    # each variable's definitions, its entry pseudo-definition included.
    def_var: list[str] = list(cfg.scalars)
    n_entry = len(def_var)
    def_site: list[tuple[int, int]] = []
    ndefs: dict[str, int] = {}
    for var in def_var:
        ndefs[var] = ndefs.get(var, 0) + 1
    for block in blocks:
        bi = block.index
        for pos, instr in enumerate(block.instrs):
            for d in instr.defs():
                name = d.name  # type: ignore[union-attr]
                def_var.append(name)
                def_site.append((bi, pos))
                ndefs[name] = ndefs.get(name, 0) + 1
    only_def: dict[str, int] = {}
    # Dense bit numbers for the definitions of multiply-defined variables.
    dense: list[int] = []  # def id -> bit, or -1
    dense_def: list[int] = []  # bit -> def id
    var_mask: dict[str, int] = {}
    for g, var in enumerate(def_var):
        if ndefs[var] == 1:
            only_def[var] = g
            dense.append(-1)
        else:
            dense.append(len(dense_def))
            var_mask[var] = var_mask.get(var, 0) | (1 << len(dense_def))
            dense_def.append(g)

    reach_in = _reaching_masks(cfg, def_var, def_site, dense, n_entry, var_mask)

    parent = list(range(len(dense_def)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    reached: dict[int, set[int]] = {}

    def reaches(g: int, bi: int) -> bool:
        """Whether the single definition ``g`` reaches the top of block
        ``bi`` (over 1+ edges from its block, or from the entry)."""
        src = def_site[g - n_entry][0] if g >= n_entry else -1
        if src == -1 and bi == 0:
            return True
        seen = reached.get(src)
        if seen is None:
            seen = reached[src] = set()
            stack = list(blocks[src].succs) if src >= 0 else [0]
            while stack:
                b = stack.pop()
                if b not in seen:
                    seen.add(b)
                    stack.extend(blocks[b].succs)
        return bi in seen

    # Scan 1: the reaching definition of every scalar use, in scan order
    # (uses before defs), merging the webs of uses reached by several.
    use_defs: list[int] = []
    use_sites: list[tuple[int, int]] = []
    merged: dict[int, int] = {}  # reaching mask -> representative def id
    g = n_entry
    for block in blocks:
        bi = block.index
        inn = reach_in[bi]
        current: dict[str, int] = {}  # var -> def id reaching this point
        for pos, instr in enumerate(block.instrs):
            uses = instr.uses()
            if uses:
                # One site tuple per instruction: its def's, if it has one.
                site = def_site[g - n_entry] if instr.DEFS else (bi, pos)
            for u in uses:
                name = u.name  # type: ignore[union-attr]
                d = current.get(name)
                if d is None:
                    d = only_def.get(name)
                    if d is None:
                        mask = inn & var_mask.get(name, 0)
                        d = merged.get(mask)
                        if d is None:
                            d = _merge(mask, union, dense_def)
                            merged[mask] = d
                    if d < 0 or (dense[d] < 0 and not reaches(d, bi)):
                        raise RenameError(
                            f"no definition of {name!r} reaches its use in "
                            f"block {block.label!r} at position {pos}"
                        )
                    current[name] = d
                use_defs.append(d)
                use_sites.append(site)
            for d in instr.defs():
                current[d.name] = g  # type: ignore[union-attr]
                g += 1
    if mode == "variable":
        # Collapse every definition of the same variable into one value.
        first_bit: dict[str, int] = {}
        for bit, d in enumerate(dense_def):
            union(first_bit.setdefault(def_var[d], bit), bit)

    # One value per web, numbered by its first definition (a web's root
    # is its lowest bit, hence its lowest def id).
    values: list[DataValue] = []
    vid_of_def: list[int] = []
    per_origin_count: dict[str, int] = {}
    for g, origin in enumerate(def_var):
        bit = dense[g]
        root = find(bit) if bit >= 0 else bit
        if root == bit:
            seq = per_origin_count.get(origin, 0)
            per_origin_count[origin] = seq + 1
            is_temp = origin.startswith("%")
            name = origin if is_temp or seq == 0 else f"{origin}#{seq}"
            dv = DataValue(len(values), name, origin, is_temp)
            values.append(dv)
        else:
            dv = values[vid_of_def[dense_def[root]]]
        vid_of_def.append(dv.id)
        if g < n_entry:
            dv.from_entry = True
        else:
            dv.def_sites.append(def_site[g - n_entry])
    for d, site in zip(use_defs, use_sites):
        values[vid_of_def[d]].use_sites.append(site)

    # Scan 2: rebuild every instruction with one shared Value per value.
    shared = [tac.Value(v.id) for v in values]
    use = iter([shared[vid_of_def[d]] for d in use_defs]).__next__
    dfn = iter([shared[v] for v in vid_of_def[n_entry:]]).__next__
    new_blocks = [
        BasicBlock(
            block.index,
            block.label,
            [
                (_REBUILDERS.get(type(i)) or _rebuilder(type(i)))(i, use, dfn)
                for i in block.instrs
            ],
            list(block.succs),
            list(block.preds),
        )
        for block in blocks
    ]
    new_cfg = Cfg(
        cfg.name,
        new_blocks,
        dict(cfg.arrays),
        list(cfg.scalars),
        dict(cfg.const_table),
    )
    return RenamedProgram(new_cfg, values)


def _merge(
    mask: int, union: Callable[[int, int], None], dense_def: list[int]
) -> int:
    """Union the definitions whose bits are set in ``mask`` into one web
    and return the lowest one's def id (-1 for an empty mask)."""
    if not mask:
        return -1
    low = mask & -mask
    first = low.bit_length() - 1
    rest = mask ^ low
    while rest:
        low = rest & -rest
        union(first, low.bit_length() - 1)
        rest ^= low
    return dense_def[first]


def _reaching_masks(
    cfg: Cfg, def_var: list[str], def_site: list[tuple[int, int]],
    dense: list[int], n_entry: int, var_mask: dict[str, int],
) -> list[int]:
    """Reach-in bitmask of every block over the dense definition bits
    (classic forward may-dataflow: gen is each block's last definition
    of a variable, kill every other definition of it)."""
    n = len(cfg.blocks)
    if not var_mask:
        return [0] * n
    gen = [0] * n
    kill = [0] * n
    latest: dict[tuple[int, str], int] = {}
    for g in range(n_entry, len(def_var)):
        if dense[g] >= 0:
            latest[(def_site[g - n_entry][0], def_var[g])] = dense[g]
    for (bi, var), bit in latest.items():
        gen[bi] |= 1 << bit
        kill[bi] |= var_mask[var] & ~(1 << bit)
    entry_mask = 0
    for g in range(n_entry):
        if dense[g] >= 0:
            entry_mask |= 1 << dense[g]

    reach_in = [0] * n
    reach_out = [0] * n
    reach_out[0] = gen[0] | (entry_mask & ~kill[0])
    changed = True
    while changed:
        changed = False
        for block in cfg.blocks:
            bi = block.index
            inn = entry_mask if bi == 0 else 0
            for p in block.preds:
                inn |= reach_out[p]
            out = gen[bi] | (inn & ~kill[bi])
            if inn != reach_in[bi] or out != reach_out[bi]:
                reach_in[bi] = inn
                reach_out[bi] = out
                changed = True
    return reach_in
