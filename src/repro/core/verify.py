"""Conflict-freedom checks via systems of distinct representatives.

With multiple copies, an instruction is free of memory access conflicts
iff its operands can be served from pairwise-distinct modules — i.e. the
family of copy-sets admits a system of distinct representatives (SDR).
We check this with augmenting-path bipartite matching (operand -> module);
instruction widths are at most k, so the tiny-Kuhn implementation is
exact and fast.

:class:`ConflictIndex` asks the same question of an allocation: every
conflict check of Fig. 7 duplication, Fig. 10 placement, pinned
placement, Fig. 6's multi-copy filter and the final verification goes
through one index.
"""

from __future__ import annotations

from functools import cached_property
from itertools import repeat
from typing import Callable, Iterable, Iterator, Sequence

from .allocation import Allocation
from .bitset import COUNTERS, sdr_exists_masks


def find_sdr(module_sets: Sequence[Iterable[int]]) -> list[int] | None:
    """Distinct representatives for the given sets, or None.

    Returns one module per set, all distinct, with ``result[i]`` drawn
    from ``module_sets[i]``; ties resolved deterministically.
    """
    sets = [sorted(set(s)) for s in module_sets]
    match_of_module: dict[int, int] = {}  # module -> operand index

    def try_assign(i: int, visited: set[int]) -> bool:
        for m in sets[i]:
            if m in visited:
                continue
            visited.add(m)
            if m not in match_of_module or try_assign(
                match_of_module[m], visited
            ):
                match_of_module[m] = i
                return True
        return False

    for i in range(len(sets)):
        if not sets[i]:
            return None
        if not try_assign(i, set()):
            return None

    result = [-1] * len(sets)
    for m, i in match_of_module.items():
        result[i] = m
    return result


def sdr_exists(module_sets: Sequence[Iterable[int]]) -> bool:
    return find_sdr(module_sets) is not None


# --------------------------------------------------------------------------
# Allocation-level checks
# --------------------------------------------------------------------------


class ConflictIndex(Sequence[frozenset[int]]):
    """The instruction rows of one allocation, collapsed once, with one
    memoized conflict test.

    Indexing and iteration give the input rows by position, duplicates
    and order kept, so an index stands wherever operand sets do.  Beside
    that it holds the distinct rows in first-occurrence order
    (``rows``), each row's ``multiplicity`` and summed ``weight``, each
    position's row (``row_at``) and, per value, the rows that read it
    (``rows_of``).

    Conflict freedom depends only on the operands' module masks, so the
    verdict is memoized on their sorted tuple and never invalidated: a
    copy added to the allocation changes the masks, hence the key.
    """

    def __init__(
        self,
        operand_sets: Iterable[Iterable[int]],
        weights: Iterable[int] | None = None,
    ):
        self.rows: list[frozenset[int]] = []
        self.multiplicity: list[int] = []
        self.weight: list[int] = []
        self.row_at: list[int] = []
        self._free: dict[tuple[int, ...], bool] = {}
        position: dict[frozenset[int], int] = {}
        if weights is None:
            weights = repeat(1)
        for ops, w in zip(operand_sets, weights):
            row = frozenset(ops)
            r = position.get(row)
            if r is None:
                r = position[row] = len(self.rows)
                self.rows.append(row)
                self.multiplicity.append(1)
                self.weight.append(w)
            else:
                self.multiplicity[r] += 1
                self.weight[r] += w
                COUNTERS.instructions_deduped += 1
            self.row_at.append(r)

    @cached_property
    def rows_of(self) -> dict[int, list[int]]:
        """The rows that read each value, in ascending row order."""
        rows_of: dict[int, list[int]] = {}
        for r, ops in enumerate(self.rows):
            for v in ops:
                rows_of.setdefault(v, []).append(r)
        return rows_of

    @classmethod
    def of(cls, operand_sets: Iterable[Iterable[int]]) -> "ConflictIndex":
        """``operand_sets`` itself if it is an index, else a new one."""
        if isinstance(operand_sets, cls):
            return operand_sets
        return cls(operand_sets)

    def restrict(
        self, keep: Callable[[frozenset[int]], bool]
    ) -> "ConflictIndex":
        """The index of the input rows that satisfy ``keep``, sharing
        this index's verdict memo."""
        sub = ConflictIndex(ops for ops in self if keep(ops))
        sub._free = self._free
        return sub

    def __len__(self) -> int:
        return len(self.row_at)

    def __getitem__(self, i):
        return self.rows[self.row_at[i]]

    def __iter__(self) -> Iterator[frozenset[int]]:
        return map(self.rows.__getitem__, self.row_at)

    def admits(self, masks: Iterable[int]) -> bool:
        """Whether the module masks admit one distinct module each."""
        key = tuple(sorted(masks))
        free = self._free.get(key)
        if free is None:
            free = self._free[key] = sdr_exists_masks(key)
        return free

    def conflict_free(
        self,
        ops: Iterable[int],
        alloc: Allocation,
        value: int | None = None,
        module: int = 0,
    ) -> bool:
        """Whether the operands ``ops`` (an instruction or a §2.2.2
        combination) can be fetched from distinct modules of ``alloc``,
        with a trial copy of ``value`` in ``module`` when ``value`` is
        given.  An unplaced operand conflicts."""
        mask = alloc.modules_mask
        return self.admits(
            mask(v) | (1 << module) if v == value else mask(v) for v in ops
        )


def conflicting_instructions(
    operand_sets: Iterable[Iterable[int]], alloc: Allocation
) -> list[frozenset[int]]:
    """Instructions that still have a memory access conflict, one entry
    per conflicting input position."""
    index = ConflictIndex.of(operand_sets)
    free = [index.conflict_free(ops, alloc) for ops in index.rows]
    return [index.rows[r] for r in index.row_at if not free[r]]


def instruction_conflict_free(
    operands: Iterable[int], alloc: Allocation
) -> bool:
    """True iff the instruction's operand copy-sets admit an SDR."""
    return not conflicting_instructions([operands], alloc)


def verify_allocation(
    operand_sets: Iterable[Iterable[int]], alloc: Allocation
) -> bool:
    """True iff every instruction is conflict free under ``alloc``."""
    return not conflicting_instructions(operand_sets, alloc)
