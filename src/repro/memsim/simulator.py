"""Parallel-memory simulator: turns executed long instructions into the
paper's transfer-time measures.

Model (paper §3): each long instruction has one memory-transfer phase in
which every module can serve one access per Δ.  An instruction whose
accesses pile up ``L`` deep on some module spends ``L·Δ`` on transfers.
The accesses of one instruction are

- its scalar *source* fetches — one module per value, chosen among the
  value's copies by distinct-representative matching (the fetch unit
  exploits duplicates, which is how the paper's allocation pays off);
- its scalar *destination* writes — every copy of the destination is
  written (a duplicated value's extra stores are the run-time price of
  replication);
- its array-element touches — modules known only at run time.

Four aggregate times are reported:

- **t_actual** — array modules from the concrete layout in force;
- **t_min** — arrays steered so they never conflict (paper's t_min);
- **t_max** — all arrays in one (worst-choice) module (paper's t_max);
- **t_ave** — arrays uniformly random: exact ``Σ i·Δ·p(i)`` via
  :mod:`repro.memsim.distribution`.

The simulator is the executor's trace sink: pass it to
:class:`repro.liw.LiwExecutor` and read :meth:`MemorySimulator.report`
after the run.  It prices the block trace one chunk at a time, after
the words ran, never per executed word.

**Static terms, computed once per distinct pattern.**  Everything but
t_actual depends only on a word's static operands and the allocation:
its scalar load vector (transfers folded in), its scalar access count,
whether the scalars alone conflict, and its t_min, t_ave and per-module
t_max loads.  The load vector comes from :class:`ScalarLoadMemo`
(which the array-layout optimizer uses too), memoized on the word's
source and destination sets and, behind them, on the operands' module
masks; the other terms are memoized on ``(load vector, number of array
touches)``, all the Δ model reads.  Unrolled replicas have distinct
value ids but few such patterns.  Both memos live in one simulator,
for one allocation.  The first time a decoded block shows up in the trace
its words' terms are summed into one integer vector per block entry
(instructions, accesses, conflicts, and the t_min, t_max and static
t_actual loads), so integer totals are block-entry counts times those
vectors.  Only words that touch arrays are walked per execution: their
logged indices are mapped to modules through one memo per array, built
from ``layout.module`` once per run, and their maximum loads are
collected in execution order.

**Bitwise the per-word float sums.**  The reference adds ``Δ·load`` to
each total word by word, in execution order.  When Δ is integral, every
such term and every running total is an integer-valued float, and a
float sum of integers is exact while the totals stay below 2**53; so
t_min, t_max and t_actual are kept as integer load sums and reported as
``float(Δ·sum)``, which is the same float.  The bound is checked before
each chunk is committed (totals only grow); past it, and from the start
when Δ is not integral, those sums are folded term by term in execution
order instead.  t_ave's terms are not integers, so it is always folded.
Folding is ``functools.reduce(operator.add, terms, total)`` over the
chunk's terms in execution order, at C level.  Never ``sum()``: from
Python 3.12 it adds floats with compensated summation, which changes
the bits.  Folding t_actual, t_min and the k t_max loads takes k + 2
passes over each chunk's terms; the integer sums save them for the
usual integral Δ.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import chain, repeat
from operator import add, attrgetter, itemgetter, mul
from typing import Callable, Iterable, NamedTuple, Sequence

from ..core.allocation import Allocation
from ..core.verify import find_sdr
from ..liw.executor import AccessEvent, DecodedBlock, DecodedWord, TraceChunk
from .distribution import expected_max_load, min_possible_max_load
from .interleave import ArrayLayout


def scalar_load_vector(
    sources: frozenset[int],
    dests: frozenset[int],
    alloc: Allocation,
    k: int,
    eager_copies: bool = True,
) -> tuple[int, ...]:
    """Per-module access counts for an instruction's scalar operands.

    With ``eager_copies`` (default) destination values write all their
    copies in this cycle; otherwise only the primary copy is written and
    the remaining copies are filled by scheduled Transfer operations
    (:mod:`repro.liw.transfers`).  Source fetches pick one copy each,
    preferring a conflict-free matching that also avoids the destination
    modules; failing that, a most-constrained-first greedy fill models
    the hardware serialising.
    """
    loads = [0] * k
    for v in dests:
        mods = alloc.modules(v)
        if not mods:
            raise ValueError(f"unplaced scalar destination: {v}")
        if eager_copies:
            for m in mods:
                loads[m] += 1
        else:
            loads[alloc.primary(v)] += 1

    pure_sources = sorted(sources - dests)
    if not pure_sources:
        return tuple(loads)
    sets = [alloc.modules(v) for v in pure_sources]
    if any(not s for s in sets):
        missing = [v for v, s in zip(pure_sources, sets) if not s]
        raise ValueError(f"unplaced scalar operands: {missing}")

    blocked = {m for m, c in enumerate(loads) if c > 0}
    reduced = [s - blocked for s in sets]
    if all(reduced):
        sdr = find_sdr(reduced)
        if sdr is not None:
            for m in sdr:
                loads[m] += 1
            return tuple(loads)
    sdr = find_sdr(sets)
    if sdr is not None:
        for m in sdr:
            loads[m] += 1
        return tuple(loads)
    # Residual conflict: serve most-constrained operands first, each from
    # its least-loaded module.
    for s in sorted(sets, key=len):
        m = min(s, key=lambda m: (loads[m], m))
        loads[m] += 1
    return tuple(loads)


@dataclass(slots=True)
class MemoryReport:
    """Aggregate transfer-time measures over one execution."""

    delta: float
    k: int
    instructions: int  # executed long instructions
    transfer_instructions: int  # those touching memory at all
    scalar_accesses: int
    array_accesses: int
    t_actual: float
    t_min: float
    t_max: float
    t_ave: float
    scalar_conflict_instructions: int  # scalars alone pile up (residual)
    actual_conflict_instructions: int  # actual transfer load > 1

    @property
    def ave_ratio(self) -> float:
        """The paper's Table 2 ``t_ave / t_min``."""
        return self.t_ave / self.t_min if self.t_min else 1.0

    @property
    def max_ratio(self) -> float:
        """The paper's Table 2 ``t_max / t_min``."""
        return self.t_max / self.t_min if self.t_min else 1.0

    @property
    def actual_ratio(self) -> float:
        return self.t_actual / self.t_min if self.t_min else 1.0

    @property
    def stall_time(self) -> float:
        """Transfer time beyond one Δ per transferring instruction."""
        return self.t_actual - self.delta * self.transfer_instructions


class ScalarLoadMemo:
    """:func:`scalar_load_vector` for one allocation, k and write policy
    — shared by the simulator and the array-layout cost model.

    Memoized twice: on ``(sources, dests)`` and, on a miss there, on the
    operands' module pattern, which is all :func:`scalar_load_vector`
    reads of them: the destinations' copy masks (or, without
    ``eager_copies``, their primary modules), order-free since they are
    only counted, and the pure sources' copy masks in ascending value-id
    order, the order :func:`~repro.core.verify.find_sdr` matches them
    in.  Unrolled replicas have distinct value ids but few patterns.
    """

    __slots__ = ("_alloc", "_k", "_eager_copies", "_vecs", "_patterns")

    def __init__(self, alloc: Allocation, k: int, eager_copies: bool = True):
        self._alloc = alloc
        self._k = k
        self._eager_copies = eager_copies
        self._vecs: dict[
            tuple[frozenset[int], frozenset[int]], tuple[int, ...]
        ] = {}
        self._patterns: dict[
            tuple[tuple[int, ...], tuple[int, ...]], tuple[int, ...]
        ] = {}

    def __call__(
        self, sources: frozenset[int], dests: frozenset[int]
    ) -> tuple[int, ...]:
        key = (sources, dests)
        vec = self._vecs.get(key)
        if vec is None:
            vec = self._vecs[key] = self._by_pattern(sources, dests)
        return vec

    def _by_pattern(
        self, sources: frozenset[int], dests: frozenset[int]
    ) -> tuple[int, ...]:
        alloc = self._alloc
        mask = alloc.modules_mask
        written = list(map(mask, dests))
        read = tuple(map(mask, sorted(sources - dests)))
        if 0 in written or 0 in read:
            # an unplaced operand: scalar_load_vector names it
            return scalar_load_vector(
                sources, dests, alloc, self._k, self._eager_copies
            )
        if not self._eager_copies:
            written = list(map(alloc.primary, dests))
        written.sort()
        pattern = (tuple(written), read)
        vec = self._patterns.get(pattern)
        if vec is None:
            vec = self._patterns[pattern] = scalar_load_vector(
                sources, dests, alloc, self._k, self._eager_copies
            )
        return vec


class _Terms(NamedTuple):
    """A word's Δ-model contribution (loads in accesses, Δ factored out
    except in ``ave``)."""

    vec: tuple[int, ...]  # scalar load per module, transfers folded in
    n_scalar: int
    scalar_max: int
    n_arr: int
    min_load: int  # t_min
    max_loads: tuple[int, ...]  # t_max, with every array in module m
    ave: float  # Δ · E[max load], the t_ave term


# Slots of a priced block's integer vector; the t_max loads per module
# follow _T_MAX.
(_INSTRUCTIONS, _TRANSFER, _SCALAR_ACCESSES, _ARRAY_ACCESSES,
 _SCALAR_CONFLICTS, _ACTUAL_CONFLICTS, _T_ACTUAL, _T_MIN, _T_MAX) = range(9)

#: A key not yet in the terms memo (whose values may be None).
_UNPRICED = object()

#: Integer-valued floats are exact below this.
_EXACT = 2**53


class _ModuleTable(dict):
    """index -> module for one array under one layout, filled on demand."""

    __slots__ = ("_module",)

    def __init__(self, module: Callable[[int], int]):
        super().__init__()
        self._module = module

    def __missing__(self, index: int) -> int:
        module = self[index] = self._module(index)
        return module


class _PricedBlock:
    """The static Δ-model contribution of one entry of a block."""

    __slots__ = ("ints", "terms", "ave", "arrays")

    def __init__(
        self,
        ints: tuple[int, ...],
        terms: tuple[_Terms, ...],
        arrays: tuple[tuple[tuple[int, ...], tuple[_ModuleTable, ...]], ...],
    ):
        #: per entry: instructions, transfer instructions, accesses,
        #: conflicts, static t_actual, t_min and per-module t_max loads
        self.ints = ints
        #: terms of the words with memory accesses, in order
        self.terms = terms
        self.ave = tuple(t.ave for t in terms)
        #: per array word, in order: its scalar loads and the module
        #: table of each of its touches
        self.arrays = arrays


_has_arrays = attrgetter("arrays")
_terms_of = attrgetter("terms")
_ave_of = attrgetter("ave")
_scalar_max_of = attrgetter("scalar_max")
_n_scalar_of = attrgetter("n_scalar")
_n_arr_of = attrgetter("n_arr")
_min_load_of = attrgetter("min_load")
_max_loads_of = attrgetter("max_loads")


def _no_step() -> None:
    """The step of a word built from an event; never run."""


class MemorySimulator:
    """Trace sink accumulating the Δ-model statistics of one execution."""

    def __init__(
        self,
        alloc: Allocation,
        layout: ArrayLayout,
        k: int,
        delta: float = 1.0,
        eager_copies: bool = True,
    ):
        self._layout = layout
        self._k = k
        self._delta = delta
        self._scalar_loads = ScalarLoadMemo(alloc, k, eager_copies)
        #: (scalar loads with transfers folded in, array touches) ->
        #: terms, None for a word without memory accesses
        self._terms: dict[tuple[tuple[int, ...], int], _Terms | None] = {}
        self._priced: dict[DecodedBlock, _PricedBlock] = {}
        self._tables: dict[str, _ModuleTable] = {}
        #: Δ as an integer when it is integral, else None (see the
        #: module docstring)
        self._delta_int: int | None = (
            int(delta) if float(delta).is_integer() else None
        )
        self._ints = [0] * (_T_MAX + k)
        self._t_ave = 0.0
        #: t_actual, t_min and per-module t_max as folded floats, once
        #: the integer load sums no longer stand in for them
        self._floats: list[float] | None = (
            None if self._delta_int is not None else [0.0] * (2 + k)
        )

    # -- static terms ---------------------------------------------------

    def _word_terms(self, vec: tuple[int, ...], n_arr: int) -> _Terms | None:
        n_scalar = sum(vec)
        if n_arr == 0 and n_scalar == 0:
            return None
        scalar_max = max(vec)
        return _Terms(
            vec,
            n_scalar,
            scalar_max,
            n_arr,
            min_possible_max_load(vec, n_arr),
            tuple([max(scalar_max, v + n_arr) for v in vec]),
            self._delta * expected_max_load(vec, n_arr),
        )

    def _table(self, array: str) -> _ModuleTable:
        table = self._tables.get(array)
        if table is None:
            module = self._layout.module
            table = self._tables[array] = _ModuleTable(
                lambda index: module(array, index)
            )
        return table

    def _price_block(self, words: Iterable[DecodedWord]) -> _PricedBlock:
        n_words = 0
        terms: list[_Terms] = []
        arrays = []
        #: the scalar max load of each word without array touches
        static: list[int] = []
        memo = self._terms
        scalar_loads = self._scalar_loads
        for word in words:
            n_words += 1
            touches = word.touches
            vec = scalar_loads(word.sources, word.dests)
            if word.transfers:
                # a transfer reads the source module and writes the
                # destination
                mutable = list(vec)
                for _, src, dst in word.transfers:
                    mutable[src] += 1
                    mutable[dst] += 1
                vec = tuple(mutable)
            key = (vec, len(touches))
            t = memo.get(key, _UNPRICED)
            if t is _UNPRICED:
                t = memo[key] = self._word_terms(*key)
            if t is None:
                continue
            terms.append(t)
            if touches:
                arrays.append(
                    (t.vec, tuple([self._table(array) for array, _ in touches]))
                )
            else:
                static.append(t.scalar_max)
        scalar_max = list(map(_scalar_max_of, terms))
        ints = (
            n_words,
            len(terms),
            sum(map(_n_scalar_of, terms)),
            sum(map(_n_arr_of, terms)),
            len(terms) - scalar_max.count(0) - scalar_max.count(1),
            len(static) - static.count(1),
            sum(static),
            sum(map(_min_load_of, terms)),
            *(map(sum, zip(*map(_max_loads_of, terms))) if terms
              else repeat(0, self._k)),
        )
        return _PricedBlock(ints, tuple(terms), tuple(arrays))

    # -- pricing ----------------------------------------------------------

    def _price(
        self,
        entries: Sequence[_PricedBlock],
        counts: Iterable[tuple[_PricedBlock, int]],
        indices: Sequence[int],
    ) -> None:
        """Add the priced block entries ``entries`` (in execution order;
        ``counts`` tallies them) whose array words resolved ``indices``."""
        # the maximum load of each array word's execution, in order
        tops: list[int] = []
        push = tops.append
        pos = 0
        for block in filter(_has_arrays, entries):
            for vec, tables in block.arrays:
                loads = list(vec)
                for table in tables:
                    loads[table[indices[pos]]] += 1
                    pos += 1
                push(max(loads))

        ints = self._ints
        old_loads = ints[_T_ACTUAL:]
        for block, n in counts:
            ints = list(map(add, ints, map(mul, repeat(n), block.ints)))
        ints[_T_ACTUAL] += sum(tops)  # integers: exact
        # an array word loads some module at least once: count the tops > 1
        ints[_ACTUAL_CONFLICTS] += len(tops) - tops.count(1)
        self._ints = ints
        self._t_ave = reduce(
            add, chain.from_iterable(map(_ave_of, entries)), self._t_ave
        )

        delta_int = self._delta_int
        if self._floats is None:
            if abs(delta_int) * max(ints[_T_ACTUAL:]) < _EXACT:  # type: ignore[arg-type]
                return
            # past exact integers: fold from here on, from the totals so far
            self._floats = [float(delta_int * load) for load in old_loads]  # type: ignore[operator]
        delta = self._delta
        floats = self._floats
        terms = list(chain.from_iterable(map(_terms_of, entries)))
        ordered = iter(tops)
        actual = [next(ordered) if t.n_arr else t.scalar_max for t in terms]
        floats[0] = reduce(add, map(mul, repeat(delta), actual), floats[0])
        floats[1] = reduce(
            add, map(mul, repeat(delta), map(_min_load_of, terms)), floats[1]
        )
        max_loads = list(map(_max_loads_of, terms))
        for m in range(self._k):
            floats[2 + m] = reduce(
                add, map(mul, repeat(delta), map(itemgetter(m), max_loads)),
                floats[2 + m],
            )

    # -- trace sink -----------------------------------------------------

    def consume(self, chunk: TraceChunk) -> None:
        """Price one chunk of an executor's block trace."""
        priced = self._priced
        counts = Counter(chunk.blocks)
        for block in counts:
            if block not in priced:
                priced[block] = self._price_block(block.words)
        entries = list(map(priced.__getitem__, chunk.blocks))
        tallies = [(priced[block], n) for block, n in counts.items()]
        if chunk.stop is not None:
            block, completed = chunk.stop
            last = self._price_block(block.words[:completed])
            entries.append(last)
            tallies.append((last, 1))
        self._price(entries, tallies, chunk.indices)

    def __call__(self, event: AccessEvent) -> None:
        """Price one word's access event (synthetic traffic)."""
        touches = event.array_touches
        # pricing reads a word's static fields only, never its step
        block = self._price_block([DecodedWord(
            _no_step, event.scalar_sources, event.scalar_dests,
            event.transfers, tuple((t.array, t.is_store) for t in touches),
        )])
        self._price([block], [(block, 1)], [t.index for t in touches])

    # -- results ------------------------------------------------------------

    def report(self) -> MemoryReport:
        ints = self._ints
        if self._floats is None:
            delta_int = self._delta_int
            t_actual, t_min, *t_max = (
                float(delta_int * load) for load in ints[_T_ACTUAL:]  # type: ignore[operator]
            )
        else:
            t_actual, t_min, *t_max = self._floats
        return MemoryReport(
            delta=self._delta,
            k=self._k,
            instructions=ints[_INSTRUCTIONS],
            transfer_instructions=ints[_TRANSFER],
            scalar_accesses=ints[_SCALAR_ACCESSES],
            array_accesses=ints[_ARRAY_ACCESSES],
            t_actual=t_actual,
            t_min=t_min,
            t_max=max(t_max) if self._k else 0.0,
            t_ave=self._t_ave,
            scalar_conflict_instructions=ints[_SCALAR_CONFLICTS],
            actual_conflict_instructions=ints[_ACTUAL_CONFLICTS],
        )
