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

The simulator is an executor observer: attach it to
:class:`repro.liw.LiwExecutor` and read :meth:`report` afterwards.

**Static terms, computed once per word.**  Everything but t_actual
depends only on a word's static operands and the allocation: its scalar
load vector (transfers folded in), its scalar access count, whether the
scalars alone conflict, and its t_min, t_ave and k t_max terms.  The
simulator memoizes that whole contribution, keyed on the static part of
the event (source and destination sets, transfers, number of array
touches); the load vector itself comes from :class:`ScalarLoadMemo`,
which the array-layout optimizer shares.  Per execution only the array
touches are mapped to modules (``layout.module``) for t_actual, and the
memoized terms are added in execution order, so every float sum is
bitwise the one the per-event formulation gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from ..core.allocation import Allocation
from ..core.verify import find_sdr
from ..liw.executor import AccessEvent
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
    """:func:`scalar_load_vector` memoized on ``(sources, dests)`` for
    one allocation, k and write policy — shared by the simulator and
    the array-layout cost model."""

    __slots__ = ("_alloc", "_k", "_eager_copies", "_vecs")

    def __init__(self, alloc: Allocation, k: int, eager_copies: bool = True):
        self._alloc = alloc
        self._k = k
        self._eager_copies = eager_copies
        self._vecs: dict[
            tuple[frozenset[int], frozenset[int]], tuple[int, ...]
        ] = {}

    def __call__(
        self, sources: frozenset[int], dests: frozenset[int]
    ) -> tuple[int, ...]:
        key = (sources, dests)
        vec = self._vecs.get(key)
        if vec is None:
            vec = self._vecs[key] = scalar_load_vector(
                sources, dests, self._alloc, self._k, self._eager_copies
            )
        return vec


#: Static part of an event: (sources, dests, transfers, array touches).
_StaticKey = tuple[
    frozenset[int], frozenset[int], tuple[tuple[int, int, int], ...], int
]
#: A word's Δ-model contribution: (scalar load vector, scalar accesses,
#: max scalar load, t_min term, t_ave term, t_max term per module).
_Terms = tuple[tuple[int, ...], int, int, float, float, tuple[float, ...]]


class MemorySimulator:
    """Observer accumulating the Δ-model statistics of one execution."""

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
        #: None for a word without memory accesses
        self._terms: dict[_StaticKey, _Terms | None] = {}

        self.instructions = 0
        self.transfer_instructions = 0
        self.scalar_accesses = 0
        self.array_accesses = 0
        self.t_actual = 0.0
        self.t_min = 0.0
        self.t_ave = 0.0
        self._t_max_per_module = [0.0] * k
        self.scalar_conflicts = 0
        self.actual_conflicts = 0

    def _static_terms(self, key: _StaticKey) -> _Terms | None:
        sources, dests, transfers, n_arr = key
        vec = self._scalar_loads(sources, dests)
        if transfers:
            # a transfer reads the source module and writes the destination
            mutable = list(vec)
            for _, src, dst in transfers:
                mutable[src] += 1
                mutable[dst] += 1
            vec = tuple(mutable)
        n_scalar = sum(vec)
        if n_arr == 0 and n_scalar == 0:
            return None
        scalar_max = max(vec)
        delta = self._delta
        return (
            vec,
            n_scalar,
            scalar_max,
            delta * min_possible_max_load(vec, n_arr),
            delta * expected_max_load(vec, n_arr),
            # t_max: all arrays stacked in module m, for every candidate m
            tuple([delta * max(scalar_max, v + n_arr) for v in vec]),
        )

    # -- observer protocol ----------------------------------------------

    def __call__(self, event: AccessEvent) -> None:
        self.instructions += 1
        touches = event.array_touches
        key = (
            event.scalar_sources, event.scalar_dests, event.transfers,
            len(touches),
        )
        try:
            terms = self._terms[key]
        except KeyError:
            terms = self._terms[key] = self._static_terms(key)
        if terms is None:
            return
        vec, n_scalar, scalar_max, t_min, t_ave, t_max = terms

        self.transfer_instructions += 1
        self.scalar_accesses += n_scalar
        self.array_accesses += len(touches)
        if scalar_max > 1:
            self.scalar_conflicts += 1
        self.t_min += t_min
        self.t_ave += t_ave
        self._t_max_per_module = list(map(add, self._t_max_per_module, t_max))

        if touches:
            actual = list(vec)
            module = self._layout.module
            for touch in touches:
                actual[module(touch.array, touch.index)] += 1
            actual_max = max(actual)
        else:
            actual_max = scalar_max
        self.t_actual += self._delta * actual_max
        if actual_max > 1:
            self.actual_conflicts += 1

    # -- results ------------------------------------------------------------

    def report(self) -> MemoryReport:
        return MemoryReport(
            delta=self._delta,
            k=self._k,
            instructions=self.instructions,
            transfer_instructions=self.transfer_instructions,
            scalar_accesses=self.scalar_accesses,
            array_accesses=self.array_accesses,
            t_actual=self.t_actual,
            t_min=self.t_min,
            t_max=max(self._t_max_per_module) if self._k else 0.0,
            t_ave=self.t_ave,
            scalar_conflict_instructions=self.scalar_conflicts,
            actual_conflict_instructions=self.actual_conflicts,
        )
