"""The paper's three storage-assignment strategies (§3).

Every strategy is the Fig. 2 assignment (:func:`assign_modules`)
applied to a sequence of *phases*, each seeing a subset of the
instruction stream with all earlier placements fixed:

- **STOR1** — one phase over the whole program's instructions; no size
  restriction.
- **STOR2** — the values live across regions (globals) first,
  considering only their mutual conflicts; then, one region at a time,
  the values local to that region with the globals' modules fixed.
- **STOR3** — the instruction stream is split into ``groups`` (two, in
  the paper's experiment) consecutive chunks, assigned in turn.
- **STOR-REGION** — one region at a time, with no global pre-pass.

A strategy only declares its :class:`Phase` list; :func:`_run_phases`
runs them, places the values no instruction uses (the ``finalize``
phase of the multi-phase strategies) and computes the residual
conflicts once.  The returned :class:`StorageResult`'s
``singles``/``multiples`` counts are the two columns of the paper's
Table 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Collection, Mapping, Sequence

from ..ir.regions import Regions, compute_regions
from ..ir.rename import RenamedProgram
from ..liw.schedule import Schedule
from ..passes.events import PassEvent
from .allocation import Allocation
from .assign import assign_modules
from .bitset import COUNTERS
from .verify import conflicting_instructions


@dataclass(slots=True)
class StorageResult:
    """Outcome of one STOR strategy on one program.

    ``residual_instructions`` is in canonical (sorted operand list)
    order, so a result decoded from the cache equals the cold one."""

    strategy: str
    allocation: Allocation
    residual_instructions: list[frozenset[int]] = field(default_factory=list)
    #: One ``end`` event per timed stage (``STOR2.globals``, ...,
    #: ``STOR2.finalize``), in run order.  Observation only: never
    #: encoded into the cache, so a cached result has none.
    events: list[PassEvent] = field(
        default_factory=list, compare=False, repr=False
    )

    @property
    def singles(self) -> int:
        """Table 1 column '=1': scalars with a single copy."""
        return len(self.allocation.single_copy_values())

    @property
    def multiples(self) -> int:
        """Table 1 column '>1': scalars with multiple copies."""
        return len(self.allocation.multi_copy_values())

    @property
    def total_copies(self) -> int:
        return self.allocation.total_copies


@dataclass(frozen=True, slots=True)
class Phase:
    """One :func:`assign_modules` call of a strategy.

    ``rows`` index the program's instructions the phase sees;
    ``values`` (when given) are placed even if no row uses them, and
    with ``project`` each row is cut down to them."""

    stage: str
    rows: Sequence[int]
    values: Collection[int] | None
    duplicable: set[int]
    project: bool = False


def _program_facts(
    schedule: Schedule, renamed: RenamedProgram
) -> tuple[list[frozenset[int]], list[int], set[int], list[int]]:
    """Operand sets per LIW, the LIW's block index, the duplicable value
    set, and the list of all live value ids."""
    operand_sets: list[frozenset[int]] = []
    block_of: list[int] = []
    for bs in schedule.blocks:
        for liw in bs.liws:
            operand_sets.append(frozenset(liw.scalar_operands()))
            block_of.append(bs.block_index)
    all_values = [
        v.id for v in renamed.values if v.def_sites or v.use_sites
    ]
    duplicable = {
        v.id
        for v in renamed.values
        if (v.def_sites or v.use_sites) and not v.multi_def
    }
    return operand_sets, block_of, duplicable, all_values


def _timed_assign(
    events: list[PassEvent], stage: str, *args, **kwargs
) -> Allocation:
    """Run :func:`assign_modules`, appending the stage's ``end`` event
    to ``events``, and return the allocation.

    The event carries the bitset-kernel work counters (``kernel_*``)
    accumulated during the call — masks built, placements enumerated,
    branches pruned, memo hits, ... — so ``--trace-json`` exposes
    per-stage kernel effort (see
    :class:`repro.core.bitset.KernelCounters`)."""
    before = COUNTERS.snapshot()
    t0 = time.perf_counter()
    result = assign_modules(*args, **kwargs)
    wall = time.perf_counter() - t0
    counts: dict[str, int | float] = {
        "graph_values": result.stats.num_values,
        "graph_edges": result.stats.num_edges,
        "instructions": result.stats.num_instructions,
        "atoms": result.coloring.num_atoms,
        "colored": result.stats.colored,
        "removed": result.stats.removed,
        "copies_created": result.stats.copies_created,
    }
    for name, n in COUNTERS.delta_since(before).items():
        if n:
            counts[f"kernel_{name}"] = n
    events.append(PassEvent(stage, "end", wall, counts=counts))
    return result.allocation


#: ``plan(renamed, operand_sets, block_of, duplicable, all_values)``
#: returns a strategy's phases, in run order.
PhasePlan = Callable[
    [RenamedProgram, list[frozenset[int]], list[int], set[int], list[int]],
    list[Phase],
]


def _run_phases(
    strategy: str,
    plan: PhasePlan,
    schedule: Schedule,
    renamed: RenamedProgram,
    k: int | None = None,
    method: str = "hitting_set",
    seed: int = 0,
    weights: Sequence[int] | None = None,
    **kwargs,
) -> StorageResult:
    """Run ``plan``'s phases in order, each with every earlier placement
    fixed; ``weights`` (one per instruction) are sliced along with each
    phase's rows."""
    k = k if k is not None else schedule.machine.k
    operand_sets, block_of, duplicable, all_values = _program_facts(
        schedule, renamed
    )
    if weights is not None and len(weights) != len(operand_sets):
        raise ValueError("weights must align with operand_sets")
    events: list[PassEvent] = []
    alloc: Allocation | None = None
    for phase in plan(renamed, operand_sets, block_of, duplicable, all_values):
        rows = [operand_sets[i] for i in phase.rows]
        if phase.project:
            scope = frozenset(phase.values or ())
            rows = [ops & scope for ops in rows]
        alloc = _timed_assign(
            events,
            f"{strategy}.{phase.stage}",
            rows,
            k,
            method=method,
            duplicable=phase.duplicable,
            initial=alloc,
            all_values=phase.values,
            seed=seed,
            weights=(
                None if weights is None else [weights[i] for i in phase.rows]
            ),
            **kwargs,
        )
    assert alloc is not None
    residual = sorted(conflicting_instructions(operand_sets, alloc), key=sorted)
    return StorageResult(strategy, alloc, residual, events)


def _finalize(duplicable: set[int], all_values: list[int]) -> Phase:
    """Places the values that appear in no instruction at all."""
    return Phase("finalize", (), all_values, duplicable)


def _region_rows(regions: Regions, block_of: list[int]) -> dict[int, list[int]]:
    """Instruction indices per region, in region order."""
    rows: dict[int, list[int]] = {}
    for i, block in enumerate(block_of):
        rows.setdefault(regions.block_region[block], []).append(i)
    return dict(sorted(rows.items()))


def _whole_program(renamed, operand_sets, block_of, duplicable, all_values):
    return [Phase("assign", range(len(operand_sets)), all_values, duplicable)]


def _globals_then_regions(
    renamed, operand_sets, block_of, duplicable, all_values
):
    regions = compute_regions(renamed.cfg)
    global_ids = {
        v.id
        for v in renamed.values
        if (v.def_sites or v.use_sites) and regions.is_global(v)
    }
    # Globals only, conflicts projected onto global values.
    phases = [Phase(
        "globals", range(len(operand_sets)), global_ids,
        duplicable & global_ids, project=True,
    )]
    # Per region, locals with globals pre-placed.
    for region, rows in _region_rows(regions, block_of).items():
        local_ids = {
            v for i in rows for v in operand_sets[i] if v not in global_ids
        }
        phases.append(Phase(f"region{region}", rows, local_ids, duplicable))
    return phases + [_finalize(duplicable, all_values)]


def _chunks(groups, renamed, operand_sets, block_of, duplicable, all_values):
    n = len(operand_sets)
    size = max(1, -(-n // groups))
    chunks = [range(g * size, min((g + 1) * size, n)) for g in range(groups)]
    # A chunk past the end of the stream has nothing to assign.
    return [
        Phase(f"chunk{g}", rows, None, duplicable)
        for g, rows in enumerate(chunks)
        if rows or g == 0
    ] + [_finalize(duplicable, all_values)]


def _regions(renamed, operand_sets, block_of, duplicable, all_values):
    return [
        Phase(f"region{region}", rows, None, duplicable)
        for region, rows in _region_rows(
            compute_regions(renamed.cfg), block_of
        ).items()
    ] + [_finalize(duplicable, all_values)]


def stor1(
    schedule: Schedule, renamed: RenamedProgram, k: int | None = None, **kwargs
) -> StorageResult:
    """Whole-program assignment (no graph-size restriction)."""
    return _run_phases("STOR1", _whole_program, schedule, renamed, k, **kwargs)


def stor2(
    schedule: Schedule, renamed: RenamedProgram, k: int | None = None, **kwargs
) -> StorageResult:
    """Two-stage assignment: region-crossing globals first, then the
    locals of each region with the globals fixed."""
    return _run_phases(
        "STOR2", _globals_then_regions, schedule, renamed, k, **kwargs
    )


def stor3(
    schedule: Schedule,
    renamed: RenamedProgram,
    k: int | None = None,
    groups: int = 2,
    **kwargs,
) -> StorageResult:
    """Split the instruction stream into ``groups`` consecutive chunks
    (the paper used two) and assign chunk by chunk."""
    if groups < 1:
        raise ValueError("groups must be >= 1")
    return _run_phases(
        "STOR3", partial(_chunks, groups), schedule, renamed, k, **kwargs
    )


def stor_region(
    schedule: Schedule, renamed: RenamedProgram, k: int | None = None, **kwargs
) -> StorageResult:
    """One region at a time (paper §2: "One solution to this problem is
    to perform the memory module assignment for one program region at a
    time").

    Unlike STOR2 there is no global pre-pass: regions are processed in
    order and a value spanning several regions is simply fixed by the
    first region that placed it.  Cross-region clashes are repaired by
    the duplication machinery like any pre-assignment conflict.
    """
    return _run_phases("STOR-REGION", _regions, schedule, renamed, k, **kwargs)


STRATEGIES = {
    "STOR1": stor1,
    "STOR2": stor2,
    "STOR3": stor3,
    "STOR-REGION": stor_region,
}

#: Duplication approaches accepted by every strategy.
METHODS = ("hitting_set", "backtrack")

#: Knobs every strategy forwards to :func:`assign_modules`.
_ASSIGN_KNOBS = (
    "module_choice", "tie_break", "use_atoms", "weights", "max_atom_nodes",
)

#: Knobs understood by the strategies themselves (beyond the explicit
#: ``method``/``seed`` parameters and positional ``k``).
STRATEGY_KNOBS: dict[str, tuple[str, ...]] = {
    "STOR1": _ASSIGN_KNOBS,
    "STOR2": _ASSIGN_KNOBS,
    "STOR3": _ASSIGN_KNOBS + ("groups",),
    "STOR-REGION": _ASSIGN_KNOBS,
}


def validate_strategy_kwargs(name: str, kwargs: Mapping[str, object]) -> None:
    """Reject unknown strategy/method names and unrecognised knobs.

    Historically :func:`repro.pipeline.allocate_storage` forwarded any
    ``**kwargs`` into the strategies, where a typo ended up as an
    unexpected-keyword ``TypeError`` deep inside ``assign_modules`` —
    or, worse, silently shadowed a positional default.  This validates
    up front and names the valid options.
    """
    sname = name.upper()
    if sname not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {name!r}; valid strategies: "
            f"{', '.join(sorted(STRATEGIES))}"
        )
    method = kwargs.get("method", "hitting_set")
    if method not in METHODS:
        raise ValueError(
            f"unknown method {method!r} for {sname}; valid methods: "
            f"{', '.join(METHODS)}"
        )
    valid = ("method", "seed") + STRATEGY_KNOBS[sname]
    unknown = sorted(set(kwargs) - set(valid))
    if unknown:
        raise ValueError(
            f"unknown {sname} option(s) {', '.join(map(repr, unknown))}; "
            f"valid options: {', '.join(valid)}"
        )
    max_atom_nodes = kwargs.get("max_atom_nodes")
    if max_atom_nodes is not None and (
        isinstance(max_atom_nodes, bool)
        or not isinstance(max_atom_nodes, int)
        or max_atom_nodes < 1
    ):
        raise ValueError(
            f"max_atom_nodes must be a positive integer, "
            f"got {max_atom_nodes!r}"
        )


def run_strategy(
    name: str,
    schedule: Schedule,
    renamed: RenamedProgram,
    k: int | None = None,
    **kwargs,
) -> StorageResult:
    validate_strategy_kwargs(name, kwargs)
    return STRATEGIES[name.upper()](schedule, renamed, k, **kwargs)
