"""The paper's three storage-assignment strategies (§3).

- **STOR1** — one conflict graph over the whole program's instructions;
  no size restriction.
- **STOR2** — two stages: first the values live across regions
  (globals), considering only their mutual conflicts; then, one region
  at a time, the values local to that region with the globals' modules
  fixed.
- **STOR3** — the instruction stream is split into ``groups`` (two, in
  the paper's experiment) consecutive chunks; each chunk is assigned in
  turn with all earlier placements fixed.

All three consume a scheduled program and return a
:class:`StorageResult` whose ``singles``/``multiples`` counts are the
two columns of the paper's Table 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

from ..ir.regions import compute_regions
from ..ir.rename import RenamedProgram
from ..liw.schedule import Schedule
from ..passes.events import Metrics
from .allocation import Allocation
from .assign import AssignmentResult, assign_modules
from .bitset import COUNTERS
from .verify import conflicting_instructions


@dataclass(slots=True)
class StorageResult:
    """Outcome of one STOR strategy on one program."""

    strategy: str
    allocation: Allocation
    stages: list[AssignmentResult] = field(default_factory=list)
    residual_instructions: list[frozenset[int]] = field(default_factory=list)

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
    metrics: "Metrics | None", stage: str, *args, **kwargs
) -> AssignmentResult:
    """Run :func:`assign_modules`, recording a stage metric when asked.

    The stage metric carries the bitset-kernel work counters
    (``kernel_*``) accumulated during the call — masks built, placements
    enumerated, branches pruned, memo hits, ... — so ``--trace-json``
    exposes per-stage kernel effort (see
    :class:`repro.core.bitset.KernelCounters`)."""
    before = COUNTERS.snapshot()
    t0 = time.perf_counter()
    result = assign_modules(*args, **kwargs)
    wall = time.perf_counter() - t0
    if metrics is not None:
        kernel_counts = {
            f"kernel_{name}": n
            for name, n in COUNTERS.delta_since(before).items()
            if n
        }
        metrics.add_stage(
            stage,
            wall,
            graph_values=result.stats.num_values,
            graph_edges=result.stats.num_edges,
            instructions=result.stats.num_instructions,
            atoms=result.coloring.num_atoms,
            colored=result.stats.colored,
            removed=result.stats.removed,
            copies_created=result.stats.copies_created,
            **kernel_counts,
        )
    return result


def stor1(
    schedule: Schedule,
    renamed: RenamedProgram,
    k: int | None = None,
    method: str = "hitting_set",
    seed: int = 0,
    metrics: "Metrics | None" = None,
    **kwargs,
) -> StorageResult:
    """Whole-program assignment (no graph-size restriction)."""
    k = k if k is not None else schedule.machine.k
    operand_sets, _, duplicable, all_values = _program_facts(schedule, renamed)
    result = _timed_assign(
        metrics,
        "STOR1.assign",
        operand_sets,
        k,
        method=method,
        duplicable=duplicable,
        all_values=all_values,
        seed=seed,
        **kwargs,
    )
    # assign_modules checked the same sets less the empty ones, which
    # never conflict; with ``weights`` it also skips zero-weight ones.
    residual = (
        result.stats.residual_instructions
        if kwargs.get("weights") is None
        else conflicting_instructions(operand_sets, result.allocation)
    )
    return StorageResult("STOR1", result.allocation, [result], residual)


def stor2(
    schedule: Schedule,
    renamed: RenamedProgram,
    k: int | None = None,
    method: str = "hitting_set",
    seed: int = 0,
    metrics: "Metrics | None" = None,
    **kwargs,
) -> StorageResult:
    """Two-stage assignment: region-crossing globals first, then the
    locals of each region with the globals fixed."""
    k = k if k is not None else schedule.machine.k
    operand_sets, block_of, duplicable, all_values = _program_facts(
        schedule, renamed
    )
    regions = compute_regions(renamed.cfg)
    global_ids = {
        v.id
        for v in renamed.values
        if (v.def_sites or v.use_sites)
        and len(regions.regions_of_value(v)) > 1
    }

    stages: list[AssignmentResult] = []

    # Stage 1: globals only, conflicts projected onto global values.
    global_sets = [ops & global_ids for ops in operand_sets]
    stage1 = _timed_assign(
        metrics,
        "STOR2.globals",
        global_sets,
        k,
        method=method,
        duplicable=duplicable & global_ids,
        all_values=global_ids,
        seed=seed,
        **kwargs,
    )
    stages.append(stage1)
    alloc = stage1.allocation

    # Stage 2: per region, locals with globals pre-placed.
    region_of_liw = [regions.block_region[b] for b in block_of]
    for region in sorted(set(region_of_liw)):
        region_sets = [
            ops
            for ops, r in zip(operand_sets, region_of_liw)
            if r == region
        ]
        local_ids = {
            v
            for ops in region_sets
            for v in ops
            if v not in global_ids
        }
        stage = _timed_assign(
            metrics,
            f"STOR2.region{region}",
            region_sets,
            k,
            method=method,
            duplicable=duplicable,
            initial=alloc,
            all_values=local_ids,
            seed=seed,
            **kwargs,
        )
        stages.append(stage)
        alloc = stage.allocation

    # Values appearing in no instruction at all.
    final = _timed_assign(
        metrics, "STOR2.finalize",
        [], k, duplicable=duplicable, initial=alloc,
        all_values=all_values, seed=seed,
    )
    return StorageResult(
        "STOR2",
        final.allocation,
        stages,
        conflicting_instructions(operand_sets, final.allocation),
    )


def stor3(
    schedule: Schedule,
    renamed: RenamedProgram,
    k: int | None = None,
    method: str = "hitting_set",
    groups: int = 2,
    seed: int = 0,
    metrics: "Metrics | None" = None,
    **kwargs,
) -> StorageResult:
    """Split the instruction stream into ``groups`` consecutive chunks
    (the paper used two) and assign chunk by chunk."""
    if groups < 1:
        raise ValueError("groups must be >= 1")
    k = k if k is not None else schedule.machine.k
    operand_sets, _, duplicable, all_values = _program_facts(schedule, renamed)

    chunk_size = max(1, -(-len(operand_sets) // groups))
    stages: list[AssignmentResult] = []
    alloc: Allocation | None = None
    for g in range(groups):
        chunk = operand_sets[g * chunk_size : (g + 1) * chunk_size]
        if not chunk and alloc is not None:
            continue
        stage = _timed_assign(
            metrics,
            f"STOR3.chunk{g}",
            chunk,
            k,
            method=method,
            duplicable=duplicable,
            initial=alloc,
            seed=seed,
            **kwargs,
        )
        stages.append(stage)
        alloc = stage.allocation

    final = _timed_assign(
        metrics, "STOR3.finalize",
        [], k, duplicable=duplicable, initial=alloc,
        all_values=all_values, seed=seed,
    )
    return StorageResult(
        "STOR3",
        final.allocation,
        stages,
        conflicting_instructions(operand_sets, final.allocation),
    )


def stor_region(
    schedule: Schedule,
    renamed: RenamedProgram,
    k: int | None = None,
    method: str = "hitting_set",
    seed: int = 0,
    metrics: "Metrics | None" = None,
    **kwargs,
) -> StorageResult:
    """One region at a time (paper §2: "One solution to this problem is
    to perform the memory module assignment for one program region at a
    time").

    Unlike STOR2 there is no global pre-pass: regions are processed in
    order and a value spanning several regions is simply fixed by the
    first region that placed it.  Cross-region clashes are repaired by
    the duplication machinery like any pre-assignment conflict.
    """
    k = k if k is not None else schedule.machine.k
    operand_sets, block_of, duplicable, all_values = _program_facts(
        schedule, renamed
    )
    regions = compute_regions(renamed.cfg)
    region_of_liw = [regions.block_region[b] for b in block_of]

    stages: list[AssignmentResult] = []
    alloc: Allocation | None = None
    for region in sorted(set(region_of_liw)):
        region_sets = [
            ops for ops, r in zip(operand_sets, region_of_liw) if r == region
        ]
        stage = _timed_assign(
            metrics,
            f"STOR-REGION.region{region}",
            region_sets,
            k,
            method=method,
            duplicable=duplicable,
            initial=alloc,
            seed=seed,
            **kwargs,
        )
        stages.append(stage)
        alloc = stage.allocation

    final = _timed_assign(
        metrics, "STOR-REGION.finalize",
        [], k, duplicable=duplicable, initial=alloc,
        all_values=all_values, seed=seed,
    )
    return StorageResult(
        "STOR-REGION",
        final.allocation,
        stages,
        conflicting_instructions(operand_sets, final.allocation),
    )


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
#: ``method``/``seed``/``metrics`` parameters and positional ``k``).
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
    valid = ("method", "seed", "metrics") + STRATEGY_KNOBS[sname]
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
