"""Profile-guided storage assignment (paper §3, closing discussion).

The paper closes by noting that "information on access frequency of
shared data items can be used to determine a distribution of data items
in the memory modules which is likely to avoid multiple hits on the same
cache" — i.e. the same machinery, with conflict counts weighted by how
often each instruction actually executes, steers unavoidable conflicts
toward cold code.

This module implements that extension end to end:

1. execute the program once to collect per-static-instruction execution
   counts (the LIW executor's ``liw_counts``);
2. rebuild the conflict graph with frequency-weighted ``conf`` counts —
   the Fig. 4 heuristic then colours hot conflicts first, and pinned
   (non-duplicable) values pick the module that minimises *dynamic*
   conflicts;
3. assign as usual.

``profile_guided_stor1`` is :func:`repro.core.strategies.stor1` with
those counts as its ``weights``; :func:`compare_static_vs_profiled`
quantifies the stall-time difference on one program.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.rename import RenamedProgram
from ..liw.executor import LiwExecutor
from ..liw.schedule import Schedule
from .strategies import StorageResult, stor1


def profile_schedule(
    schedule: Schedule,
    inputs: list[object] | None = None,
    initial_values: dict[int, object] | None = None,
    max_cycles: int = 5_000_000,
) -> list[int]:
    """Execution count of every static long instruction, in the order of
    ``schedule.operand_sets()``.  Never-reached instructions count 0."""
    executor = LiwExecutor(
        schedule, list(inputs or []), max_cycles, initial_values=initial_values
    )
    executor.run()
    counts: list[int] = []
    for bs in schedule.blocks:
        for pos in range(len(bs.liws)):
            counts.append(executor.liw_counts.get((bs.block_index, pos), 0))
    return counts


def profile_guided_stor1(
    schedule: Schedule,
    renamed: RenamedProgram,
    inputs: list[object] | None = None,
    k: int | None = None,
    method: str = "hitting_set",
    seed: int = 0,
    **kwargs,
) -> StorageResult:
    """Whole-program assignment with frequency-weighted conflicts.

    The profile run is no pipeline pass, so the result records no stage
    events."""
    frequencies = profile_schedule(
        schedule, inputs, renamed.initial_values()
    )
    result = stor1(
        schedule, renamed, k, method=method, seed=seed,
        weights=frequencies, **kwargs,
    )
    return StorageResult(
        "STOR1-profiled", result.allocation, result.residual_instructions
    )


@dataclass(slots=True)
class ProfiledComparison:
    """Static vs profile-guided allocation on one program."""

    static_stalls: float
    profiled_stalls: float
    static_conflicts: int
    profiled_conflicts: int

    @property
    def stall_reduction(self) -> float:
        if self.static_stalls == 0:
            return 0.0
        return 1.0 - self.profiled_stalls / self.static_stalls


def compare_static_vs_profiled(
    program, inputs: list[object], layout: str = "interleaved"
) -> ProfiledComparison:
    """Run both allocators on a compiled program and measure dynamic
    transfer stalls (uses :func:`repro.pipeline.simulate`)."""
    from ..pipeline import simulate

    static = stor1(program.schedule, program.renamed)
    guided = profile_guided_stor1(
        program.schedule, program.renamed, inputs
    )
    static_sim = simulate(program, static.allocation, list(inputs), layout)
    guided_sim = simulate(program, guided.allocation, list(inputs), layout)
    return ProfiledComparison(
        static_stalls=static_sim.memory.stall_time,
        profiled_stalls=guided_sim.memory.stall_time,
        static_conflicts=static_sim.memory.scalar_conflict_instructions,
        profiled_conflicts=guided_sim.memory.scalar_conflict_instructions,
    )
