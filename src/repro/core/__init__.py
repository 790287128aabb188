"""The paper's core contribution: conflict graphs, colouring, duplication,
placement, and the storage-assignment strategies."""

from .allocation import Allocation
from .assign import AssignmentResult, AssignmentStats, assign_modules
from .atoms import AtomDecomposition, decompose_atoms
from .backtrack import BacktrackStats, backtrack_duplication
from .coloring import ColoringResult, ColoringStep, color_atom, color_graph
from .conflict_graph import ConflictGraph
from .duplication import DuplicationStats, hitting_set_duplication
from .exact import (
    exact_coloring,
    is_k_colorable,
    min_hitting_set,
    min_removal_coloring,
    min_total_copies,
)
from .hitting_set import greedy_hitting_set, is_hitting_set, paper_hitting_set
from .placement import group_instructions, place_copies
from .profiled import (
    ProfiledComparison,
    compare_static_vs_profiled,
    profile_guided_stor1,
    profile_schedule,
)
from .strategies import (
    STRATEGIES,
    StorageResult,
    run_strategy,
    stor1,
    stor2,
    stor3,
    stor_region,
)
from .verify import (
    conflicting_instructions,
    find_sdr,
    instruction_conflict_free,
    sdr_exists,
    verify_allocation,
)
from .workunits import RUNNERS

__all__ = [
    "Allocation",
    "AssignmentResult",
    "AssignmentStats",
    "assign_modules",
    "AtomDecomposition",
    "decompose_atoms",
    "BacktrackStats",
    "backtrack_duplication",
    "ColoringResult",
    "ColoringStep",
    "color_atom",
    "color_graph",
    "ConflictGraph",
    "DuplicationStats",
    "hitting_set_duplication",
    "exact_coloring",
    "is_k_colorable",
    "min_hitting_set",
    "min_removal_coloring",
    "min_total_copies",
    "greedy_hitting_set",
    "is_hitting_set",
    "paper_hitting_set",
    "group_instructions",
    "place_copies",
    "ProfiledComparison",
    "compare_static_vs_profiled",
    "profile_guided_stor1",
    "profile_schedule",
    "STRATEGIES",
    "StorageResult",
    "run_strategy",
    "stor1",
    "stor2",
    "stor3",
    "stor_region",
    "RUNNERS",
    "conflicting_instructions",
    "find_sdr",
    "instruction_conflict_free",
    "sdr_exists",
    "verify_allocation",
]
