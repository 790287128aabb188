"""Compiler middle end: TAC, CFG, dataflow, renaming, regions."""

from . import tac
from .builder import compile_to_tac, lower_ast
from .cfg import BasicBlock, Cfg, build_cfg
from .dataflow import Liveness, ReachingDefs, compute_liveness, compute_reaching
from .interp import (
    ArrayIndexError,
    ExecutionLimitExceeded,
    InputExhausted,
    InterpResult,
    TacInterpreter,
    run_cfg,
)
from .rename import DataValue, RenamedProgram, rename
from .regions import (
    Loop,
    Regions,
    ValuePartition,
    compute_dominators,
    compute_regions,
    find_loops,
    partition_values,
)

__all__ = [
    "tac",
    "compile_to_tac",
    "lower_ast",
    "BasicBlock",
    "Cfg",
    "build_cfg",
    "Liveness",
    "ReachingDefs",
    "compute_liveness",
    "compute_reaching",
    "ArrayIndexError",
    "ExecutionLimitExceeded",
    "InputExhausted",
    "InterpResult",
    "TacInterpreter",
    "run_cfg",
    "DataValue",
    "RenamedProgram",
    "rename",
    "Loop",
    "Regions",
    "ValuePartition",
    "compute_dominators",
    "compute_regions",
    "find_loops",
    "partition_values",
]
