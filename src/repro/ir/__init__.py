"""Compiler middle end: TAC, CFG, renaming, regions."""

from . import tac
from .builder import compile_to_tac, lower_ast
from .cfg import BasicBlock, Cfg, build_cfg
from .interp import (
    ArrayIndexError,
    ExecutionLimitExceeded,
    InputExhausted,
    InterpResult,
    TacInterpreter,
    run_cfg,
)
from .rename import DataValue, RenamedProgram, RenameError, rename
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
    "ArrayIndexError",
    "ExecutionLimitExceeded",
    "InputExhausted",
    "InterpResult",
    "TacInterpreter",
    "run_cfg",
    "DataValue",
    "RenamedProgram",
    "RenameError",
    "rename",
    "Loop",
    "Regions",
    "ValuePartition",
    "compute_dominators",
    "compute_regions",
    "find_loops",
    "partition_values",
]
