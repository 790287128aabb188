"""LIW machine model, dependence graphs, list scheduler, and executor."""

from .ddg import DependenceGraph, DepEdge, build_ddg
from .executor import (
    AccessEvent,
    ArrayTouch,
    ExecResult,
    LiwExecutor,
    TraceChunk,
    TraceSink,
    run_schedule,
)
from .machine import PAPER_MACHINE, PAPER_MACHINE_K4, MachineConfig
from .schedule import ArrayAccess, BlockSchedule, LiwInstruction, Schedule
from .scheduler import schedule_block, schedule_program
from .transfers import TransferStats, insert_transfers

__all__ = [
    "DependenceGraph",
    "DepEdge",
    "build_ddg",
    "AccessEvent",
    "ArrayTouch",
    "ExecResult",
    "LiwExecutor",
    "TraceChunk",
    "TraceSink",
    "run_schedule",
    "MachineConfig",
    "PAPER_MACHINE",
    "PAPER_MACHINE_K4",
    "ArrayAccess",
    "BlockSchedule",
    "LiwInstruction",
    "Schedule",
    "schedule_block",
    "schedule_program",
    "TransferStats",
    "insert_transfers",
]
