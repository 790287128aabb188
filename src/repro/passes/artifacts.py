"""Typed artifacts flowing between passes, and the pipeline options.

Artifacts are the values a pass reads and writes: the source text, the
AST, the CFG, the renamed program, the LIW schedule, the storage
result, the simulation result.  Each has a declared type in
:data:`ARTIFACTS`; the :class:`ArtifactStore` enforces the declaration
when a pass publishes a value, so a mis-wired pipeline fails loudly at
the pass boundary instead of deep inside a later pass.

Type declarations are ``"module:attr"`` paths resolved lazily (on first
check), so this module imports nothing from the rest of the package and
every layer can depend on it without cycles.

:class:`CompiledProgram` and :class:`SimulationResult` — the public
result types of :mod:`repro.pipeline` — live here for the same reason:
the pass wrappers in ``repro.liw``/``repro.memsim`` and the pipeline
facade both need them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from importlib import import_module
from typing import TYPE_CHECKING

from .knobs import KNOB

if TYPE_CHECKING:  # annotation-only; no runtime imports (cycle-free)
    from ..ir.cfg import Cfg
    from ..ir.rename import RenamedProgram
    from ..liw.executor import ExecResult
    from ..liw.machine import MachineConfig
    from ..liw.schedule import Schedule
    from ..memsim.simulator import MemoryReport


# --------------------------------------------------------------------------
# Artifact declarations
# --------------------------------------------------------------------------


#: Every artifact a pass may read or write, and its type as a
#: ``"module:attr"`` path (resolved on first use, so this module imports
#: nothing from the rest of the package).
ARTIFACTS: dict[str, str] = {
    "source": "builtins:str",  # source text
    "inputs": "builtins:list",  # runtime input value stream
    "ast": "repro.lang.ast_nodes:Program",
    "symbols": "repro.lang.sema:SymbolTable",
    "tac": "repro.ir.tac:TacProgram",
    "cfg": "repro.ir.cfg:Cfg",
    "renamed": "repro.ir.rename:RenamedProgram",  # program over data values
    "schedule": "repro.liw.schedule:Schedule",  # long-instruction schedule
    # storage assignment (allocation + residual conflicts)
    "storage": "repro.core.strategies:StorageResult",
    # optimized per-array layouts + schedule moves (array-opt pass)
    "array_plan": "repro.core.arraylayout:ArrayLayoutPlan",
    # execution outputs + Δ-model memory report
    "simulation": "repro.passes.artifacts:SimulationResult",
}


@cache
def _artifact_type(path: str) -> type:
    module_name, _, attr = path.partition(":")
    return getattr(import_module(module_name), attr)


class ArtifactStore:
    """The artifacts produced so far in one pipeline run."""

    __slots__ = ("_data",)

    def __init__(self, initial: dict[str, object] | None = None):
        self._data: dict[str, object] = {}
        for name, value in (initial or {}).items():
            self.set(name, value)

    def set(self, name: str, value: object) -> None:
        path = ARTIFACTS.get(name)
        if path is None:
            raise KeyError(
                f"unknown artifact {name!r}; declare it in "
                f"repro.passes.artifacts.ARTIFACTS first"
            )
        expected = _artifact_type(path)
        if not isinstance(value, expected):
            raise TypeError(
                f"artifact {name!r} must be {expected.__name__}, "
                f"got {type(value).__name__}"
            )
        self._data[name] = value

    def get(self, name: str) -> object:
        try:
            return self._data[name]
        except KeyError:
            raise KeyError(
                f"artifact {name!r} has not been produced; is the pass "
                f"that writes it in the pipeline (before its readers)?"
            ) from None

    def get_optional(self, name: str, default: object = None) -> object:
        return self._data.get(name, default)

    def has(self, name: str) -> bool:
        return name in self._data

    def names(self) -> list[str]:
        return sorted(self._data)

    def as_dict(self) -> dict[str, object]:
        return dict(self._data)


# --------------------------------------------------------------------------
# Pipeline options
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PipelineOptions:
    """Every configuration knob of the standard pipeline, in one frozen
    record.  Each pass declares which fields feed its fingerprint
    (``Pass.config_keys``); changing any other field leaves that pass's
    cached artifacts valid.  Knob defaults: :mod:`repro.passes.knobs`."""

    machine: "MachineConfig | None" = None
    # front end
    frontend: str = KNOB["frontend"].default
    py_entry: str = KNOB["entry"].default
    unroll: int = KNOB["unroll"].default
    unroll_innermost_only: bool = False
    constants_in_memory: bool = KNOB["constants_in_memory"].default
    immediate_limit: int = 15
    simplify: bool = KNOB["simplify"].default
    rename_mode: str = KNOB["rename_mode"].default
    # storage assignment
    strategy: str = KNOB["strategy"].default
    method: str = KNOB["method"].default
    k: int | None = KNOB["k"].default
    seed: int = KNOB["seed"].default
    strategy_knobs: tuple[tuple[str, object], ...] = ()
    array_layout: str = KNOB["array_layout"].default
    # simulation
    layout: str = KNOB["layout"].default
    delta: float = KNOB["delta"].default
    max_cycles: int = 5_000_000
    scheduled_transfers: bool = False

    def resolved_machine(self) -> "MachineConfig":
        if self.machine is not None:
            return self.machine
        from ..liw.machine import MachineConfig

        return MachineConfig()

    def knobs(self) -> dict[str, object]:
        return dict(self.strategy_knobs)

    def with_knobs(self, **knobs: object) -> "PipelineOptions":
        merged = {**self.knobs(), **knobs}
        return replace(
            self, strategy_knobs=tuple(sorted(merged.items()))
        )


# --------------------------------------------------------------------------
# Public result records (re-exported by repro.pipeline)
# --------------------------------------------------------------------------


@dataclass(slots=True)
class CompiledProgram:
    """A program after the machine-independent and scheduling phases."""

    name: str
    cfg: "Cfg"
    renamed: "RenamedProgram"
    schedule: "Schedule"

    @property
    def machine(self) -> "MachineConfig":
        return self.schedule.machine


@dataclass(slots=True)
class SimulationResult:
    exec_result: "ExecResult"
    memory: "MemoryReport"

    @property
    def outputs(self) -> list[object]:
        return self.exec_result.outputs

    @property
    def cycles(self) -> int:
        return self.exec_result.cycles

    @property
    def total_time(self) -> float:
        """Execution cycles plus transfer-serialisation stall time beyond
        the one Δ-per-instruction already inside the cycle count."""
        return self.cycles + self.memory.stall_time


def compiled_program(store: ArtifactStore) -> CompiledProgram:
    """Assemble the public :class:`CompiledProgram` from a run's
    front-end artifacts."""
    tac = store.get("tac")
    return CompiledProgram(
        tac.name,  # type: ignore[attr-defined]
        store.get("cfg"),  # type: ignore[arg-type]
        store.get("renamed"),  # type: ignore[arg-type]
        store.get("schedule"),  # type: ignore[arg-type]
    )


__all__ = [
    "ARTIFACTS",
    "ArtifactStore",
    "CompiledProgram",
    "PipelineOptions",
    "SimulationResult",
    "compiled_program",
]
