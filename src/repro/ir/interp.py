"""Reference interpreter for TAC programs (linear or CFG form).

Used for differential testing: the LIW executor must produce exactly the
same outputs as this interpreter for every program.

Semantics notes:

- ``idiv``/``imod`` truncate toward zero (Pascal ``div``/``mod`` on the
  machines of the era);
- uninitialised scalars read as ``0`` and uninitialised array elements
  as ``0``/``0.0`` — deterministic, so differential tests are stable;
- ``read()`` consumes from an input list; running out raises
  :class:`InputExhausted`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from . import tac
from .cfg import Cfg


class InputExhausted(RuntimeError):
    """A ``read`` executed with no input left."""


class ExecutionLimitExceeded(RuntimeError):
    """The step budget was exhausted (probable infinite loop)."""


class ArrayIndexError(IndexError):
    """An array access fell outside the array's bounds.

    Raised with the same message by this interpreter and by the LIW
    executor (:mod:`repro.liw.executor`).
    """

    @classmethod
    def out_of_range(cls, array: str, index: int, size: int) -> "ArrayIndexError":
        return cls(f"array {array!r} index {index} out of range [0, {size})")


def _idiv(a: int, b: int) -> int:
    return math.trunc(a / b) if b != 0 else _div_by_zero()


def _imod(a: int, b: int) -> int:
    return a - b * _idiv(a, b)


def _div_by_zero() -> int:
    raise ZeroDivisionError("integer division by zero")


_BINARY_EVAL: dict[str, Callable[[object, object], object]] = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "idiv": _idiv,
    "imod": _imod,
    "min": min,
    "max": max,
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
    "and": lambda a, b: bool(a) and bool(b),
    "or": lambda a, b: bool(a) or bool(b),
}

_UNARY_EVAL: dict[str, Callable[[object], object]] = {
    "copy": lambda a: a,
    "neg": lambda a: -a,
    "not": lambda a: not a,
    "abs": abs,
    "sqrt": math.sqrt,
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "ln": math.log,
    "trunc": math.trunc,
    "float": float,
}


@dataclass(slots=True)
class InterpResult:
    outputs: list[object]
    steps: int
    scalars: dict[str, object] = field(default_factory=dict)
    #: total memory accesses (scalar reads/writes + array touches)
    memory_accesses: int = 0
    #: execution time on a one-module memory: each instruction costs
    #: max(1, its access count) cycles — the sequential baseline of the
    #: paper's speed-up comparison
    sequential_time: int = 0


class TacInterpreter:
    """Executes a CFG; see :func:`run_cfg` for the usual entry point."""

    def __init__(
        self,
        cfg: Cfg,
        inputs: list[object] | None = None,
        max_steps: int = 5_000_000,
    ):
        self._cfg = cfg
        self._inputs = list(inputs or [])
        self._input_pos = 0
        self._max_steps = max_steps
        self._scalars: dict[str, object] = dict(cfg.const_table)
        self._arrays: dict[str, list[object]] = {
            info.name: [0.0 if info.element_base == "real" else 0] * info.size
            for info in cfg.arrays.values()
        }
        self.outputs: list[object] = []
        self.steps = 0
        self.memory_accesses = 0
        self.sequential_time = 0

    # -- operand access ---------------------------------------------------

    def _value(self, op: tac.Operand) -> object:
        if isinstance(op, tac.Const):
            return op.value
        if isinstance(op, tac.Sym):
            return self._scalars.get(op.name, 0)
        raise TypeError(f"interpreter runs on pre-renaming TAC, got {op!r}")

    def _set(self, dest: tac.Scalar, value: object) -> None:
        assert isinstance(dest, tac.Sym)
        self._scalars[dest.name] = value

    def _array_ref(self, name: str, index: object) -> tuple[list[object], int]:
        arr = self._arrays[name]
        i = int(index)
        if not 0 <= i < len(arr):
            raise ArrayIndexError.out_of_range(name, i, len(arr))
        return arr, i

    def _read_input(self) -> object:
        if self._input_pos >= len(self._inputs):
            raise InputExhausted(
                f"program {self._cfg.name!r} read past end of input"
            )
        value = self._inputs[self._input_pos]
        self._input_pos += 1
        return value

    # -- main loop ----------------------------------------------------------

    def run(self) -> InterpResult:
        by_label = {b.label: b for b in self._cfg.blocks}
        block = self._cfg.entry
        pos = 0
        while True:
            if self.steps >= self._max_steps:
                raise ExecutionLimitExceeded(
                    f"exceeded {self._max_steps} steps in {self._cfg.name!r}"
                )
            instr = block.instrs[pos]
            self.steps += 1
            accesses = len({u.name for u in instr.uses()}) + len(instr.defs())
            if instr.ARRAY_ACCESS:
                accesses += 1
            self.memory_accesses += accesses
            self.sequential_time += max(1, accesses)
            if isinstance(instr, tac.Binary):
                a = self._value(instr.a)
                b = self._value(instr.b)
                self._set(instr.dest, _BINARY_EVAL[instr.op](a, b))
            elif isinstance(instr, tac.Unary):
                self._set(instr.dest, _UNARY_EVAL[instr.op](self._value(instr.a)))
            elif isinstance(instr, tac.Load):
                arr, i = self._array_ref(instr.array, self._value(instr.index))
                self._set(instr.dest, arr[i])
            elif isinstance(instr, tac.Store):
                arr, i = self._array_ref(instr.array, self._value(instr.index))
                arr[i] = self._value(instr.src)
            elif isinstance(instr, tac.ReadIn):
                self._set(instr.dest, self._read_input())
            elif isinstance(instr, tac.ReadArr):
                arr, i = self._array_ref(instr.array, self._value(instr.index))
                arr[i] = self._read_input()
            elif isinstance(instr, tac.WriteOut):
                self.outputs.append(self._value(instr.src))
            elif isinstance(instr, tac.Jump):
                block = self._cfg.blocks[block.succs[0]]
                pos = 0
                continue
            elif isinstance(instr, tac.CJump):
                taken = bool(self._value(instr.cond))
                target = instr.then_target if taken else instr.else_target
                block = by_label[target]
                pos = 0
                continue
            elif isinstance(instr, tac.Halt):
                return InterpResult(
                    self.outputs,
                    self.steps,
                    dict(self._scalars),
                    self.memory_accesses,
                    self.sequential_time,
                )
            else:  # pragma: no cover
                raise TypeError(f"cannot interpret {instr!r}")
            pos += 1


def run_cfg(
    cfg: Cfg, inputs: list[object] | None = None, max_steps: int = 5_000_000
) -> InterpResult:
    """Run a CFG to completion and return outputs/step count."""
    return TacInterpreter(cfg, inputs, max_steps).run()
