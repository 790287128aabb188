"""Frozen per-event reference for the LIW executor and the memory
simulator (tests only, never shipped).

This is the straightforward formulation that the decoded executor and
the memoizing simulator must reproduce bit for bit: every executed
long instruction is dispatched op by op on the instruction class, its
access event is rebuilt from the word, and the Δ-model terms of every
event are recomputed from scratch.  Keep it simple and do not optimize
it; ``tests/test_sim_differential.py`` compares against it.
"""

from __future__ import annotations

from repro.core.allocation import Allocation
from repro.ir import tac
from repro.ir.interp import (
    _BINARY_EVAL,
    _UNARY_EVAL,
    ArrayIndexError,
    ExecutionLimitExceeded,
    InputExhausted,
)
from repro.liw.executor import AccessEvent, ArrayTouch, ExecResult
from repro.liw.schedule import LiwInstruction, Schedule
from repro.memsim.distribution import expected_max_load, min_possible_max_load
from repro.memsim.interleave import ArrayLayout
from repro.memsim.simulator import MemoryReport, scalar_load_vector


class ReferenceExecutor:
    """Executes a schedule one op at a time, rebuilding every event."""

    def __init__(
        self,
        schedule: Schedule,
        inputs: list[object] | None = None,
        max_cycles: int = 5_000_000,
        observers=None,
        initial_values: dict[int, object] | None = None,
    ):
        self._schedule = schedule
        self._inputs = list(inputs or [])
        self._input_pos = 0
        self._max_cycles = max_cycles
        self._observers = list(observers or [])
        self._values: dict[int, object] = dict(initial_values or {})
        self._arrays: dict[str, list[object]] = {
            info.name: [0.0 if info.element_base == "real" else 0] * info.size
            for info in schedule.cfg.arrays.values()
        }
        self._by_label = {bs.label: bs for bs in schedule.blocks}
        self._by_index = {bs.block_index: bs for bs in schedule.blocks}
        self.outputs: list[object] = []
        self.cycles = 0
        self.liw_counts: dict[tuple[int, int], int] = {}

    def _value(self, op: tac.Operand) -> object:
        if isinstance(op, tac.Const):
            return op.value
        if isinstance(op, tac.Value):
            return self._values.get(op.id, 0)
        raise TypeError(f"executor needs renamed TAC, got {op!r}")

    def _read_input(self) -> object:
        if self._input_pos >= len(self._inputs):
            raise InputExhausted("LIW program read past end of input")
        v = self._inputs[self._input_pos]
        self._input_pos += 1
        return v

    def _array_index(self, name: str, index: object) -> int:
        arr = self._arrays[name]
        i = int(index)
        if not 0 <= i < len(arr):
            raise ArrayIndexError.out_of_range(name, i, len(arr))
        return i

    def _execute_liw(
        self, liw: LiwInstruction
    ) -> tuple[str | None, bool, AccessEvent]:
        writes_scalar: list[tuple[int, object]] = []
        writes_array: list[tuple[str, int, object]] = []
        out_values: list[object] = []
        touches: list[ArrayTouch] = []
        target: str | None = None
        halted = False

        for instr in liw.all_ops():
            if isinstance(instr, tac.Binary):
                a = self._value(instr.a)
                b = self._value(instr.b)
                writes_scalar.append(
                    (instr.dest.id, _BINARY_EVAL[instr.op](a, b))  # type: ignore[union-attr]
                )
            elif isinstance(instr, tac.Unary):
                writes_scalar.append(
                    (instr.dest.id, _UNARY_EVAL[instr.op](self._value(instr.a)))  # type: ignore[union-attr]
                )
            elif isinstance(instr, tac.Load):
                i = self._array_index(instr.array, self._value(instr.index))
                touches.append(ArrayTouch(instr.array, i, False))
                writes_scalar.append((instr.dest.id, self._arrays[instr.array][i]))  # type: ignore[union-attr]
            elif isinstance(instr, tac.Store):
                i = self._array_index(instr.array, self._value(instr.index))
                touches.append(ArrayTouch(instr.array, i, True))
                writes_array.append((instr.array, i, self._value(instr.src)))
            elif isinstance(instr, tac.ReadIn):
                writes_scalar.append((instr.dest.id, self._read_input()))  # type: ignore[union-attr]
            elif isinstance(instr, tac.ReadArr):
                i = self._array_index(instr.array, self._value(instr.index))
                touches.append(ArrayTouch(instr.array, i, True))
                writes_array.append((instr.array, i, self._read_input()))
            elif isinstance(instr, tac.WriteOut):
                out_values.append(self._value(instr.src))
            elif isinstance(instr, tac.Jump):
                target = instr.target
            elif isinstance(instr, tac.CJump):
                taken = bool(self._value(instr.cond))
                target = instr.then_target if taken else instr.else_target
            elif isinstance(instr, tac.Transfer):
                pass
            elif isinstance(instr, tac.Halt):
                halted = True
            else:
                raise TypeError(f"cannot execute {instr!r}")

        for vid, val in writes_scalar:
            self._values[vid] = val
        for name, i, val in writes_array:
            self._arrays[name][i] = val
        self.outputs.extend(out_values)

        event = AccessEvent(
            frozenset(liw.scalar_sources()),
            tuple(touches),
            frozenset(liw.scalar_dests()),
            tuple(
                (t.value.id, t.src_module, t.dst_module)  # type: ignore[union-attr]
                for t in liw.transfers()
            ),
        )
        return target, halted, event

    def run(self) -> ExecResult:
        if not self._schedule.blocks:
            return ExecResult([], 0)
        current = self._by_index[0]
        while True:
            next_label: str | None = None
            halted = False
            for pos, liw in enumerate(current.liws):
                if self.cycles >= self._max_cycles:
                    raise ExecutionLimitExceeded(
                        f"exceeded {self._max_cycles} cycles"
                    )
                self.cycles += 1
                key = (current.block_index, pos)
                self.liw_counts[key] = self.liw_counts.get(key, 0) + 1
                target, stop, event = self._execute_liw(liw)
                for obs in self._observers:
                    obs(event)
                if stop:
                    halted = True
                    break
                if target is not None:
                    next_label = target
                    break
            if halted:
                return ExecResult(self.outputs, self.cycles, dict(self._values))
            if next_label is None:
                raise RuntimeError(
                    f"block {current.label!r} ended without a branch"
                )
            current = self._by_label[next_label]


class ReferenceSimulator:
    """Recomputes every event's Δ-model terms from scratch."""

    def __init__(
        self,
        alloc: Allocation,
        layout: ArrayLayout,
        k: int,
        delta: float = 1.0,
        eager_copies: bool = True,
    ):
        self._alloc = alloc
        self._layout = layout
        self._k = k
        self._delta = delta
        self._eager_copies = eager_copies
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

    def __call__(self, event: AccessEvent) -> None:
        self.instructions += 1
        vec = scalar_load_vector(
            event.scalar_sources,
            event.scalar_dests,
            self._alloc,
            self._k,
            self._eager_copies,
        )
        if event.transfers:
            mutable = list(vec)
            for _, src, dst in event.transfers:
                mutable[src] += 1
                mutable[dst] += 1
            vec = tuple(mutable)
        n_arr = len(event.array_touches)
        n_scalar = sum(vec)
        if n_arr == 0 and n_scalar == 0:
            return

        self.transfer_instructions += 1
        self.scalar_accesses += n_scalar
        self.array_accesses += n_arr
        scalar_max = max(vec)
        if scalar_max > 1:
            self.scalar_conflicts += 1

        delta = self._delta
        self.t_min += delta * min_possible_max_load(vec, n_arr)
        self.t_ave += delta * expected_max_load(vec, n_arr)
        for m in range(self._k):
            self._t_max_per_module[m] += delta * max(scalar_max, vec[m] + n_arr)

        actual = list(vec)
        for touch in event.array_touches:
            actual[self._layout.module(touch.array, touch.index)] += 1
        actual_max = max(actual)
        self.t_actual += delta * actual_max
        if actual_max > 1:
            self.actual_conflicts += 1

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
