"""Cycle-by-cycle executor for scheduled LIW programs.

Lock-step semantics: within one long instruction every operation reads
machine state as it was at the start of the cycle (operand fetch), then
all results are committed (write-back).  This makes anti dependences
with latency 0 legal, exactly as the scheduler assumes.

The executor is allocation-agnostic.  Observers receive, per executed
long instruction, the *dynamic access event*: the scalar source values,
the concrete array elements touched, and the scalar destinations.  The
memory simulator (:mod:`repro.memsim`) turns those events into module
conflicts and transfer times under a given storage allocation.

**Decoded once, run many times.**  Everything about a long instruction
except its array indices is static.  The first time control enters a
basic block, the executor decodes each of the block's words into:

- one fetch closure per operation, in op order, built from the TAC
  interpreter's evaluation tables with the op's operands bound into it
  (a binary op becomes ``fn(get(a, 0), get(b, 0))`` over the value
  store);
- where each fetched result goes: a scalar, an array element or the
  program output;
- its branch: a static ``Jump`` target, or a ``CJump``'s condition
  reader and its two targets; and whether it halts;
- the static part of its access event: the scalar source and
  destination sets and the scheduled transfers (read off the TAC slot
  tables once).  A word that touches no array emits one prebuilt event
  on every execution.

Per execution only the closures run (inputs consumed and array indices
resolved in op order), the branch condition is read, the results are
committed, and the event is emitted.  Blocks are decoded lazily because
most words of a large unrolled program run about once; decoding them
all up front costs more than it saves.  Nothing is cached on
:class:`~repro.liw.schedule.LiwInstruction` itself: compiler stages edit
its ``ops`` in place, so a decode belongs to one executor run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Protocol

from ..ir import tac
from ..ir.interp import (
    _BINARY_EVAL,
    _UNARY_EVAL,
    ArrayIndexError,
    ExecutionLimitExceeded,
    InputExhausted,
)
from .schedule import LiwInstruction, Schedule


@dataclass(frozen=True, slots=True)
class ArrayTouch:
    """One resolved array-element access within an executed instruction."""

    array: str
    index: int
    is_store: bool


@dataclass(frozen=True, slots=True)
class AccessEvent:
    """The memory activity of one executed long instruction."""

    scalar_sources: frozenset[int]
    array_touches: tuple[ArrayTouch, ...]
    scalar_dests: frozenset[int]
    #: scheduled inter-module copies: (value, src_module, dst_module)
    transfers: tuple[tuple[int, int, int], ...] = ()


class Observer(Protocol):
    def __call__(self, event: AccessEvent) -> None: ...


@dataclass(slots=True)
class ExecResult:
    outputs: list[object]
    cycles: int
    scalars: dict[int, object] = field(default_factory=dict)


Fetch = Callable[[], object]


#: Where a fetched result goes when it is not a scalar's new value
#: (those sinks are the value id): an array element, from an
#: ``(elements, index, value)`` triple, or the program output.
_ARRAY = "array"
_OUTPUT = "output"

#: One shared empty value set (most branch and store words write none).
_NONE: frozenset[int] = frozenset()


class _Word(NamedTuple):
    """One decoded long instruction (see the module docstring)."""

    #: one closure per data operation, in op order
    fetch: tuple[Fetch, ...]
    #: per fetch: the value id it writes, or _ARRAY / _OUTPUT
    sinks: tuple[int | str, ...]
    #: every sink is a value id
    scalar_only: bool
    jump: str | None
    cond: Fetch | None
    then_target: str | None
    else_target: str | None
    halt: bool
    #: the whole event when the word touches no array, else None
    event: AccessEvent | None
    sources: frozenset[int]
    dests: frozenset[int]
    transfers: tuple[tuple[int, int, int], ...]


@dataclass(slots=True)
class _Block:
    block_index: int
    words: list[_Word]
    #: executions of each word, by position
    counts: list[int]


class _ArrayPort:
    """One array's elements plus the touches that resolving an index
    records (one port per array and access kind per executor run)."""

    __slots__ = ("name", "elements", "is_store", "record", "_touches")

    def __init__(
        self, name: str, elements: list[object], is_store: bool,
        record: Callable[[ArrayTouch], None],
    ):
        self.name = name
        self.elements = elements
        self.is_store = is_store
        self.record = record
        #: index -> the ArrayTouch, built once (events share them)
        self._touches: dict[int, ArrayTouch] = {}

    def resolve(self, index: object) -> int:
        """Range-check an index and record the touch."""
        i = int(index)  # type: ignore[call-overload]
        size = len(self.elements)
        if not 0 <= i < size:
            raise ArrayIndexError.out_of_range(self.name, i, size)
        touch = self._touches.get(i)
        if touch is None:
            touch = self._touches[i] = ArrayTouch(self.name, i, self.is_store)
        self.record(touch)
        return i


def _input_reader(inputs: list[object]) -> Fetch:
    """Consumes the program inputs in order."""
    it = iter(inputs)

    def read() -> object:
        try:
            return next(it)
        except StopIteration:
            raise InputExhausted("LIW program read past end of input") from None

    return read


def _operand(op: tac.Operand) -> tuple[int | None, object]:
    """``(key, default)`` such that ``values.get(key, default)`` reads the
    operand: a value's id with 0 for an uninitialised scalar, or, for a
    constant, a key no value has (None) with the constant as default."""
    if isinstance(op, tac.Value):
        return op.id, 0
    if isinstance(op, tac.Const):
        return None, op.value
    raise TypeError(f"executor needs renamed TAC, got {op!r}")


class LiwExecutor:
    def __init__(
        self,
        schedule: Schedule,
        inputs: list[object] | None = None,
        max_cycles: int = 5_000_000,
        observers: list[Observer] | None = None,
        initial_values: dict[int, object] | None = None,
    ):
        self._schedule = schedule
        self._read_input = _input_reader(list(inputs or []))
        self._max_cycles = max_cycles
        self._observers = list(observers or [])
        # Memory-resident constants are initialised data (see
        # RenamedProgram.initial_values).
        self._values: dict[int, object] = dict(initial_values or {})
        self._arrays: dict[str, list[object]] = {
            info.name: [0.0 if info.element_base == "real" else 0] * info.size
            for info in schedule.cfg.arrays.values()
        }
        self._by_label = {bs.label: bs for bs in schedule.blocks}
        self._by_index = {bs.block_index: bs for bs in schedule.blocks}
        #: decoded blocks by label, in first-entry order
        self._decoded: dict[str, _Block] = {}
        #: array touches of the word being executed (filled by its fetches)
        self._touches: list[ArrayTouch] = []
        self._ports: dict[tuple[str, bool], _ArrayPort] = {}
        self.outputs: list[object] = []
        self.cycles = 0
        #: executions of each static long instruction, keyed by
        #: (block_index, position) — the profile that frequency-guided
        #: assignment consumes; filled in when :meth:`run` returns or
        #: raises
        self.liw_counts: dict[tuple[int, int], int] = {}


    # -- decoding -----------------------------------------------------------
    #
    # Every closure binds what it reads as default arguments, per op (a
    # loop variable captured by reference would read the last op's), and
    # none refers back to the executor, so a run's decode is freed with it.

    def _port(self, name: str, is_store: bool) -> _ArrayPort:
        port = self._ports.get((name, is_store))
        if port is None:
            port = self._ports[(name, is_store)] = _ArrayPort(
                name, self._arrays[name], is_store, self._touches.append
            )
        return port

    def _reader(self) -> Callable[[int | None, object], object]:
        """``values.get``, typed for the operand keys of :func:`_operand`."""
        return self._values.get  # type: ignore[return-value]

    def _fetch(self, instr: tac.TacInstr) -> tuple[Fetch, int | str]:
        """An operation's fetch closure and its sink (see :class:`_Word`)."""
        get = self._reader()
        if isinstance(instr, tac.Binary):
            (a, da), (b, db) = _operand(instr.a), _operand(instr.b)
            return (
                lambda fn=_BINARY_EVAL[instr.op], get=get, a=a, da=da, b=b, db=db:
                    fn(get(a, da), get(b, db))
            ), instr.dest.id  # type: ignore[union-attr]
        if isinstance(instr, tac.Unary):
            a, da = _operand(instr.a)
            return (
                lambda fn=_UNARY_EVAL[instr.op], get=get, a=a, da=da:
                    fn(get(a, da))
            ), instr.dest.id  # type: ignore[union-attr]
        if isinstance(instr, tac.Load):
            port = self._port(instr.array, False)
            i, di = _operand(instr.index)
            return (
                lambda get=get, i=i, di=di, port=port, elements=port.elements:
                    elements[port.resolve(get(i, di))]
            ), instr.dest.id  # type: ignore[union-attr]
        if isinstance(instr, tac.Store):
            port = self._port(instr.array, True)
            (i, di), (s, ds) = _operand(instr.index), _operand(instr.src)
            return (
                lambda get=get, i=i, di=di, s=s, ds=ds, port=port:
                    (port.elements, port.resolve(get(i, di)), get(s, ds))
            ), _ARRAY
        if isinstance(instr, tac.ReadIn):
            return self._read_input, instr.dest.id  # type: ignore[union-attr]
        if isinstance(instr, tac.ReadArr):
            port = self._port(instr.array, True)
            i, di = _operand(instr.index)
            return (
                lambda get=get, i=i, di=di, port=port, read=self._read_input:
                    (port.elements, port.resolve(get(i, di)), read())
            ), _ARRAY
        if isinstance(instr, tac.WriteOut):
            s, ds = _operand(instr.src)
            return (lambda get=get, s=s, ds=ds: get(s, ds)), _OUTPUT
        raise TypeError(f"cannot execute {instr!r}")  # pragma: no cover

    def _decode_word(self, liw: LiwInstruction) -> _Word:
        fetch: list[Fetch] = []
        sinks: list[int | str] = []
        copies: list[tuple[int, int, int]] = []
        jump = then_target = else_target = None
        cond: Fetch | None = None
        halt = touches_array = False
        for instr in liw.all_ops():
            if isinstance(instr, tac.Jump):
                jump = instr.target
            elif isinstance(instr, tac.CJump):
                c, dc = _operand(instr.cond)
                cond = lambda get=self._reader(), c=c, dc=dc: get(c, dc)  # noqa: E731
                then_target, else_target = instr.then_target, instr.else_target
            elif isinstance(instr, tac.Halt):
                halt = True
            elif isinstance(instr, tac.Transfer):
                # The executor's state is per data value; a transfer only
                # moves a copy between modules — timing is the
                # simulator's concern.
                copies.append(
                    (instr.value.id, instr.src_module, instr.dst_module)  # type: ignore[union-attr]
                )
            else:
                closure, sink = self._fetch(instr)
                fetch.append(closure)
                sinks.append(sink)
                touches_array = touches_array or instr.ARRAY_ACCESS is not None
        sources = frozenset(liw.scalar_sources()) or _NONE
        dests = frozenset(liw.scalar_dests()) or _NONE
        transfers = tuple(copies)
        return _Word(
            tuple(fetch),
            tuple(sinks),
            _ARRAY not in sinks and _OUTPUT not in sinks,
            jump,
            cond,
            then_target,
            else_target,
            halt,
            None if touches_array else AccessEvent(sources, (), dests, transfers),
            sources,
            dests,
            transfers,
        )

    def _block(self, label: str) -> _Block:
        block = self._decoded.get(label)
        if block is None:
            bs = self._by_label[label]
            words = [self._decode_word(liw) for liw in bs.liws]
            block = self._decoded[label] = _Block(
                bs.block_index, words, [0] * len(words)
            )
        return block

    # -- main loop ----------------------------------------------------------

    def run(self) -> ExecResult:
        if not self._schedule.blocks:
            return ExecResult([], 0)
        values = self._values
        update_values = values.update
        outputs = self.outputs
        observers = self._observers
        touches = self._touches
        limit = self._max_cycles
        cycles = self.cycles
        block = self._block(self._by_index[0].label)
        try:
            while True:
                counts = block.counts
                for pos, word in enumerate(block.words):
                    if cycles >= limit:
                        raise ExecutionLimitExceeded(f"exceeded {limit} cycles")
                    cycles += 1
                    counts[pos] += 1
                    event = word.event
                    if event is None:
                        touches.clear()
                    # operand fetch: every read sees the state before
                    # this word's write-back
                    fetched = [f() for f in word.fetch]
                    target = word.jump
                    if word.cond is not None:
                        target = (
                            word.then_target if word.cond() else word.else_target
                        )
                    # write-back; scalar, array and output writes touch
                    # disjoint state, so one pass in op order is exact
                    if word.scalar_only:
                        update_values(zip(word.sinks, fetched))
                    else:
                        for sink, val in zip(word.sinks, fetched):
                            if sink is _ARRAY:
                                elements, i, val = val  # type: ignore[misc]
                                elements[i] = val
                            elif sink is _OUTPUT:
                                outputs.append(val)
                            else:
                                values[sink] = val
                    if observers:
                        if event is None:
                            event = AccessEvent(
                                word.sources, tuple(touches), word.dests,
                                word.transfers,
                            )
                        for obs in observers:
                            obs(event)
                    if word.halt:
                        return ExecResult(outputs, cycles, dict(values))
                    if target is not None:
                        break  # the branch is the last op of the block
                else:
                    bs = self._by_index[block.block_index]
                    raise RuntimeError(
                        f"block {bs.label!r} ended without a branch"
                    )
                block = self._block(target)
        finally:
            self.cycles = cycles
            self.liw_counts = {
                (decoded.block_index, pos): count
                for decoded in self._decoded.values()
                for pos, count in enumerate(decoded.counts)
                if count
            }


def run_schedule(
    schedule: Schedule,
    inputs: list[object] | None = None,
    max_cycles: int = 5_000_000,
    observers: list[Observer] | None = None,
    initial_values: dict[int, object] | None = None,
) -> ExecResult:
    """Execute a scheduled program to completion."""
    return LiwExecutor(
        schedule, inputs, max_cycles, observers, initial_values
    ).run()


class TraceRecorder:
    """Observer that stores every access event (tests / small runs only)."""

    def __init__(self) -> None:
        self.events: list[AccessEvent] = []

    def __call__(self, event: AccessEvent) -> None:
        self.events.append(event)
