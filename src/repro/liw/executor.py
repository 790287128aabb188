"""Cycle-by-cycle executor for scheduled LIW programs.

Lock-step semantics: within one long instruction every operation reads
machine state as it was at the start of the cycle (operand fetch), then
all results are committed (write-back).  This makes anti dependences
with latency 0 legal, exactly as the scheduler assumes.

The executor is allocation-agnostic.  What it runs is recorded as a
*block trace*: the decoded blocks it entered, in order, and one flat
log of the array indices their words resolved, in execution order.
Everything else about an executed long instruction's memory activity
(its scalar sources and destinations, its scheduled transfers, which
arrays it touches and how) is static and sits on the decoded word.  A
:class:`TraceSink` — the memory simulator (:mod:`repro.memsim`) — is
handed the trace one bounded :class:`TraceChunk` at a time, so memory
stays flat however long the run, and turns it into module conflicts
and transfer times under a given storage allocation.

**Decoded once, run many times.**  Everything about a long instruction
except its array indices is static.  The first time control enters a
basic block, the executor decodes each word the block can execute (up
to the first that branches or halts) into:

- one *step*: a single callable that runs the word.  It is built from
  one fetch closure per operation, in op order (the TAC interpreter's
  evaluation tables with the op's operands bound in: a binary op
  becomes ``fn(get(a, 0), get(b, 0))`` over the value store; an array
  op range-checks its index and appends it to the run's index log),
  the place each result goes (a scalar, an array element or the
  program output) and the ``CJump`` condition reader, if any.  A step
  reads the condition and fetches every operand before it commits any
  result (lock step), and returns the condition;
- its static memory activity: the scalar source and destination sets,
  the scheduled transfers, and the ``(array, is_store)`` of each array
  op in op order (read off the TAC slot tables once);

and the block's exit: a static ``Jump`` target, a ``CJump``'s two
targets, or a halt.

Per execution only the steps run (inputs consumed and array indices
resolved and logged in op order), one call per word.  Per block entry
the block is appended to the trace.  No per-word event is built and
nothing else is called per word: execution counts (``liw_counts``)
come from how often each block was entered, plus the words of the
entry that the cycle limit or an error (a bad index, exhausted input)
cut short.

Blocks are decoded lazily because most words of a large unrolled
program run about once; decoding them all up front costs more than it
saves.  Nothing is cached on :class:`~repro.liw.schedule.LiwInstruction`
itself: compiler stages edit its ``ops`` in place, so a decode belongs
to one executor run.
"""

from __future__ import annotations

from collections import Counter
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

#: Block entries, and logged array indices, per trace chunk: the bound
#: on a run's trace memory.
TRACE_CHUNK = 1 << 15


@dataclass(frozen=True, slots=True)
class ArrayTouch:
    """One resolved array-element access within an executed instruction."""

    array: str
    index: int
    is_store: bool


@dataclass(frozen=True, slots=True)
class AccessEvent:
    """The memory activity of one executed long instruction (the trace
    of one word, expanded; :meth:`repro.memsim.MemorySimulator.__call__`
    prices one)."""

    scalar_sources: frozenset[int]
    array_touches: tuple[ArrayTouch, ...]
    scalar_dests: frozenset[int]
    #: scheduled inter-module copies: (value, src_module, dst_module)
    transfers: tuple[tuple[int, int, int], ...] = ()


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


class DecodedWord(NamedTuple):
    """One decoded long instruction (see the module docstring)."""

    #: runs the word: reads the branch condition and every operation's
    #: operands, then commits the results; returns the condition (None
    #: for a word without a CJump)
    step: Fetch
    sources: frozenset[int]
    dests: frozenset[int]
    transfers: tuple[tuple[int, int, int], ...]
    #: ``(array, is_store)`` of each array op, in op order; each logs
    #: one index per execution
    touches: tuple[tuple[str, bool], ...]


def _nothing() -> None:
    """The step of a word with no data operation and no condition."""


def _word_step(
    fetch: list[Fetch],
    sinks: list[int | str],
    cond: Fetch | None,
    values: dict[int, object],
    outputs: list[object],
) -> Fetch:
    """One call per execution for a word whose operations are
    ``fetch`` (one closure each, in op order) writing to ``sinks``."""
    if not fetch:
        return cond or _nothing
    fetch_all, sink_all = tuple(fetch), tuple(sinks)
    scalar_only = _ARRAY not in sinks and _OUTPUT not in sinks
    update_values = values.update
    output = outputs.append

    def step() -> object:
        # operand fetch: every read sees the state before this word's
        # write-back
        taken = cond() if cond is not None else None
        fetched = [f() for f in fetch_all]
        # write-back; scalar, array and output writes touch disjoint
        # state, so one pass in op order is exact
        if scalar_only:
            update_values(zip(sink_all, fetched))
        else:
            for sink, val in zip(sink_all, fetched):
                if sink is _ARRAY:
                    elements, i, val = val  # type: ignore[misc]
                    elements[i] = val
                elif sink is _OUTPUT:
                    output(val)
                else:
                    values[sink] = val  # type: ignore[index]
        return taken

    return step


@dataclass(eq=False, slots=True)
class DecodedBlock:
    """One decoded basic block: the words an entry runs and its exit.
    Hashed by identity, so a trace can count entries per block."""

    block_index: int
    #: the words one entry executes, up to the one that branches
    words: tuple[DecodedWord, ...]
    halt: bool
    jump: str | None
    then_target: str | None
    else_target: str | None
    steps: tuple[Fetch, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.steps = tuple(word.step for word in self.words)


@dataclass(slots=True)
class TraceChunk:
    """A stretch of one run's block trace.  Its lists are reused by the
    executor: a sink reads them during the call and keeps no reference."""

    #: blocks entered and run to their end, in order
    blocks: list[DecodedBlock]
    #: array indices the words of ``blocks`` (then ``stop``) resolved,
    #: in execution order; a word that raised may have logged some
    indices: list[int]
    #: the block the run stopped inside (cycle limit or error) and how
    #: many of its words completed; None when no entry was cut short
    stop: tuple[DecodedBlock, int] | None = None


class TraceSink(Protocol):
    def consume(self, chunk: TraceChunk) -> None: ...


def _index_logger(
    name: str, size: int, log: Callable[[int], None]
) -> Callable[[object], int]:
    """Range-checks an index into array ``name`` and logs it."""

    def resolve(index: object) -> int:
        i = int(index)  # type: ignore[call-overload]
        if not 0 <= i < size:
            raise ArrayIndexError.out_of_range(name, i, size)
        log(i)
        return i

    return resolve


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
        sink: TraceSink | None = None,
        initial_values: dict[int, object] | None = None,
    ):
        self._schedule = schedule
        self._read_input = _input_reader(list(inputs or []))
        self._max_cycles = max_cycles
        self._sink = sink
        # Memory-resident constants are initialised data (see
        # RenamedProgram.initial_values).
        self._values: dict[int, object] = dict(initial_values or {})
        self._arrays: dict[str, list[object]] = {
            info.name: [0.0 if info.element_base == "real" else 0] * info.size
            for info in schedule.cfg.arrays.values()
        }
        self._by_label = {bs.label: bs for bs in schedule.blocks}
        self._by_index = {bs.block_index: bs for bs in schedule.blocks}
        #: decoded blocks by label
        self._decoded: dict[str, DecodedBlock] = {}
        #: the trace since the last chunk was handed on
        self._entered: list[DecodedBlock] = []
        self._indices: list[int] = []
        #: entries of each block in the chunks handed on so far
        self._entries: Counter[DecodedBlock] = Counter()
        self._resolvers: dict[str, Callable[[object], int]] = {}
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

    def _resolver(self, name: str) -> Callable[[object], int]:
        resolve = self._resolvers.get(name)
        if resolve is None:
            resolve = self._resolvers[name] = _index_logger(
                name, len(self._arrays[name]), self._indices.append
            )
        return resolve

    def _reader(self) -> Callable[[int | None, object], object]:
        """``values.get``, typed for the operand keys of :func:`_operand`."""
        return self._values.get  # type: ignore[return-value]

    def _fetch(self, instr: tac.TacInstr) -> tuple[Fetch, int | str]:
        """An operation's fetch closure and its sink (see :func:`_word_step`)."""
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
            i, di = _operand(instr.index)
            return (
                lambda get=get, i=i, di=di, resolve=self._resolver(instr.array),
                elements=self._arrays[instr.array]:
                    elements[resolve(get(i, di))]
            ), instr.dest.id  # type: ignore[union-attr]
        if isinstance(instr, tac.Store):
            (i, di), (s, ds) = _operand(instr.index), _operand(instr.src)
            return (
                lambda get=get, i=i, di=di, s=s, ds=ds,
                resolve=self._resolver(instr.array),
                elements=self._arrays[instr.array]:
                    (elements, resolve(get(i, di)), get(s, ds))
            ), _ARRAY
        if isinstance(instr, tac.ReadIn):
            return self._read_input, instr.dest.id  # type: ignore[union-attr]
        if isinstance(instr, tac.ReadArr):
            i, di = _operand(instr.index)
            return (
                lambda get=get, i=i, di=di, resolve=self._resolver(instr.array),
                elements=self._arrays[instr.array], read=self._read_input:
                    (elements, resolve(get(i, di)), read())
            ), _ARRAY
        if isinstance(instr, tac.WriteOut):
            s, ds = _operand(instr.src)
            return (lambda get=get, s=s, ds=ds: get(s, ds)), _OUTPUT
        raise TypeError(f"cannot execute {instr!r}")  # pragma: no cover

    def _decode_word(
        self, liw: LiwInstruction
    ) -> tuple[DecodedWord, list[tac.TacInstr]]:
        """The decoded word and its branch ops (a block's exit)."""
        fetch: list[Fetch] = []
        sinks: list[int | str] = []
        copies: list[tuple[int, int, int]] = []
        touches: list[tuple[str, bool]] = []
        branches: list[tac.TacInstr] = []
        cond: Fetch | None = None
        for instr in liw.all_ops():
            if isinstance(instr, (tac.Jump, tac.CJump, tac.Halt)):
                branches.append(instr)
                if isinstance(instr, tac.CJump):
                    c, dc = _operand(instr.cond)
                    cond = lambda get=self._reader(), c=c, dc=dc: get(c, dc)  # noqa: E731
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
                access = instr.ARRAY_ACCESS
                if access is not None:
                    touches.append((instr.array, access == "store"))  # type: ignore[attr-defined]
        return DecodedWord(
            _word_step(fetch, sinks, cond, self._values, self.outputs),
            frozenset(liw.scalar_sources()) or _NONE,
            frozenset(liw.scalar_dests()) or _NONE,
            tuple(copies),
            tuple(touches),
        ), branches

    def _block(self, label: str) -> DecodedBlock:
        block = self._decoded.get(label)
        if block is None:
            bs = self._by_label[label]
            words: list[DecodedWord] = []
            halt = False
            jump = then_target = else_target = None
            for liw in bs.liws:
                word, branches = self._decode_word(liw)
                words.append(word)
                for branch in branches:
                    if isinstance(branch, tac.Halt):
                        halt = True
                    elif isinstance(branch, tac.Jump):
                        jump = branch.target
                    else:
                        then_target = branch.then_target  # type: ignore[attr-defined]
                        else_target = branch.else_target  # type: ignore[attr-defined]
                if branches:
                    break  # words after the branch never run
            block = self._decoded[label] = DecodedBlock(
                bs.block_index, tuple(words), halt, jump, then_target,
                else_target,
            )
        return block

    # -- the block trace ------------------------------------------------------

    def _hand_on(self, stop: tuple[DecodedBlock, int] | None = None) -> None:
        """Count the pending entries and pass them to the sink."""
        self._entries.update(self._entered)
        try:
            if self._sink is not None:
                self._sink.consume(
                    TraceChunk(self._entered, self._indices, stop)
                )
        finally:
            self._entered.clear()
            self._indices.clear()

    def _finish(self, completed: int, ran: int) -> None:
        """Hand on the rest of the trace and fill in ``liw_counts``; the
        last entry ran ``ran`` words, ``completed`` of them to the end."""
        stop = None
        if self._entered and completed < len(self._entered[-1].words):
            last = self._entered.pop()
            stop = (last, completed)
        self._hand_on(stop)
        counts = {
            (block.block_index, pos): entries
            for block, entries in self._entries.items()
            for pos in range(len(block.words))
        }
        if stop is not None:
            for pos in range(ran):
                key = (stop[0].block_index, pos)
                counts[key] = counts.get(key, 0) + 1
        self.liw_counts = counts

    # -- main loop ----------------------------------------------------------

    def run(self) -> ExecResult:
        if not self._schedule.blocks:
            return ExecResult([], 0)
        values = self._values
        entered = self._entered
        enter = entered.append
        indices = self._indices
        limit = self._max_cycles
        decoded = self._decoded.get
        cycles = start = self.cycles
        #: words of the last entry known complete; -1 while one runs
        completed = 0
        try:
            block = self._block(self._by_index[0].label)
            while True:
                if len(entered) >= TRACE_CHUNK or len(indices) >= TRACE_CHUNK:
                    self._hand_on()
                enter(block)
                start = cycles
                completed = -1
                taken = None
                for step in block.steps:
                    if cycles >= limit:
                        completed = cycles - start
                        raise ExecutionLimitExceeded(f"exceeded {limit} cycles")
                    cycles += 1
                    taken = step()
                completed = cycles - start
                if block.halt:
                    return ExecResult(self.outputs, cycles, dict(values))
                target = block.jump
                if block.then_target is not None:
                    target = block.then_target if taken else block.else_target
                if target is None:
                    bs = self._by_index[block.block_index]
                    raise RuntimeError(
                        f"block {bs.label!r} ended without a branch"
                    )
                block = decoded(target) or self._block(target)
        except BaseException:
            if completed < 0:  # the word that raised did not complete
                completed = cycles - start - 1
            raise
        finally:
            self.cycles = cycles
            self._finish(completed, cycles - start)


def run_schedule(
    schedule: Schedule,
    inputs: list[object] | None = None,
    max_cycles: int = 5_000_000,
    sink: TraceSink | None = None,
    initial_values: dict[int, object] | None = None,
) -> ExecResult:
    """Execute a scheduled program to completion."""
    return LiwExecutor(
        schedule, inputs, max_cycles, sink, initial_values
    ).run()
