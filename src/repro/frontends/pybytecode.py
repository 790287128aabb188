"""CPython-bytecode frontend: destackify a real Python function to TAC.

The pipeline from ``simplify`` onward is frontend-agnostic, so turning
a Python function into a :class:`~repro.ir.tac.TacProgram` is enough to
run real Python numeric kernels through renaming, Fig. 4–6 storage
allocation, LIW scheduling, and the Δ-model memory simulator.  The
translation is the classic stack-bytecode -> three-address destackify:

1. ``compile(source, ..., "exec")`` + ``dis.get_instructions`` — the
   module is compiled, never executed; the kernel's code object is
   located in ``co_consts`` by name.
2. Basic blocks from jump targets (leaders: offset 0, every jump /
   ``FOR_ITER`` target, every instruction after a branch or return),
   with a static predecessor count per leader.
3. Symbolic stack simulation per block: the evaluation stack is
   modelled as a list of TAC operands plus structural markers (array
   references, ``range`` iterators, list literals, intrinsic
   callables).  Pushing computes into fresh ``%t…`` temporaries; at a
   join with several predecessors, value entries are materialised into
   ``%phi<offset>_<depth>`` temporaries copied on every incoming edge,
   so merged stacks agree by construction.
4. A supported numeric subset lowers to TAC: int/float arithmetic and
   comparisons, ``if``/``while``/``for i in range(...)``, scalar
   locals, 1-D list arrays (``a = [0] * n`` / literal lists) with
   ``a[i]`` indexing -> ``Load``/``Store``/``ReadArr``, the intrinsics
   ``read``/``write``/``range``/``len``/``min``/``max``/``abs``/
   ``float``/``int``.  Everything else — closures, dicts, arbitrary
   calls, float indices, ``**``, bitwise ops — raises the typed
   :class:`~repro.frontends.errors.UnsupportedPythonError` naming the
   offending opcode and source line.

Semantics note: TAC ``idiv``/``imod`` truncate toward zero while
Python ``//``/``%`` floor, so they agree only for nonnegative
operands; kernels must keep ``//`` and ``%`` operands nonnegative (the
differential suite enforces this by construction).
"""

from __future__ import annotations

import dis
import inspect
import types
from dataclasses import dataclass
from typing import Union

from ..ir import tac
from ..ir.cfg import build_cfg
from ..passes.manager import Pass, PassContext
from .errors import UnsupportedPythonError

#: Globals a kernel may call.  ``read``/``write`` are the program I/O
#: intrinsics (mini-language ``read``/``write`` statements); the rest
#: map to TAC unary/binary ops or fold at compile time.
SUPPORTED_GLOBALS = frozenset(
    {"read", "write", "range", "len", "min", "max", "abs", "float", "int"}
)

_BINOP_CODE = {
    "+": "add",
    "-": "sub",
    "*": "mul",
    "/": "div",
    "//": "idiv",
    "%": "imod",
}

_CMP_CODE = {
    "<": "lt",
    "<=": "le",
    ">": "gt",
    ">=": "ge",
    "==": "eq",
    "!=": "ne",
}

_UNCOND_JUMPS = frozenset(
    {"JUMP_FORWARD", "JUMP_BACKWARD", "JUMP_BACKWARD_NO_INTERRUPT",
     "JUMP_ABSOLUTE"}
)
_POP_JUMP_FALSE = frozenset(
    {"POP_JUMP_IF_FALSE", "POP_JUMP_FORWARD_IF_FALSE",
     "POP_JUMP_BACKWARD_IF_FALSE"}
)
_POP_JUMP_TRUE = frozenset(
    {"POP_JUMP_IF_TRUE", "POP_JUMP_FORWARD_IF_TRUE",
     "POP_JUMP_BACKWARD_IF_TRUE"}
)
_JUMP_OR_POP = frozenset({"JUMP_IF_FALSE_OR_POP", "JUMP_IF_TRUE_OR_POP"})
_COND_JUMPS = _POP_JUMP_FALSE | _POP_JUMP_TRUE | _JUMP_OR_POP
_RETURNS = frozenset({"RETURN_VALUE", "RETURN_CONST"})
#: Opcodes with no effect on our model.  ``END_FOR`` (3.12) is a no-op
#: because the ``FOR_ITER`` exit edge already drops the iterator from
#: the symbolic stack.
_NOOPS = frozenset(
    {"RESUME", "PRECALL", "NOP", "CACHE", "EXTENDED_ARG", "END_FOR"}
)


# --------------------------------------------------------------------------
# Symbolic stack entries (beyond plain TAC operands)
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class _Null:
    """The NULL CPython pushes under a global callable."""


@dataclass(frozen=True, slots=True)
class _NoneVal:
    """The ``None`` object (``write()`` result, bare ``return``)."""


@dataclass(frozen=True, slots=True)
class _Func:
    """A supported intrinsic callable loaded by ``LOAD_GLOBAL``."""

    name: str


@dataclass(frozen=True, slots=True)
class _ArrayRef:
    """A local bound to a declared 1-D array."""

    name: str


@dataclass(frozen=True, slots=True)
class _ListLit:
    """A compile-time list literal (array declaration in waiting)."""

    elements: tuple[Union[int, float], ...]


@dataclass(frozen=True, slots=True)
class _ConstSeq:
    """A constant tuple (``LIST_EXTEND`` operand for ``[1, 2, 3]``)."""

    elements: tuple[Union[int, float], ...]


@dataclass(frozen=True, slots=True)
class _Range:
    """An un-iterated ``range(start, stop, step)`` object."""

    start: tac.Operand
    stop: tac.Operand
    step: int


@dataclass(frozen=True, slots=True)
class _RangeIter:
    """An active range iterator: a counter temp plus a stable bound."""

    counter: tac.Sym
    stop: tac.Operand
    step: int


@dataclass(frozen=True, slots=True)
class _Pending:
    """The value ``FOR_ITER`` just yielded (consumed by ``STORE_FAST``)."""

    it: _RangeIter


_Entry = object  # stack entries: tac.Const | tac.Sym | markers above


def _is_value(entry: object) -> bool:
    return isinstance(entry, (tac.Const, tac.Sym))


def _describe(entry: object) -> str:
    if isinstance(entry, (tac.Const, tac.Sym)):
        return str(entry)
    return type(entry).__name__.lstrip("_").lower()


# --------------------------------------------------------------------------
# Kernel lookup
# --------------------------------------------------------------------------


def find_kernel_code(
    source: str, entry: str = "", filename: str = "<pykernel>"
) -> types.CodeType:
    """Compile ``source`` (never executed) and locate the kernel's code
    object among the module's top-level functions."""
    try:
        module = compile(source, filename, "exec")
    except SyntaxError as exc:
        raise UnsupportedPythonError(
            f"not valid Python: {exc.msg}", line=exc.lineno
        ) from exc
    except RecursionError as exc:
        # CPython's compiler recurses per nested expression: a long
        # operator chain (a 3,000-term sum) exhausts its depth limit.
        raise UnsupportedPythonError(
            "expression nested too deeply for CPython's compiler"
        ) from exc
    codes = [c for c in module.co_consts if isinstance(c, types.CodeType)]
    if entry:
        for code in codes:
            if code.co_name == entry:
                return code
        raise UnsupportedPythonError(
            f"no top-level function named {entry!r} "
            f"(found: {[c.co_name for c in codes]})",
            function=entry,
        )
    if len(codes) == 1:
        return codes[0]
    raise UnsupportedPythonError(
        f"source defines {len(codes)} top-level functions; "
        "name the kernel with entry=/--entry"
    )


# --------------------------------------------------------------------------
# The destackifier
# --------------------------------------------------------------------------

_REJECTED_FLAGS = (
    (inspect.CO_GENERATOR, "generator functions"),
    (inspect.CO_COROUTINE, "async functions"),
    (inspect.CO_ASYNC_GENERATOR, "async generators"),
    (inspect.CO_VARARGS, "*args"),
    (inspect.CO_VARKEYWORDS, "**kwargs"),
)


class _Destackifier:
    """One kernel function -> one linear :class:`~repro.ir.tac.TacProgram`."""

    def __init__(
        self,
        code: types.CodeType,
        constants_in_memory: bool = False,
        immediate_limit: int = 15,
    ):
        self.code = code
        self.func = code.co_name
        self.instrs = list(dis.get_instructions(code))
        self.index_of = {ins.offset: i for i, ins in enumerate(self.instrs)}
        self.out: list[tac.TacInstr] = []
        self.arrays: dict[str, tac.ArrayInfo] = {}
        self.scalar_order: list[str] = []
        self._scalar_seen: set[str] = set()
        self._temp_count = 0
        self._line: int | None = None
        # entry stacks per leader offset, recorded when an edge first
        # reaches the leader
        self.entry_stacks: dict[int, list[object]] = {}
        self.pred_count: dict[int, int] = {}
        self.leaders: list[int] = []
        # mirrors TacBuilder's memory-resident-constant interning
        self._constants_in_memory = constants_in_memory
        self._immediate_limit = immediate_limit
        self._const_syms: dict[tuple[str, object], tac.Sym] = {}
        self._const_table: dict[str, int | float | bool] = {}

    # -- helpers --------------------------------------------------------

    def _fail(self, message: str, ins: dis.Instruction | None = None) -> None:
        raise UnsupportedPythonError(
            message,
            opname=ins.opname if ins is not None else None,
            line=self._line,
            function=self.func,
        )

    def _temp(self) -> tac.Sym:
        self._temp_count += 1
        return tac.Sym(f"%t{self._temp_count}")

    def _const_op(self, value: int | float | bool) -> tac.Operand:
        """An immediate when it fits the machine's immediate fields,
        else a memory-resident ``%c…`` constant symbol (the same
        interning discipline as :class:`repro.ir.builder.TacBuilder`)."""
        if not self._constants_in_memory:
            return tac.Const(value)
        if isinstance(value, bool):
            return tac.Const(value)
        if isinstance(value, int) and abs(value) <= self._immediate_limit:
            return tac.Const(value)
        key = (type(value).__name__, value)
        sym = self._const_syms.get(key)
        if sym is None:
            sym = tac.Sym(f"%c{len(self._const_syms)}")
            self._const_syms[key] = sym
            self._const_table[sym.name] = value
        return sym

    def _val(
        self, entry: object, ins: dis.Instruction
    ) -> tac.Operand:
        """A stack entry as an emittable operand (raw constants are
        interned here, at the point of use, so folding sees raw
        values)."""
        if isinstance(entry, tac.Const):
            return self._const_op(entry.value)
        if isinstance(entry, tac.Sym):
            return entry
        self._fail(f"cannot use a {_describe(entry)} as a value", ins)
        raise AssertionError  # unreachable

    def _note_scalar(self, name: str) -> None:
        if name not in self._scalar_seen:
            self._scalar_seen.add(name)
            self.scalar_order.append(name)

    def _emit(self, instr: tac.TacInstr) -> None:
        self.out.append(instr)

    @staticmethod
    def _label(offset: int) -> str:
        return f".L{offset}"

    def _check_index(self, entry: object, ins: dis.Instruction) -> None:
        if isinstance(entry, tac.Const) and not isinstance(
            entry.value, int
        ):
            self._fail(
                f"array index must be an int, got {entry.value!r}", ins
            )
        if not _is_value(entry):
            self._fail(
                f"array index must be a value, got a {_describe(entry)}",
                ins,
            )

    # -- block structure ------------------------------------------------

    def _next_offset(self, ins: dis.Instruction) -> int:
        idx = self.index_of[ins.offset]
        if idx + 1 >= len(self.instrs):
            self._fail("control falls off the end of the function", ins)
        return self.instrs[idx + 1].offset

    def _find_blocks(self) -> None:
        leaders = {0}
        edges: list[tuple[int, int]] = []
        for i, ins in enumerate(self.instrs):
            op = ins.opname
            if op in _UNCOND_JUMPS or op in _COND_JUMPS or op == "FOR_ITER":
                leaders.add(int(ins.argval))
                if i + 1 < len(self.instrs):
                    leaders.add(self.instrs[i + 1].offset)
            elif op in _RETURNS and i + 1 < len(self.instrs):
                leaders.add(self.instrs[i + 1].offset)
            if ins.is_jump_target:
                leaders.add(ins.offset)
        self.leaders = sorted(leaders)
        leader_set = set(self.leaders)
        # static edges (for predecessor counts): within a block only the
        # final instruction can branch, because both jump targets and
        # post-branch instructions are leaders
        for bi, start in enumerate(self.leaders):
            end = (
                self.leaders[bi + 1]
                if bi + 1 < len(self.leaders)
                else None
            )
            last = None
            for ins in self.instrs:
                if ins.offset < start:
                    continue
                if end is not None and ins.offset >= end:
                    break
                last = ins
            if last is None:
                continue
            op = last.opname
            if op in _UNCOND_JUMPS:
                edges.append((start, int(last.argval)))
            elif op in _COND_JUMPS or op == "FOR_ITER":
                edges.append((start, int(last.argval)))
                if end is not None:
                    edges.append((start, end))
            elif op in _RETURNS:
                pass
            elif end is not None:
                edges.append((start, end))
        for _, dst in edges:
            if dst in leader_set:
                self.pred_count[dst] = self.pred_count.get(dst, 0) + 1

    # -- edge flow (phi materialisation) --------------------------------

    def _flow_to(
        self,
        target: int,
        stack: list[object],
        ins: dis.Instruction,
    ) -> None:
        """Record/merge the symbolic stack along one edge, emitting phi
        copies (before the pending branch) at multi-predecessor joins."""
        recorded = self.entry_stacks.get(target)
        if recorded is None:
            if self.pred_count.get(target, 0) > 1:
                merged: list[object] = []
                for depth, entry in enumerate(stack):
                    if _is_value(entry):
                        phi = tac.Sym(f"%phi{target}_{depth}")
                        if entry != phi:
                            self._emit(
                                tac.Unary(phi, "copy", self._val(entry, ins))
                            )
                        merged.append(phi)
                    else:
                        merged.append(entry)
                self.entry_stacks[target] = merged
            else:
                self.entry_stacks[target] = list(stack)
            return
        if len(recorded) != len(stack):
            self._fail(
                f"stack depth mismatch at join offset {target} "
                f"({len(recorded)} vs {len(stack)})",
                ins,
            )
        for rec, cur in zip(recorded, stack):
            if (
                isinstance(rec, tac.Sym)
                and rec.name.startswith("%phi")
                and _is_value(cur)
            ):
                if cur != rec:
                    self._emit(tac.Unary(rec, "copy", self._val(cur, ins)))
            elif rec != cur:
                self._fail(
                    f"inconsistent stack at join offset {target}: "
                    f"{_describe(rec)} vs {_describe(cur)}",
                    ins,
                )

    # -- main loop ------------------------------------------------------

    def run(self) -> tac.TacProgram:
        self._validate_code()
        self._find_blocks()
        self.entry_stacks[0] = []
        for bi, start in enumerate(self.leaders):
            stack = self.entry_stacks.get(start)
            if stack is None:
                if self.pred_count.get(start, 0) == 0:
                    continue  # unreachable (dead code past a return)
                self._fail(
                    "unstructured control flow: block at offset "
                    f"{start} is entered only from later code"
                )
            end = (
                self.leaders[bi + 1]
                if bi + 1 < len(self.leaders)
                else None
            )
            self._run_block(start, end, list(stack))
        prog = tac.TacProgram(name=self.func)
        prog.instrs = self.out
        prog.arrays = self.arrays
        prog.scalars = list(self.scalar_order)
        prog.const_table = dict(self._const_table)
        # constant symbols are initialised data: entry definitions,
        # like declared variables (mirrors TacBuilder.build)
        prog.scalars.extend(self._const_table)
        return prog

    def _validate_code(self) -> None:
        code = self.code
        for flag, what in _REJECTED_FLAGS:
            if code.co_flags & flag:
                self._fail(f"{what} are not supported")
        if code.co_argcount or code.co_kwonlyargcount or getattr(
            code, "co_posonlyargcount", 0
        ):
            self._fail(
                "kernel functions take no parameters; "
                "consume inputs with read()"
            )
        if code.co_freevars:
            self._fail(
                f"closures are not supported (free variables: "
                f"{list(code.co_freevars)})"
            )
        if code.co_cellvars:
            self._fail(
                f"nested functions capturing locals are not supported "
                f"(cell variables: {list(code.co_cellvars)})"
            )

    def _run_block(
        self, start: int, end: int | None, stack: list[object]
    ) -> None:
        self._emit(tac.Label(self._label(start)))
        for ins in self.instrs:
            if ins.offset < start:
                continue
            if end is not None and ins.offset >= end:
                break
            if ins.starts_line is not None:
                self._line = ins.starts_line
            if self._step(ins, stack):
                return  # block ended in an explicit terminator
        # fall through into the next block
        if end is None:
            self._fail("control falls off the end of the function")
        assert end is not None
        self._flow_to(end, stack, self.instrs[self.index_of[end]])
        self._emit(tac.Jump(self._label(end)))

    # -- one instruction ------------------------------------------------

    def _step(self, ins: dis.Instruction, stack: list[object]) -> bool:
        """Execute one instruction symbolically; True if it terminated
        the block."""
        op = ins.opname
        if op in _NOOPS:
            return False
        handler = getattr(self, f"_op_{op.lower()}", None)
        if handler is not None:
            return bool(handler(ins, stack))
        self._fail("unsupported Python construct", ins)
        raise AssertionError  # unreachable

    def _pop(self, stack: list[object], ins: dis.Instruction) -> object:
        if not stack:
            self._fail("evaluation stack underflow (compiler bug?)", ins)
        return stack.pop()

    # loads / stores

    def _op_load_const(self, ins: dis.Instruction, stack: list) -> bool:
        v = ins.argval
        if v is None:
            stack.append(_NoneVal())
        elif isinstance(v, (bool, int, float)):
            stack.append(tac.Const(v))
        elif isinstance(v, tuple):
            if not all(
                isinstance(x, (int, float)) and not isinstance(x, bool)
                for x in v
            ):
                self._fail("only numeric tuple constants are supported", ins)
            stack.append(_ConstSeq(tuple(v)))
        else:
            self._fail(f"unsupported constant {v!r}", ins)
        return False

    def _op_load_fast(self, ins: dis.Instruction, stack: list) -> bool:
        name = str(ins.argval)
        if name in self.arrays:
            stack.append(_ArrayRef(name))
        else:
            self._note_scalar(name)
            stack.append(tac.Sym(name))
        return False

    _op_load_fast_check = _op_load_fast

    def _op_load_global(self, ins: dis.Instruction, stack: list) -> bool:
        name = str(ins.argval)
        if name not in SUPPORTED_GLOBALS:
            self._fail(
                f"call of unsupported global {name!r} "
                f"(supported: {sorted(SUPPORTED_GLOBALS)})",
                ins,
            )
        if ins.arg is not None and ins.arg & 1:
            stack.append(_Null())
        stack.append(_Func(name))
        return False

    def _op_push_null(self, ins: dis.Instruction, stack: list) -> bool:
        stack.append(_Null())
        return False

    def _op_store_fast(self, ins: dis.Instruction, stack: list) -> bool:
        name = str(ins.argval)
        v = self._pop(stack, ins)
        if isinstance(v, _Pending):
            if name in self.arrays:
                self._fail(f"loop variable {name!r} shadows an array", ins)
            self._note_scalar(name)
            it = v.it
            self._emit(tac.Unary(tac.Sym(name), "copy", it.counter))
            self._emit(
                tac.Binary(
                    it.counter, "add", it.counter, self._const_op(it.step)
                )
            )
            return False
        if isinstance(v, _ListLit):
            self._declare_array(name, v, ins)
            return False
        if _is_value(v):
            if name in self.arrays:
                self._fail(f"cannot rebind array {name!r} to a scalar", ins)
            self._note_scalar(name)
            self._emit(tac.Unary(tac.Sym(name), "copy", self._val(v, ins)))
            return False
        self._fail(f"cannot store a {_describe(v)} in {name!r}", ins)
        raise AssertionError  # unreachable

    def _declare_array(
        self, name: str, lit: _ListLit, ins: dis.Instruction
    ) -> None:
        if name in self.arrays:
            self._fail(f"array {name!r} redeclared", ins)
        if name in self._scalar_seen:
            self._fail(f"scalar {name!r} rebound to an array", ins)
        if not lit.elements:
            self._fail(f"array {name!r} would be empty", ins)
        base = (
            "real"
            if any(isinstance(x, float) for x in lit.elements)
            else "int"
        )
        self.arrays[name] = tac.ArrayInfo(name, len(lit.elements), base)
        # the executor zero-initialises arrays, so only non-zero
        # elements need stores
        for i, x in enumerate(lit.elements):
            if x != 0:
                self._emit(
                    tac.Store(name, self._const_op(i), self._const_op(x))
                )

    # subscripts

    def _op_binary_subscr(self, ins: dis.Instruction, stack: list) -> bool:
        idx = self._pop(stack, ins)
        arr = self._pop(stack, ins)
        if not isinstance(arr, _ArrayRef):
            self._fail(
                f"subscript of a {_describe(arr)} (only 1-D arrays)", ins
            )
        self._check_index(idx, ins)
        dest = self._temp()
        self._emit(tac.Load(dest, arr.name, self._val(idx, ins)))
        stack.append(dest)
        return False

    def _op_store_subscr(self, ins: dis.Instruction, stack: list) -> bool:
        idx = self._pop(stack, ins)
        arr = self._pop(stack, ins)
        v = self._pop(stack, ins)
        if not isinstance(arr, _ArrayRef):
            self._fail(
                f"subscript store into a {_describe(arr)} "
                "(only 1-D arrays)",
                ins,
            )
        self._check_index(idx, ins)
        value = self._val(v, ins)
        index = self._val(idx, ins)
        # peephole: a[i] = read() becomes one ReadArr, as in the
        # mini-language's `read(a[i])` lowering — safe only while the
        # read's temp has no other live reference
        if (
            isinstance(value, tac.Sym)
            and value.is_temp
            and self.out
            and isinstance(self.out[-1], tac.ReadIn)
            and self.out[-1].dest == value
            and all(entry != value for entry in stack)
        ):
            self.out.pop()
            self._emit(tac.ReadArr(arr.name, index))
        else:
            self._emit(tac.Store(arr.name, index, value))
        return False

    # arithmetic / comparisons

    def _op_binary_op(self, ins: dis.Instruction, stack: list) -> bool:
        rep = ins.argrepr
        if rep.endswith("="):
            rep = rep[:-1]
        b = self._pop(stack, ins)
        a = self._pop(stack, ins)
        # [0] * n — list repetition declares a zero array
        if isinstance(a, _ListLit) or isinstance(b, _ListLit):
            lit, count = (a, b) if isinstance(a, _ListLit) else (b, a)
            if (
                rep == "*"
                and isinstance(count, tac.Const)
                and isinstance(count.value, int)
                and not isinstance(count.value, bool)
                and count.value > 0
            ):
                stack.append(_ListLit(lit.elements * count.value))
                return False
            self._fail(
                "list expressions support only literal * positive-int",
                ins,
            )
        code = _BINOP_CODE.get(rep)
        if code is None:
            self._fail(f"unsupported binary operator {ins.argrepr!r}", ins)
        assert code is not None
        dest = self._temp()
        self._emit(
            tac.Binary(dest, code, self._val(a, ins), self._val(b, ins))
        )
        stack.append(dest)
        return False

    def _op_compare_op(self, ins: dis.Instruction, stack: list) -> bool:
        code = _CMP_CODE.get(str(ins.argval))
        if code is None:
            self._fail(f"unsupported comparison {ins.argval!r}", ins)
        assert code is not None
        b = self._pop(stack, ins)
        a = self._pop(stack, ins)
        dest = self._temp()
        self._emit(
            tac.Binary(dest, code, self._val(a, ins), self._val(b, ins))
        )
        stack.append(dest)
        return False

    def _op_unary_negative(self, ins: dis.Instruction, stack: list) -> bool:
        v = self._pop(stack, ins)
        if isinstance(v, tac.Const) and not isinstance(v.value, bool):
            stack.append(tac.Const(-v.value))
            return False
        dest = self._temp()
        self._emit(tac.Unary(dest, "neg", self._val(v, ins)))
        stack.append(dest)
        return False

    def _op_unary_not(self, ins: dis.Instruction, stack: list) -> bool:
        v = self._pop(stack, ins)
        dest = self._temp()
        self._emit(tac.Unary(dest, "not", self._val(v, ins)))
        stack.append(dest)
        return False

    def _op_unary_positive(self, ins: dis.Instruction, stack: list) -> bool:
        self._check_top_value(stack, ins)
        return False

    def _check_top_value(
        self, stack: list, ins: dis.Instruction
    ) -> None:
        if not stack or not _is_value(stack[-1]):
            self._fail("expected a numeric value on the stack", ins)

    # list construction

    def _op_build_list(self, ins: dis.Instruction, stack: list) -> bool:
        n = ins.arg or 0
        elements: list[int | float] = []
        for _ in range(n):
            v = self._pop(stack, ins)
            if not isinstance(v, tac.Const) or isinstance(v.value, bool):
                self._fail(
                    "list elements must be numeric literals "
                    "(arrays are declared with literal lists)",
                    ins,
                )
            assert isinstance(v, tac.Const)
            elements.append(v.value)  # type: ignore[arg-type]
        elements.reverse()
        stack.append(_ListLit(tuple(elements)))
        return False

    def _op_list_extend(self, ins: dis.Instruction, stack: list) -> bool:
        seq = self._pop(stack, ins)
        if not isinstance(seq, _ConstSeq) or not stack or not isinstance(
            stack[-1], _ListLit
        ):
            self._fail("only literal list construction is supported", ins)
        assert isinstance(seq, _ConstSeq)
        lit = stack.pop()
        assert isinstance(lit, _ListLit)
        stack.append(_ListLit(lit.elements + seq.elements))
        return False

    # stack shuffling

    def _op_copy(self, ins: dis.Instruction, stack: list) -> bool:
        i = ins.arg or 1
        if i > len(stack):
            self._fail("evaluation stack underflow (compiler bug?)", ins)
        stack.append(stack[-i])
        return False

    def _op_swap(self, ins: dis.Instruction, stack: list) -> bool:
        i = ins.arg or 1
        if i > len(stack):
            self._fail("evaluation stack underflow (compiler bug?)", ins)
        stack[-1], stack[-i] = stack[-i], stack[-1]
        return False

    def _op_pop_top(self, ins: dis.Instruction, stack: list) -> bool:
        self._pop(stack, ins)
        return False

    # calls

    def _op_call(self, ins: dis.Instruction, stack: list) -> bool:
        argc = ins.arg or 0
        args = [self._pop(stack, ins) for _ in range(argc)]
        args.reverse()
        callee = self._pop(stack, ins)
        if stack and isinstance(stack[-1], _Null):
            stack.pop()
        if not isinstance(callee, _Func):
            self._fail(
                f"call of a {_describe(callee)} "
                "(only the supported intrinsics are callable)",
                ins,
            )
        assert isinstance(callee, _Func)
        self._call_intrinsic(callee.name, args, ins, stack)
        return False

    def _call_intrinsic(
        self,
        name: str,
        args: list[object],
        ins: dis.Instruction,
        stack: list,
    ) -> None:
        def arity(n: int) -> None:
            if len(args) != n:
                self._fail(
                    f"{name}() takes {n} argument(s), got {len(args)}", ins
                )

        if name == "read":
            arity(0)
            dest = self._temp()
            self._emit(tac.ReadIn(dest))
            stack.append(dest)
        elif name == "write":
            arity(1)
            self._emit(tac.WriteOut(self._val(args[0], ins)))
            stack.append(_NoneVal())
        elif name == "range":
            if not 1 <= len(args) <= 3:
                self._fail("range() takes 1..3 arguments", ins)
            step = 1
            if len(args) == 3:
                s = args[2]
                if (
                    not isinstance(s, tac.Const)
                    or not isinstance(s.value, int)
                    or isinstance(s.value, bool)
                    or s.value == 0
                ):
                    self._fail(
                        "range() step must be a nonzero integer literal",
                        ins,
                    )
                assert isinstance(s, tac.Const)
                step = int(s.value)
            if len(args) == 1:
                start: object = tac.Const(0)
                stop = args[0]
            else:
                start, stop = args[0], args[1]
            if not _is_value(start) or not _is_value(stop):
                self._fail("range() bounds must be numeric values", ins)
            stack.append(_Range(start, stop, step))  # type: ignore[arg-type]
        elif name == "len":
            arity(1)
            a = args[0]
            if not isinstance(a, _ArrayRef):
                self._fail("len() applies to arrays only", ins)
            assert isinstance(a, _ArrayRef)
            stack.append(tac.Const(self.arrays[a.name].size))
        elif name in ("min", "max"):
            arity(2)
            dest = self._temp()
            self._emit(
                tac.Binary(
                    dest,
                    name,
                    self._val(args[0], ins),
                    self._val(args[1], ins),
                )
            )
            stack.append(dest)
        elif name == "abs":
            arity(1)
            a = args[0]
            if isinstance(a, tac.Const) and not isinstance(a.value, bool):
                stack.append(tac.Const(abs(a.value)))
                return
            dest = self._temp()
            self._emit(tac.Unary(dest, "abs", self._val(a, ins)))
            stack.append(dest)
        elif name == "float":
            arity(1)
            a = args[0]
            if isinstance(a, tac.Const) and not isinstance(a.value, bool):
                stack.append(tac.Const(float(a.value)))
                return
            dest = self._temp()
            self._emit(tac.Unary(dest, "float", self._val(a, ins)))
            stack.append(dest)
        elif name == "int":
            arity(1)
            a = args[0]
            if isinstance(a, tac.Const) and not isinstance(a.value, bool):
                stack.append(tac.Const(int(a.value)))
                return
            dest = self._temp()
            self._emit(tac.Unary(dest, "trunc", self._val(a, ins)))
            stack.append(dest)
        else:  # pragma: no cover — LOAD_GLOBAL filters names
            self._fail(f"unsupported intrinsic {name!r}", ins)

    # iteration

    def _op_get_iter(self, ins: dis.Instruction, stack: list) -> bool:
        v = self._pop(stack, ins)
        if isinstance(v, _ArrayRef):
            self._fail(
                f"iterate arrays by index: "
                f"'for i in range(len({v.name}))'",
                ins,
            )
        if not isinstance(v, _Range):
            self._fail(f"cannot iterate a {_describe(v)}", ins)
        assert isinstance(v, _Range)
        counter = self._temp()
        self._emit(tac.Unary(counter, "copy", self._val(v.start, ins)))
        stop: tac.Operand
        if isinstance(v.stop, tac.Const):
            stop = self._const_op(v.stop.value)
        else:
            # the bound is captured once at loop entry (Python range
            # semantics), so a variable bound is copied to a temp
            bound = self._temp()
            self._emit(tac.Unary(bound, "copy", self._val(v.stop, ins)))
            stop = bound
        stack.append(_RangeIter(counter, stop, v.step))
        return False

    def _op_for_iter(self, ins: dis.Instruction, stack: list) -> bool:
        if not stack or not isinstance(stack[-1], _RangeIter):
            self._fail("for loops iterate range(...) only", ins)
        it = stack[-1]
        assert isinstance(it, _RangeIter)
        cond = self._temp()
        cmp_op = "lt" if it.step > 0 else "gt"
        self._emit(tac.Binary(cond, cmp_op, it.counter, it.stop))
        body = self._next_offset(ins)
        exit_ = int(ins.argval)
        # the iterator stays on the stack through the body (CPython
        # semantics); the exit edge drops it — 3.11 pops it here, 3.12
        # leaves it for END_FOR, which we model as a no-op
        self._flow_to(body, stack + [_Pending(it)], ins)
        self._flow_to(exit_, stack[:-1], ins)
        self._emit(tac.CJump(cond, self._label(body), self._label(exit_)))
        return True

    # control flow

    def _jump(
        self, ins: dis.Instruction, stack: list
    ) -> bool:
        target = int(ins.argval)
        self._flow_to(target, stack, ins)
        self._emit(tac.Jump(self._label(target)))
        return True

    _op_jump_forward = _jump
    _op_jump_backward = _jump
    _op_jump_backward_no_interrupt = _jump
    _op_jump_absolute = _jump

    def _cond_jump(
        self,
        ins: dis.Instruction,
        stack: list,
        *,
        jump_if_true: bool,
        pop_both: bool,
    ) -> bool:
        cond_entry = self._pop(stack, ins)
        cond = self._val(cond_entry, ins)
        target = int(ins.argval)
        fall = self._next_offset(ins)
        if pop_both:
            self._flow_to(target, stack, ins)
            self._flow_to(fall, stack, ins)
        else:
            # *_OR_POP: the kept edge (the jump) retains the condition
            self._flow_to(target, stack + [cond_entry], ins)
            self._flow_to(fall, stack, ins)
        then_l, else_l = self._label(fall), self._label(target)
        if jump_if_true:
            then_l, else_l = else_l, then_l
        self._emit(tac.CJump(cond, then_l, else_l))
        return True

    def _op_pop_jump_if_false(self, ins: dis.Instruction, stack: list) -> bool:
        return self._cond_jump(ins, stack, jump_if_true=False, pop_both=True)

    _op_pop_jump_forward_if_false = _op_pop_jump_if_false
    _op_pop_jump_backward_if_false = _op_pop_jump_if_false

    def _op_pop_jump_if_true(self, ins: dis.Instruction, stack: list) -> bool:
        return self._cond_jump(ins, stack, jump_if_true=True, pop_both=True)

    _op_pop_jump_forward_if_true = _op_pop_jump_if_true
    _op_pop_jump_backward_if_true = _op_pop_jump_if_true

    def _op_jump_if_false_or_pop(
        self, ins: dis.Instruction, stack: list
    ) -> bool:
        return self._cond_jump(ins, stack, jump_if_true=False, pop_both=False)

    def _op_jump_if_true_or_pop(
        self, ins: dis.Instruction, stack: list
    ) -> bool:
        return self._cond_jump(ins, stack, jump_if_true=True, pop_both=False)

    def _op_return_value(self, ins: dis.Instruction, stack: list) -> bool:
        v = self._pop(stack, ins)
        if not isinstance(v, _NoneVal):
            self._fail(
                "kernels return results via write(); only bare "
                "'return' is supported",
                ins,
            )
        self._emit(tac.Halt())
        return True

    def _op_return_const(self, ins: dis.Instruction, stack: list) -> bool:
        if ins.argval is not None:
            self._fail(
                "kernels return results via write(); only bare "
                "'return' is supported",
                ins,
            )
        self._emit(tac.Halt())
        return True


# --------------------------------------------------------------------------
# Public API + pass
# --------------------------------------------------------------------------


def compile_python_kernel(
    source: str,
    entry: str = "",
    *,
    constants_in_memory: bool = False,
    immediate_limit: int = 15,
) -> tac.TacProgram:
    """Compile one Python kernel function in ``source`` to linear TAC.

    ``entry`` names the function when the source defines several; the
    module is compiled but never executed."""
    code = find_kernel_code(source, entry)
    return _Destackifier(
        code, constants_in_memory, immediate_limit
    ).run()


def _run_pyfront(ctx: PassContext) -> None:
    opts = ctx.options
    prog = compile_python_kernel(
        ctx.get("source"),  # type: ignore[arg-type]
        entry=opts.py_entry,
        constants_in_memory=opts.constants_in_memory,
        immediate_limit=opts.immediate_limit,
    )
    cfg = build_cfg(prog)
    ctx.set("tac", prog)
    ctx.set("cfg", cfg)
    ctx.count("blocks", len(cfg.blocks))
    ctx.count("arrays", len(prog.arrays))


#: The whole source -> tac/cfg section of the Python pipeline in one
#: pass.  ``frontend``/``py_entry`` feed its fingerprint, so artifacts
#: can never collide with the mini-language chain (different pass name
#: *and* different config).
PYFRONT = Pass(
    name="pyfront",
    run=_run_pyfront,
    reads=("source",),
    writes=("tac", "cfg"),
    config_keys=(
        "frontend", "py_entry", "constants_in_memory", "immediate_limit",
    ),
)
