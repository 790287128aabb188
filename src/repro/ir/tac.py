"""Three-address code (TAC): operands, instructions, and a linear program.

TAC is the compiler's mid-level IR.  Scalars appear as :class:`Sym`
operands before renaming and as :class:`Value` operands afterwards
(see :mod:`repro.ir.rename`); arrays are referenced by name from
:class:`Load`/:class:`Store` only, since only scalar placement is the
paper's subject.

Each instruction class declares its operand slots once, as class
constants naming its fields: ``USES`` (read, in operand order), ``DEFS``
(written), ``TARGETS`` (branch labels), plus its array-access kind
(``ARRAY_ACCESS``), whether it does I/O (``IO``) and whether it ends a
block (``is_terminator``).  ``uses()``/``defs()``/``operands()``/
``targets()`` are compiled from those declarations, and the passes —
dataflow, renaming, dependence construction, CFG edges, the
memory-access model — loop over the slots instead of dispatching on the
instruction class.  Only code that gives each operation its meaning
(the TAC interpreter, the LIW executor, the affine index recogniser,
the frontends) still tests the class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import ClassVar, Iterator, Union


# --------------------------------------------------------------------------
# Operands
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Const:
    """Immediate constant — never occupies a memory module."""

    value: int | float | bool

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True, slots=True)
class Sym:
    """A named scalar (source variable or compiler temporary)."""

    name: str

    @property
    def is_temp(self) -> bool:
        return self.name.startswith("%")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Value:
    """A renamed data value (paper terminology); produced by rename.py."""

    id: int

    def __str__(self) -> str:
        return f"v{self.id}"


Operand = Union[Const, Sym, Value]
Scalar = Union[Sym, Value]

#: Binary opcodes with their evaluation functions.
BINARY_OPS = frozenset(
    {
        "add", "sub", "mul", "div", "idiv", "imod",
        "min", "max",
        "eq", "ne", "lt", "le", "gt", "ge",
        "and", "or",
    }
)

UNARY_OPS = frozenset(
    {
        "copy", "neg", "not", "abs",
        "sqrt", "sin", "cos", "exp", "ln",
        "trunc", "float",
    }
)


_SCALAR = (Sym, Value)

#: Array-access kinds (``TacInstr.ARRAY_ACCESS``).
LOAD = "load"
STORE = "store"


@cache  # classes with the same slots share one compiled reader
def _slot_reader(name: str, slots: tuple[str, ...], scalars_only: bool):
    """Compile ``name(self)``: the values of the fields ``slots`` as a
    tuple, keeping only ``Sym``/``Value`` ones when ``scalars_only``
    (a use slot may hold a ``Const``; a def slot always holds a scalar).

    The body is straight-line code over the named fields, as fast as a
    hand-written method (like the ``__init__`` that ``dataclass``
    generates): ``uses``/``defs`` run per interpreted instruction.
    """
    if scalars_only:
        terms = [
            f"((self.{s},) if isinstance(self.{s}, _SCALAR) else ())"
            for s in slots
        ]
        body = " + ".join(terms) or "()"
    else:
        body = "(" + "".join(f"self.{s}, " for s in slots) + ")"
    namespace = {"_SCALAR": _SCALAR}
    exec(f"def {name}(self):\n    return {body}\n", namespace)
    return namespace[name]


# --------------------------------------------------------------------------
# Instructions
# --------------------------------------------------------------------------


@dataclass(slots=True)
class TacInstr:
    """Base class.  Each subclass declares its operand layout once:

    - ``USES``: the fields it reads, in operand order;
    - ``DEFS``: the fields it writes;
    - ``TARGETS``: the fields holding branch-target labels;
    - ``ARRAY_ACCESS``: ``None``, :data:`LOAD` or :data:`STORE` (a
      ``ReadArr`` writes an array element, so it is a store);
    - ``IO``: whether it consumes input or produces output;
    - ``is_terminator``: whether it ends a basic block.

    ``uses``/``defs``/``operands``/``targets`` are compiled from these
    declarations for each subclass.
    """

    USES: ClassVar[tuple[str, ...]] = ()
    DEFS: ClassVar[tuple[str, ...]] = ()
    TARGETS: ClassVar[tuple[str, ...]] = ()
    ARRAY_ACCESS: ClassVar[str | None] = None
    IO: ClassVar[bool] = False
    is_terminator: ClassVar[bool] = False

    def __init_subclass__(cls) -> None:
        cls.uses = _slot_reader("uses", cls.USES, True)  # type: ignore[method-assign]
        cls.defs = _slot_reader("defs", cls.DEFS, False)  # type: ignore[method-assign]
        cls.operands = _slot_reader("operands", cls.USES, False)  # type: ignore[method-assign]
        cls.targets = _slot_reader("targets", cls.TARGETS, False)  # type: ignore[method-assign]

    def uses(self) -> tuple[Scalar, ...]:
        """Scalar operands read by this instruction."""
        return ()

    def defs(self) -> tuple[Scalar, ...]:
        """Scalar operands written by this instruction."""
        return ()

    def operands(self) -> tuple[Operand, ...]:
        """All source operands, including constants."""
        return ()

    def targets(self) -> tuple[str, ...]:
        """Branch-target labels, in ``TARGETS`` order."""
        return ()


@dataclass(slots=True)
class Binary(TacInstr):
    dest: Scalar
    op: str
    a: Operand
    b: Operand

    USES = ("a", "b")
    DEFS = ("dest",)

    def __post_init__(self) -> None:
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary op {self.op!r}")

    def __str__(self) -> str:
        return f"{self.dest} = {self.op} {self.a}, {self.b}"


@dataclass(slots=True)
class Unary(TacInstr):
    dest: Scalar
    op: str
    a: Operand

    USES = ("a",)
    DEFS = ("dest",)

    def __post_init__(self) -> None:
        if self.op not in UNARY_OPS:
            raise ValueError(f"unknown unary op {self.op!r}")

    def __str__(self) -> str:
        return f"{self.dest} = {self.op} {self.a}"


@dataclass(slots=True)
class Load(TacInstr):
    """``dest = array[index]`` — one run-time array access."""

    dest: Scalar
    array: str
    index: Operand

    USES = ("index",)
    DEFS = ("dest",)
    ARRAY_ACCESS = LOAD

    def __str__(self) -> str:
        return f"{self.dest} = {self.array}[{self.index}]"


@dataclass(slots=True)
class Store(TacInstr):
    """``array[index] = src`` — one run-time array access."""

    array: str
    index: Operand
    src: Operand

    USES = ("index", "src")
    ARRAY_ACCESS = STORE

    def __str__(self) -> str:
        return f"{self.array}[{self.index}] = {self.src}"


@dataclass(slots=True)
class Label(TacInstr):
    name: str

    def __str__(self) -> str:
        return f"{self.name}:"


@dataclass(slots=True)
class Jump(TacInstr):
    target: str

    TARGETS = ("target",)
    is_terminator = True

    def __str__(self) -> str:
        return f"jump {self.target}"


@dataclass(slots=True)
class CJump(TacInstr):
    """``if cond then goto then_target else goto else_target``."""

    cond: Operand
    then_target: str
    else_target: str

    USES = ("cond",)
    TARGETS = ("then_target", "else_target")
    is_terminator = True

    def __str__(self) -> str:
        return f"if {self.cond} then {self.then_target} else {self.else_target}"


@dataclass(slots=True)
class ReadIn(TacInstr):
    """``dest = read()`` — consume the next program input."""

    dest: Scalar

    DEFS = ("dest",)
    IO = True

    def __str__(self) -> str:
        return f"{self.dest} = read()"


@dataclass(slots=True)
class ReadArr(TacInstr):
    """``array[index] = read()``."""

    array: str
    index: Operand

    USES = ("index",)
    ARRAY_ACCESS = STORE
    IO = True

    def __str__(self) -> str:
        return f"{self.array}[{self.index}] = read()"


@dataclass(slots=True)
class WriteOut(TacInstr):
    """``write(src)`` — append to the program output."""

    src: Operand

    USES = ("src",)
    IO = True

    def __str__(self) -> str:
        return f"write {self.src}"


@dataclass(slots=True)
class Transfer(TacInstr):
    """``copy value: M_src -> M_dst`` — a compile-time-scheduled data
    transfer between memory modules (paper §1: "multiple copies can be
    created by data transfers among memory modules that are scheduled at
    compile-time").

    Transfers are inserted *after* scheduling and allocation
    (:mod:`repro.liw.transfers`); they carry no register-level dataflow
    — the executor's state is per-value, so ``value`` is no use slot —
    but each one occupies a functional-unit slot and two memory accesses
    (read at the source module, write at the destination) in the
    simulator's Δ phase.
    """

    value: Scalar
    src_module: int
    dst_module: int

    def __str__(self) -> str:
        return f"xfer {self.value}: M{self.src_module + 1}->M{self.dst_module + 1}"


@dataclass(slots=True)
class Halt(TacInstr):
    """End of program."""

    is_terminator = True

    def __str__(self) -> str:
        return "halt"


# --------------------------------------------------------------------------
# Program container
# --------------------------------------------------------------------------


@dataclass(slots=True)
class ArrayInfo:
    name: str
    size: int
    element_base: str  # 'int' | 'real'


@dataclass(slots=True)
class TacProgram:
    """A linear TAC program plus its declared arrays and scalar names.

    ``const_table`` maps memory-resident constant symbols (``%c…``) to
    their values: LIW machines have few immediate fields, so compilers
    place most literals in data memory, where they become ordinary
    (read-only, duplicable) data values.
    """

    name: str
    instrs: list[TacInstr] = field(default_factory=list)
    arrays: dict[str, ArrayInfo] = field(default_factory=dict)
    scalars: list[str] = field(default_factory=list)
    const_table: dict[str, int | float | bool] = field(default_factory=dict)

    def __iter__(self) -> Iterator[TacInstr]:
        return iter(self.instrs)

    def __len__(self) -> int:
        return len(self.instrs)

    def scalar_symbols(self) -> set[Sym]:
        """All scalar symbols (variables and temporaries) in the program."""
        syms: set[Sym] = set()
        for instr in self.instrs:
            for op in (*instr.uses(), *instr.defs()):
                if isinstance(op, Sym):
                    syms.add(op)
        return syms

    def pretty(self) -> str:
        lines = [f"; program {self.name}"]
        for arr in self.arrays.values():
            lines.append(f"; array {arr.name}[{arr.size}] of {arr.element_base}")
        for instr in self.instrs:
            if isinstance(instr, Label):
                lines.append(str(instr))
            else:
                lines.append(f"    {instr}")
        return "\n".join(lines)
