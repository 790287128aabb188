"""Unit tests for the TAC instruction set itself."""

import dataclasses

import pytest

from repro.ir import tac


def test_binary_validates_opcode():
    with pytest.raises(ValueError):
        tac.Binary(tac.Sym("x"), "plus", tac.Const(1), tac.Const(2))


def test_unary_validates_opcode():
    with pytest.raises(ValueError):
        tac.Unary(tac.Sym("x"), "negate", tac.Const(1))


def test_binary_uses_and_defs():
    i = tac.Binary(tac.Sym("x"), "add", tac.Sym("y"), tac.Const(1))
    assert i.uses() == (tac.Sym("y"),)
    assert i.defs() == (tac.Sym("x"),)
    assert i.operands() == (tac.Sym("y"), tac.Const(1))


def test_load_store_uses():
    load = tac.Load(tac.Sym("x"), "a", tac.Sym("i"))
    assert load.uses() == (tac.Sym("i"),)
    assert load.defs() == (tac.Sym("x"),)
    store = tac.Store("a", tac.Sym("i"), tac.Sym("x"))
    assert set(store.uses()) == {tac.Sym("i"), tac.Sym("x")}
    assert store.defs() == ()


def test_cjump_uses_condition():
    j = tac.CJump(tac.Sym("c"), "L1", "L2")
    assert j.uses() == (tac.Sym("c"),)
    assert j.is_terminator


def test_terminators():
    assert tac.Jump("L").is_terminator
    assert tac.Halt().is_terminator
    assert not tac.Label("L").is_terminator
    assert not tac.ReadIn(tac.Sym("x")).is_terminator


def test_io_instructions():
    r = tac.ReadIn(tac.Sym("x"))
    assert r.defs() == (tac.Sym("x"),)
    w = tac.WriteOut(tac.Sym("x"))
    assert w.uses() == (tac.Sym("x"),)
    ra = tac.ReadArr("a", tac.Sym("i"))
    assert ra.uses() == (tac.Sym("i"),)


def test_transfer_has_no_dataflow():
    t = tac.Transfer(tac.Value(3), 0, 2)
    assert t.uses() == ()
    assert t.defs() == ()
    assert "M1->M3" in str(t)


def test_sym_temp_detection():
    assert tac.Sym("%t1").is_temp
    assert tac.Sym("%c0").is_temp
    assert not tac.Sym("x").is_temp


def test_string_renderings():
    assert str(tac.Binary(tac.Sym("x"), "add", tac.Sym("y"), tac.Const(1))) \
        == "x = add y, 1"
    assert str(tac.Value(7)) == "v7"
    assert str(tac.Load(tac.Sym("x"), "a", tac.Const(0))) == "x = a[0]"
    assert str(tac.Jump(".L")) == "jump .L"


def test_program_scalar_symbols():
    prog = tac.TacProgram("t")
    prog.instrs = [
        tac.Binary(tac.Sym("x"), "add", tac.Sym("y"), tac.Const(1)),
        tac.Halt(),
    ]
    assert prog.scalar_symbols() == {tac.Sym("x"), tac.Sym("y")}


def test_program_pretty_includes_arrays():
    prog = tac.TacProgram("t")
    prog.arrays["a"] = tac.ArrayInfo("a", 4, "int")
    prog.instrs = [tac.Label(".L"), tac.Halt()]
    text = prog.pretty()
    assert "array a[4]" in text
    assert ".L:" in text


X, Y, I, ONE = tac.Sym("x"), tac.Sym("y"), tac.Sym("i"), tac.Const(1)

#: class -> (example, uses(), defs(), operands(), is_terminator,
#: ARRAY_ACCESS, IO, targets()).  Every instruction class needs a row.
SLOT_TABLE = {
    tac.Binary: (
        tac.Binary(X, "add", Y, ONE), (Y,), (X,), (Y, ONE),
        False, None, False, (),
    ),
    tac.Unary: (
        tac.Unary(X, "neg", ONE), (), (X,), (ONE,), False, None, False, (),
    ),
    tac.Load: (
        tac.Load(X, "a", I), (I,), (X,), (I,), False, tac.LOAD, False, (),
    ),
    tac.Store: (
        tac.Store("a", I, Y), (I, Y), (), (I, Y),
        False, tac.STORE, False, (),
    ),
    tac.Label: (tac.Label(".L"), (), (), (), False, None, False, ()),
    tac.Jump: (tac.Jump(".L"), (), (), (), True, None, False, (".L",)),
    tac.CJump: (
        tac.CJump(Y, ".T", ".E"), (Y,), (), (Y,),
        True, None, False, (".T", ".E"),
    ),
    tac.ReadIn: (tac.ReadIn(X), (), (X,), (), False, None, True, ()),
    tac.ReadArr: (
        tac.ReadArr("a", ONE), (), (), (ONE,), False, tac.STORE, True, (),
    ),
    tac.WriteOut: (tac.WriteOut(ONE), (), (), (ONE,), False, None, True, ()),
    tac.Transfer: (
        tac.Transfer(tac.Value(3), 0, 2), (), (), (), False, None, False, (),
    ),
    tac.Halt: (tac.Halt(), (), (), (), True, None, False, ()),
}


#: ``dataclass(slots=True)`` replaces each class with a new one, and the
#: replaced class stays in ``__subclasses__()`` until it is collected.
INSTR_CLASSES = [
    cls
    for cls in tac.TacInstr.__subclasses__()
    if getattr(tac, cls.__name__, None) is cls
]


@pytest.mark.parametrize("cls", INSTR_CLASSES, ids=lambda cls: cls.__name__)
def test_slot_table(cls):
    instr, uses, defs, operands, terminator, access, io, targets = (
        SLOT_TABLE[cls]
    )
    assert type(instr) is cls
    assert instr.uses() == uses
    assert instr.defs() == defs
    assert instr.operands() == operands
    assert instr.is_terminator is terminator
    assert instr.ARRAY_ACCESS == access
    assert instr.IO is io
    assert instr.targets() == targets
    fields = {f.name for f in dataclasses.fields(cls)}
    assert set(cls.USES + cls.DEFS + cls.TARGETS) <= fields
