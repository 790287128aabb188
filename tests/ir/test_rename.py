"""Unit tests for web-based renaming into data values."""

from repro.ir import build_cfg, compile_to_tac, rename, tac


def renamed(body: str, decls: str = "var x, y, z, i: int;", **kw):
    cfg = build_cfg(compile_to_tac(f"program t; {decls} begin {body} end.", **kw))
    return rename(cfg)


def value_by_name(rn, name):
    matches = [v for v in rn.values if v.name == name]
    assert len(matches) == 1, f"{name}: {[v.name for v in rn.values]}"
    return matches[0]


def test_straight_line_redefinitions_split():
    rn = renamed("x := 1; y := x; x := 2; z := x")
    xs = [v for v in rn.values if v.origin == "x" and v.def_sites]
    assert len(xs) == 2
    assert all(not v.multi_def for v in xs)


def test_loop_accumulator_is_one_multi_def_web():
    rn = renamed("x := 0; while x < 5 do x := x + 1; write(x)")
    xs = [v for v in rn.values if v.origin == "x" and (v.def_sites or v.use_sites)]
    assert len(xs) == 1
    assert xs[0].multi_def


def test_branch_join_merges_into_one_web():
    rn = renamed("read(x); if x > 0 then y := 1 else y := 2; write(y)")
    ys = [v for v in rn.values if v.origin == "y" and v.def_sites]
    assert len(ys) == 1
    assert ys[0].multi_def  # two defs feed one use


def test_independent_branch_defs_with_separate_uses():
    rn = renamed(
        "read(x);"
        "if x > 0 then begin y := 1; write(y) end"
        " else begin y := 2; write(y) end"
    )
    ys = [v for v in rn.values if v.origin == "y" and v.def_sites]
    # each def has its own use: two separate single-def values
    assert len(ys) == 2
    assert all(not v.multi_def for v in ys)


def test_temps_are_single_def():
    rn = renamed("x := y + 1; z := y + 2")
    temps = [v for v in rn.values if v.is_temp and v.def_sites]
    assert temps
    assert all(not v.multi_def for v in temps)


def test_uninitialised_use_binds_to_entry_value():
    rn = renamed("y := x")
    x = next(v for v in rn.values if v.origin == "x" and v.use_sites)
    assert x.from_entry
    assert not x.def_sites


def test_operands_rewritten_to_values():
    every_kind = (
        "read(x); read(a[x]); i := 0;"
        " while i < x do begin a[i] := a[i] + y; i := i + 1 end;"
        " write(a[0])"
    )
    cases = [
        ("x := 1; y := x + 1", "var x, y: int;"),
        (every_kind, "var x, y, i: int; a: array[8] of int;"),
    ]
    for body, decls in cases:
        rn = renamed(body, decls)
        for block in rn.cfg.blocks:
            for instr in block.instrs:
                for op in (*instr.uses(), *instr.defs()):
                    assert isinstance(op, tac.Value)
                for slot in (*instr.USES, *instr.DEFS):
                    assert not isinstance(getattr(instr, slot), tac.Sym)
    kinds = {type(i) for block in rn.cfg.blocks for i in block.instrs}
    assert {
        tac.Load, tac.Store, tac.ReadIn, tac.ReadArr, tac.WriteOut, tac.CJump
    } <= kinds


def test_rename_preserves_original_cfg():
    cfg = build_cfg(
        compile_to_tac("program t; var x: int; begin x := 1 end.")
    )
    before = cfg.pretty()
    rename(cfg)
    assert cfg.pretty() == before


def test_names_are_unique_and_readable():
    rn = renamed("x := 1; y := x; x := 2; z := x")
    names = [v.name for v in rn.values]
    assert len(names) == len(set(names))
    assert "x" in names and "x#1" in names


def test_initial_values_for_memory_constants():
    rn = renamed(
        "r := 2.5; write(r)",
        decls="var r: real;",
        constants_in_memory=True,
    )
    init = rn.initial_values()
    assert list(init.values()) == [2.5]
    const_value = next(
        v for v in rn.values if v.origin.startswith("%c")
    )
    assert const_value.id in init
    assert not const_value.multi_def


def test_values_of_origin():
    rn = renamed("x := 1; y := x; x := 2")
    assert len(rn.values_of_origin("x")) >= 2


def test_variable_mode_one_value_per_variable():
    rn = renamed_mode("x := 1; y := x; x := 2; z := x", mode="variable")
    xs = [v for v in rn.values if v.origin == "x" and (v.def_sites or v.use_sites)]
    assert len(xs) == 1
    assert xs[0].multi_def


def test_variable_mode_temps_unchanged():
    rn = renamed_mode("x := y + 1; z := y + 2", mode="variable")
    temps = [v for v in rn.values if v.is_temp and v.def_sites]
    assert all(not v.multi_def for v in temps)


def test_variable_mode_semantics_preserved():
    from repro.ir import run_cfg
    from repro.liw import MachineConfig, run_schedule, schedule_program

    src = (
        "program t; var x, y, i: int; begin "
        "x := 0; for i := 0 to 9 do begin x := x + i; y := x * 2 end;"
        " write(x); write(y) end."
    )
    from repro.ir import build_cfg, compile_to_tac, rename

    cfg = build_cfg(compile_to_tac(src))
    want = run_cfg(cfg).outputs
    rn = rename(cfg, mode="variable")
    sched = schedule_program(rn, MachineConfig())
    got = run_schedule(sched).outputs
    assert got == want


def test_unknown_rename_mode_rejected():
    import pytest
    from repro.ir import build_cfg, compile_to_tac, rename

    cfg = build_cfg(compile_to_tac("program t; var x: int; begin x := 1 end."))
    with pytest.raises(ValueError):
        rename(cfg, mode="ssa")


def renamed_mode(body, decls="var x, y, z, i: int;", mode="web", **kw):
    from repro.ir import build_cfg, compile_to_tac, rename

    cfg = build_cfg(compile_to_tac(f"program t; {decls} begin {body} end.", **kw))
    return rename(cfg, mode=mode)
