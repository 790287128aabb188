"""Unit tests for the reference liveness and reaching-definitions
analyses (the oracle of :mod:`repro.ir.rename`)."""

from repro.ir import build_cfg, compile_to_tac
from tests.reference import (
    reference_liveness as compute_liveness,
    reference_reaching as compute_reaching,
)


def cfg_of(body: str, decls: str = "var x, y, z, i: int;"):
    return build_cfg(compile_to_tac(f"program t; {decls} begin {body} end."))


def test_liveness_straight_line():
    cfg = cfg_of("x := 1; y := x + 1; write(y)")
    live = compute_liveness(cfg)
    # nothing is live into the entry block (x, y defined before use)
    assert "x" not in live.live_in[0]
    assert "y" not in live.live_in[0]


def test_liveness_loop_carried():
    cfg = cfg_of("x := 0; while x < 10 do x := x + 1; write(x)")
    live = compute_liveness(cfg)
    # x is live around the loop: live-in of the header block
    header = next(
        b for b in cfg.blocks if any(b.index in bb.succs and bb.index >= b.index for bb in cfg.blocks)
    )
    assert "x" in live.live_in[header.index]


def test_liveness_branch_join():
    cfg = cfg_of("read(x); if x > 0 then y := 1 else y := 2; write(y)")
    live = compute_liveness(cfg)
    entry = cfg.entry
    # y is not live-in at entry; x becomes live after the read only
    assert "y" not in live.live_in[entry.index]


def test_reaching_single_def():
    cfg = cfg_of("x := 1; y := x")
    reaching = compute_reaching(cfg)
    uses = [
        (key, defs)
        for key, defs in reaching.use_defs.items()
        if key[2] == "x"
    ]
    assert len(uses) == 1
    (_, def_ids) = uses[0]
    assert len(def_ids) == 1
    d = reaching.def_by_id(next(iter(def_ids)))
    assert not d.is_entry


def test_reaching_redefinition_kills():
    cfg = cfg_of("x := 1; x := 2; y := x")
    reaching = compute_reaching(cfg)
    use = next(d for k, d in reaching.use_defs.items() if k[2] == "x")
    assert len(use) == 1
    # must be the second definition (position-wise the later one)
    d = reaching.def_by_id(next(iter(use)))
    assert d.pos > 0 or d.block > 0


def test_reaching_join_merges_defs():
    cfg = cfg_of("read(x); if x > 0 then y := 1 else y := 2; write(y)")
    reaching = compute_reaching(cfg)
    use = next(d for k, d in reaching.use_defs.items() if k[2] == "y")
    real_defs = [reaching.def_by_id(i) for i in use]
    assert len([d for d in real_defs if not d.is_entry]) == 2


def test_use_before_def_reaches_entry_pseudo_def():
    cfg = cfg_of("y := x")
    reaching = compute_reaching(cfg)
    use = next(d for k, d in reaching.use_defs.items() if k[2] == "x")
    assert all(reaching.def_by_id(i).is_entry for i in use)


def test_loop_carried_use_sees_both_defs():
    cfg = cfg_of("x := 0; while x < 3 do x := x + 1")
    reaching = compute_reaching(cfg)
    # the use of x in the loop condition sees the init and the increment
    cond_uses = [
        d
        for k, d in reaching.use_defs.items()
        if k[2] == "x" and len(d) > 1
    ]
    assert cond_uses, "expected a use reached by multiple definitions"


def test_reach_in_masks_decode():
    cfg = cfg_of("x := 1; y := 2")
    reaching = compute_reaching(cfg)
    decoded = reaching.reach_in(0)
    # entry block: exactly the entry pseudo-defs
    assert all(reaching.def_by_id(i).is_entry for i in decoded)
