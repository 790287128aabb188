"""Differential suite: the live renamer against the frozen reference.

:func:`repro.ir.rename.rename` runs dataflow only for multiply-defined
variables and rebuilds instructions from their operand slots; the
reference (``tests/reference.py``) runs whole-program reaching
definitions and copies every instruction.  Both must give the same
renamed CFG text and the same value table, field by field and in order,
on the registry programs, the pykernels and generated programs, at
unroll 1, 2 and 4, with constants in memory or not, in both renaming
modes.  The python frontend does not unroll, so the pykernels run once
per constants setting.
"""

import pytest

from repro.ir import RenameError, rename, tac
from repro.ir.cfg import BasicBlock, Cfg
from repro.ir.passes import SIMPLIFY
from repro.ir.rename import RENAME_MODES
from repro.lang.generator import random_source
from repro.passes.artifacts import PipelineOptions
from repro.passes.registry import FRONTENDS
from repro.pipeline import run_pipeline
from repro.programs import all_pykernels, get_program, program_names
from tests.reference import reference_rename

UNROLLS = (1, 2, 4)
GENERATED = 100


def lowered_cfg(source, frontend="mini", entry="", unroll=1, cim=False):
    """The CFG that the pipeline's rename pass receives."""
    options = PipelineOptions(
        frontend=frontend, py_entry=entry, unroll=unroll,
        constants_in_memory=cim,
    )
    run = run_pipeline(
        source, options, passes=FRONTENDS[frontend] + (SIMPLIFY,)
    )
    return run.artifact("cfg")


def value_table(renamed):
    return [
        (v.id, v.name, v.origin, v.is_temp, v.def_sites, v.use_sites,
         v.from_entry)
        for v in renamed.values
    ]


def assert_same_renaming(cfg):
    before = cfg.pretty()
    inputs = {id(i) for block in cfg.blocks for i in block.instrs}
    for mode in RENAME_MODES:
        live = rename(cfg, mode)
        ref = reference_rename(cfg, mode)
        assert live.cfg.pretty() == ref.cfg.pretty(), mode
        assert value_table(live) == value_table(ref), mode
        assert cfg.pretty() == before, "rename modified its input"
        assert not any(
            id(i) in inputs for block in live.cfg.blocks for i in block.instrs
        ), "rename shared an instruction with its input"


@pytest.mark.parametrize("cim", [False, True])
@pytest.mark.parametrize("unroll", UNROLLS)
@pytest.mark.parametrize("name", program_names())
def test_registry_renames_like_reference(name, unroll, cim):
    assert_same_renaming(
        lowered_cfg(get_program(name).source, unroll=unroll, cim=cim)
    )


@pytest.mark.parametrize("cim", [False, True])
@pytest.mark.parametrize("name", [spec.name for spec in all_pykernels()])
def test_pykernel_renames_like_reference(name, cim):
    spec = next(s for s in all_pykernels() if s.name == name)
    assert_same_renaming(
        lowered_cfg(spec.source, "python", spec.entry, cim=cim)
    )


@pytest.mark.parametrize("seed", range(GENERATED))
def test_generated_program_renames_like_reference(seed):
    source = random_source(seed)
    for unroll in UNROLLS:
        for cim in (False, True):
            assert_same_renaming(lowered_cfg(source, unroll=unroll, cim=cim))


def one_block_cfg(*instrs, scalars=()):
    block = BasicBlock(0, "entry", [*instrs, tac.Halt()])
    return Cfg("t", [block], {}, list(scalars))


def two_block_cfg(first, second, scalars=()):
    """``first`` then ``second``, each ending in a jump onward."""
    blocks = [
        BasicBlock(0, "b0", [*first, tac.Jump("b1")], [1], []),
        BasicBlock(1, "b1", [*second, tac.Halt()], [], [0]),
    ]
    return Cfg("t", blocks, {}, list(scalars))


T, X = tac.Sym("%t"), tac.Sym("x")


@pytest.mark.parametrize(
    "cfg",
    [
        # a temporary nobody defines
        one_block_cfg(tac.WriteOut(T)),
        # its only definition comes later in the block, with no loop
        one_block_cfg(tac.WriteOut(T), tac.Unary(T, "copy", tac.Const(1))),
        # ... or in a block that cannot reach the use
        two_block_cfg([tac.WriteOut(T)], [tac.Unary(T, "copy", tac.Const(1))]),
        # a multiply-defined temporary with no definition on the way in
        two_block_cfg(
            [tac.WriteOut(T)],
            [tac.Unary(T, "copy", tac.Const(1)),
             tac.Unary(T, "copy", tac.Const(2))],
        ),
    ],
    ids=["undefined", "defined-later", "defined-downstream", "multi-def"],
)
def test_use_reached_by_no_definition_raises_rename_error(cfg):
    for mode in RENAME_MODES:
        with pytest.raises(RenameError, match="no definition of '%t' reaches"):
            rename(cfg, mode)
    with pytest.raises(StopIteration):  # what the reference does
        reference_rename(cfg)


def test_single_definitions_reach_along_edges_and_from_the_entry():
    cfg = two_block_cfg(
        [tac.Unary(T, "copy", tac.Const(1))],
        [tac.WriteOut(T), tac.WriteOut(X)],
        scalars=["x"],
    )
    assert value_table(rename(cfg)) == value_table(reference_rename(cfg))
