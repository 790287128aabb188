"""Middle-end passes: unrolling, lowering + CFG, simplification, renaming.

Pass wrappers over :mod:`repro.ir.unroll`, :mod:`repro.ir.builder` /
:mod:`repro.ir.cfg`, :mod:`repro.ir.simplify`, and
:mod:`repro.ir.rename`.  The ``lower`` pass fuses AST lowering and CFG
construction — exactly the granularity the pre-pass-manager pipeline
timed as its "lower" stage.
"""

from __future__ import annotations

from ..passes.artifacts import PipelineOptions
from ..passes.manager import Pass, PassContext
from .builder import lower_ast
from .cfg import build_cfg
from .rename import rename
from .simplify import simplify_cfg
from .unroll import unroll_program


def _run_unroll(ctx: PassContext) -> None:
    opts = ctx.options
    tree = unroll_program(
        ctx.get("ast"),  # type: ignore[arg-type]
        opts.unroll,
        opts.unroll_innermost_only,
    )
    ctx.set("ast", tree)
    ctx.count("factor", opts.unroll)


def _run_lower(ctx: PassContext) -> None:
    opts = ctx.options
    tac_prog = lower_ast(
        ctx.get("ast"),  # type: ignore[arg-type]
        opts.constants_in_memory,
        opts.immediate_limit,
    )
    cfg = build_cfg(tac_prog)
    ctx.set("tac", tac_prog)
    ctx.set("cfg", cfg)
    ctx.count("blocks", len(cfg.blocks))


def _run_simplify(ctx: PassContext) -> None:
    before = len(ctx.get("cfg").blocks)  # type: ignore[attr-defined]
    cfg = simplify_cfg(ctx.get("cfg"))  # type: ignore[arg-type]
    ctx.set("cfg", cfg)
    ctx.count("blocks", len(cfg.blocks))
    ctx.count("blocks_removed", before - len(cfg.blocks))


def _run_rename(ctx: PassContext) -> None:
    renamed = rename(
        ctx.get("cfg"),  # type: ignore[arg-type]
        mode=ctx.options.rename_mode,
    )
    ctx.set("renamed", renamed)
    ctx.count("values", len(renamed.values))


def _unroll_enabled(options: PipelineOptions) -> bool:
    return options.unroll > 1


def _simplify_enabled(options: PipelineOptions) -> bool:
    return options.simplify


UNROLL = Pass(
    name="unroll",
    run=_run_unroll,
    reads=("ast",),
    writes=("ast",),
    config_keys=("unroll", "unroll_innermost_only"),
    enabled=_unroll_enabled,
)

LOWER = Pass(
    name="lower",
    run=_run_lower,
    reads=("ast",),
    writes=("tac", "cfg"),
    config_keys=("constants_in_memory", "immediate_limit"),
)

SIMPLIFY = Pass(
    name="simplify",
    run=_run_simplify,
    reads=("cfg",),
    writes=("cfg",),
    config_keys=("simplify",),
    enabled=_simplify_enabled,
)

RENAME = Pass(
    name="rename",
    run=_run_rename,
    reads=("cfg",),
    writes=("renamed",),
    config_keys=("rename_mode",),
)
