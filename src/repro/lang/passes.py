"""Front-end passes: parsing and semantic analysis.

Pass wrappers over :func:`repro.lang.parser.parse` and
:func:`repro.lang.sema.analyze`; :mod:`repro.passes.registry` places them
in the ``mini`` frontend's pipelines.
"""

from __future__ import annotations

from ..passes.manager import Pass, PassContext
from .parser import parse
from .sema import analyze


def _run_parse(ctx: PassContext) -> None:
    tree = parse(ctx.get("source"))  # type: ignore[arg-type]
    ctx.set("ast", tree)
    ctx.count("declarations", len(tree.decls))
    ctx.count("statements", len(tree.body.body))


def _run_sema(ctx: PassContext) -> None:
    symbols = analyze(ctx.get("ast"))  # type: ignore[arg-type]
    ctx.set("symbols", symbols)


PARSE = Pass(
    name="parse",
    run=_run_parse,
    reads=("source",),
    writes=("ast",),
)

SEMA = Pass(
    name="sema",
    run=_run_sema,
    reads=("ast",),
    writes=("symbols",),
)
