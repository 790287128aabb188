"""Every pass leaves the artifacts it reads unchanged.

An :class:`ArtifactCache` shares artifacts by reference between runs,
so a pass that edited its input would corrupt the cached output of an
earlier pass.  Each test here snapshots a pass's inputs (as pickles)
before it runs and compares them afterwards.  ``sema`` is the one
stated exception: it writes type annotations into the AST, and those
writes are idempotent.
"""

import pickle
from dataclasses import replace

import pytest

from repro.lang.parser import parse
from repro.lang.sema import analyze
from repro.liw.machine import MachineConfig
from repro.passes.artifacts import PipelineOptions
from repro.passes.cache import ArtifactCache
from repro.passes.registry import full_pipeline_for
from repro.pipeline import compile_source, run_pipeline
from repro.programs import get_program

SPEC = get_program("TAYLOR1")
MACHINE = MachineConfig(num_fus=4, num_modules=8)


def _checked(p, changed: list[str]):
    """``p`` with a run function that records each read artifact the
    pass changed."""

    def run(ctx):
        # Some passes write back under the name they read ("ast",
        # "cfg"), so hold on to the input objects themselves.
        inputs = {r: ctx.get(r) for r in p.reads}
        before = {r: pickle.dumps(value) for r, value in inputs.items()}
        p.run(ctx)
        for r, value in inputs.items():
            if pickle.dumps(value) != before[r]:
                changed.append(f"{p.name} changed {r}")

    return replace(p, run=run)


@pytest.mark.parametrize("unroll", [1, 2, 4])
def test_no_pass_changes_what_it_reads(unroll):
    changed: list[str] = []
    passes = tuple(
        p if p.name == "sema" else _checked(p, changed)
        for p in full_pipeline_for()
    )
    options = PipelineOptions(
        machine=MACHINE, unroll=unroll, constants_in_memory=True,
        array_layout="optimize",
    )
    run_pipeline(SPEC.source, options, passes=passes,
                 inputs=list(SPEC.inputs))
    assert changed == []


def test_sema_annotations_are_idempotent():
    tree = parse(SPEC.source)
    analyze(tree)
    once = pickle.dumps(tree)
    analyze(tree)
    assert pickle.dumps(tree) == once


def test_shared_cache_unroll_sequence_matches_cold():
    """The front end at one unroll factor, then another, through one
    cache: the second compile equals a cold one."""
    cache = ArtifactCache()
    compile_source(SPEC.source, MACHINE, unroll=2, cache=cache)
    warm = compile_source(SPEC.source, MACHINE, unroll=4, cache=cache)
    cold = compile_source(SPEC.source, MACHINE, unroll=4)
    assert len(warm.renamed.values) == len(cold.renamed.values)
    assert warm.cfg.pretty() == cold.cfg.pretty()
