"""What the array-layout optimizer plans for the ``sim-arrays`` corpus.

For the six registry programs and every pykernel (python frontend),
compiled with memory-resident constants, STOR2 and hitting-set
duplication on a four-FU machine at k 4 and 8 and unroll 1 and 2, this
pins the ``repr`` of :func:`~repro.core.arraylayout.optimize_arrays`'s
:class:`~repro.core.arraylayout.ArrayLayoutPlan`: the specs, the moves,
the unrounded ``predicted_before``/``predicted_after`` and the
``affine_fraction``.

Regenerate ``array_plans.json`` (only when a change means to alter
plans, and say so in the change log)::

    PYTHONPATH=src python -m tests.golden.test_array_plan_contract
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

import pytest

from repro.core.arraylayout import optimize_arrays
from repro.liw.machine import MachineConfig
from repro.passes.artifacts import PipelineOptions
from repro.pipeline import run_pipeline
from repro.programs import all_programs, all_pykernels

SNAPSHOT = Path(__file__).with_name("array_plans.json")

KS = (4, 8)
UNROLLS = (1, 2)


def corpus() -> Iterator[tuple[str, object, object]]:
    """``(cell id, schedule, storage)`` for every cell, in snapshot
    order."""
    for k in KS:
        for unroll in UNROLLS:
            knobs = dict(
                machine=MachineConfig(num_fus=4, num_modules=k),
                constants_in_memory=True, strategy="STOR2",
                method="hitting_set", k=k, unroll=unroll,
            )
            sources = [
                (spec.name, spec.source, PipelineOptions(**knobs))
                for spec in all_programs()
            ] + [
                (
                    f"py.{kernel.name}", kernel.source,
                    PipelineOptions(
                        frontend="python", py_entry=kernel.entry, **knobs
                    ),
                )
                for kernel in all_pykernels()
            ]
            for name, source, options in sources:
                run = run_pipeline(source, options)
                yield (
                    f"{name}/k{k}/unroll{unroll}",
                    run.artifact("schedule"),
                    run.artifact("storage"),
                )


def compute_all() -> dict[str, str]:
    return {
        cell: repr(optimize_arrays(schedule, storage))
        for cell, schedule, storage in corpus()
    }


@pytest.fixture(scope="module")
def computed() -> dict[str, str]:
    return compute_all()


def test_corpus_is_the_sim_arrays_grid(computed):
    assert len(computed) == len(KS) * len(UNROLLS) * (
        len(all_programs()) + len(all_pykernels())
    ) == 72


def test_array_plans_match_snapshot(computed):
    want = json.loads(SNAPSHOT.read_text())
    assert sorted(computed) == sorted(want)
    problems = [
        f"{cell}:\n  want {want[cell]}\n  got  {computed[cell]}"
        for cell in sorted(want)
        if want[cell] != computed[cell]
    ]
    assert not problems, (
        f"{len(problems)} array-plan difference(s):\n" + "\n".join(problems)
    )


if __name__ == "__main__":
    SNAPSHOT.write_text(
        json.dumps(compute_all(), indent=1, sort_keys=True) + "\n"
    )
