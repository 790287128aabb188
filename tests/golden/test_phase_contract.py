"""What every STOR strategy computes, phase by phase.

For each strategy (STOR1, STOR2, STOR3 at two and four groups,
STOR-REGION and the profile-guided STOR1) this pins the canonical
:func:`~repro.service.cache.encode_storage_result` JSON (as a SHA-256)
and the strategy's stage events as ``(name, counts)`` pairs, on
TAYLOR2, FFT and SORT at unroll 1 and 2 with memory-resident constants,
k=8 and both duplication methods.  Stage wall times are not pinned.

Regenerate ``phases.json`` (only when a change means to alter results,
and say so in the change log)::

    PYTHONPATH=src python -m tests.golden.test_phase_contract
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterator

import pytest

from repro.core import profile_guided_stor1, run_strategy
from repro.liw.machine import MachineConfig
from repro.pipeline import compile_source
from repro.programs import get_program
from repro.service.cache import encode_storage_result

SNAPSHOT = Path(__file__).with_name("phases.json")

K = 8
PROGRAMS = ("TAYLOR2", "FFT", "SORT")
UNROLLS = (1, 2)
METHODS = ("backtrack", "hitting_set")
#: ``(cell label, strategy, extra knobs)``; ``None`` is the profiled run.
RUNS = (
    ("STOR1", "STOR1", {}),
    ("STOR2", "STOR2", {}),
    ("STOR3-groups2", "STOR3", {"groups": 2}),
    ("STOR3-groups4", "STOR3", {"groups": 4}),
    ("STOR-REGION", "STOR-REGION", {}),
    ("STOR1-profiled", None, {}),
)


def _programs() -> Iterator[tuple[str, object, tuple[object, ...]]]:
    for name in PROGRAMS:
        spec = get_program(name)
        for unroll in UNROLLS:
            program = compile_source(
                spec.source, MachineConfig(), unroll=unroll,
                constants_in_memory=True,
            )
            yield f"{name}/unroll{unroll}", program, spec.inputs


def _cell(storage) -> dict[str, object]:
    encoded = json.dumps(
        encode_storage_result(storage), sort_keys=True, separators=(",", ":")
    ).encode()
    return {
        "storage_sha256": hashlib.sha256(encoded).hexdigest(),
        "events": [[e.name, dict(e.counts)] for e in storage.events],
    }


def compute_all() -> dict[str, dict[str, object]]:
    cells: dict[str, dict[str, object]] = {}
    for label, program, inputs in _programs():
        for method in METHODS:
            for run, strategy, knobs in RUNS:
                if strategy is None:
                    storage = profile_guided_stor1(
                        program.schedule, program.renamed, list(inputs),
                        K, method=method,
                    )
                else:
                    storage = run_strategy(
                        strategy, program.schedule, program.renamed, K,
                        method=method, **knobs,
                    )
                cells[f"{label}/{method}/{run}"] = _cell(storage)
    return cells


@pytest.fixture(scope="module")
def computed() -> dict[str, dict[str, object]]:
    return compute_all()


def test_phase_contract_matches_snapshot(computed):
    want = json.loads(SNAPSHOT.read_text())
    assert sorted(computed) == sorted(want)
    problems = [
        f"{cell}: {field}"
        for cell in sorted(want)
        for field in ("storage_sha256", "events")
        if want[cell][field] != computed[cell][field]
    ]
    assert not problems, (
        f"{len(problems)} phase-contract difference(s):\n" + "\n".join(problems)
    )


if __name__ == "__main__":
    SNAPSHOT.write_text(
        json.dumps(compute_all(), indent=1, sort_keys=True) + "\n"
    )
