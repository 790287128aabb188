"""The refactor contract: what every golden cell of the compiler computes.

One cell is one compile of one program under one knob setting, run
through the full pipeline (simulation included) and through the batch
service's key derivation.  It records:

- ``storage_sha256`` — SHA-256 of the canonical
  :func:`~repro.service.cache.encode_storage_result` JSON;
- ``fingerprints`` — every pass's chained fingerprint;
- ``source_key`` / ``job_key`` — the batch service's two cache keys;
- ``singles`` / ``multiples`` — the Table 1 columns;
- ``cycles`` / ``stall_time`` — simulated on the program's inputs
  (under the array-layout plan when the cell optimizes layouts).

The grid is the six registry programs x STOR1/STOR2/STOR3/STOR-REGION x
backtrack/hitting_set x unroll 1 and 2 (memory-resident constants, the
paper's configuration), plus the Table 1 row: the six registry
programs x STOR1 x backtrack/hitting_set at unroll 4, plus every
pykernel through the python frontend at STOR2/hitting_set with
``array_layout="optimize"`` and memory-resident constants; all at k=8.

Regenerate ``registry.json`` (only when a change means to alter
results, and say so in the change log)::

    PYTHONPATH=src python -m tests.golden.snapshot
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterator

from repro.liw.machine import MachineConfig
from repro.passes.cache import ArtifactCache
from repro.passes.events import Metrics
from repro.pipeline import run_pipeline
from repro.programs import all_programs, all_pykernels
from repro.service.batch import BatchJob, _compile_and_key
from repro.service.cache import encode_storage_result

SNAPSHOT = Path(__file__).with_name("registry.json")

K = 8
STRATEGIES = ("STOR1", "STOR2", "STOR3", "STOR-REGION")
METHODS = ("backtrack", "hitting_set")
UNROLLS = (1, 2)
#: The Table 1 setting: STOR1 at unroll 4, both duplication methods.
TABLE1 = ("STOR1", 4)


def grid() -> Iterator[tuple[str, BatchJob, tuple[object, ...]]]:
    """``(cell id, job, inputs)`` for every cell, in snapshot order."""
    settings = [
        (strategy, method, unroll)
        for strategy in STRATEGIES
        for method in METHODS
        for unroll in UNROLLS
    ]
    settings += [(TABLE1[0], method, TABLE1[1]) for method in METHODS]
    for spec in all_programs():
        for strategy, method, unroll in settings:
            job = BatchJob(
                spec.name, spec.source, MachineConfig(),
                strategy=strategy, method=method, unroll=unroll,
                constants_in_memory=True, k=K,
            )
            cell = f"{spec.name}/{strategy}/{method}/unroll{unroll}"
            yield cell, job, spec.inputs
    for kernel in all_pykernels():
        job = BatchJob(
            kernel.name, kernel.source, MachineConfig(),
            strategy="STOR2", method="hitting_set",
            constants_in_memory=True, k=K, array_layout="optimize",
            frontend="python", entry=kernel.entry,
        )
        yield f"python/{kernel.name}", job, kernel.inputs


def compute_cell(job: BatchJob, inputs: tuple[object, ...]) -> dict[str, object]:
    # The key derivation reuses the run's front-end artifacts, so the
    # cell pays for one compile.
    artifacts = ArtifactCache()
    run = run_pipeline(
        job.source, job.options(), inputs=list(inputs), cache=artifacts
    )
    storage = run.artifact("storage")
    sim = run.artifact("simulation")
    _, key = _compile_and_key(job, Metrics(), artifacts)
    encoded = json.dumps(
        encode_storage_result(storage), sort_keys=True, separators=(",", ":")
    ).encode()
    return {
        "storage_sha256": hashlib.sha256(encoded).hexdigest(),
        "fingerprints": dict(run.fingerprints),
        "source_key": job.source_key(),
        "job_key": key,
        "singles": storage.singles,  # type: ignore[attr-defined]
        "multiples": storage.multiples,  # type: ignore[attr-defined]
        "cycles": sim.cycles,  # type: ignore[attr-defined]
        "stall_time": sim.memory.stall_time,  # type: ignore[attr-defined]
    }


def compute_all() -> dict[str, dict[str, object]]:
    return {cell: compute_cell(job, inputs) for cell, job, inputs in grid()}


def load() -> dict[str, dict[str, object]]:
    return json.loads(SNAPSHOT.read_text())["cells"]


def write(cells: dict[str, dict[str, object]]) -> None:
    payload = {"k": K, "cells": cells}
    SNAPSHOT.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    computed = compute_all()
    write(computed)
    print(f"wrote {len(computed)} cells to {SNAPSHOT}")
