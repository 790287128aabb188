"""Compiling and simulating leaves nothing for the cyclic collector.

Reference cycles in product code (a self-recursive closure, say) keep
whole intermediate artifacts alive until the next full collection,
whose pause then lands in whichever layer allocates next.  With the
collector off, a full pipeline run over the six registry programs, its
results dropped, must leave no unreachable object behind.
"""

from __future__ import annotations

import gc

from repro.liw import MachineConfig
from repro.passes.artifacts import PipelineOptions
from repro.pipeline import run_pipeline
from repro.programs import all_programs


def test_compile_and_simulate_leave_no_cyclic_garbage():
    options = PipelineOptions(
        machine=MachineConfig(num_fus=4, num_modules=8), unroll=4,
        constants_in_memory=True, strategy="STOR1", method="hitting_set",
        k=8,
    )
    specs = all_programs()
    gc.collect()
    gc.disable()
    try:
        for spec in specs:
            run = run_pipeline(spec.source, options, inputs=list(spec.inputs))
            assert run.store.get("simulation").outputs  # type: ignore[attr-defined]
            del run
        assert gc.collect() == 0
    finally:
        gc.enable()
