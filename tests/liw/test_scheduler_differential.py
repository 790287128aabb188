"""Differential suite: the heap-driven list scheduler against the frozen
sweep-rebuilding reference (``tests/reference.py``).

Both must give the same ``Schedule.pretty()`` text over a machine grid
of FU counts, module counts and memory-port budgets.  ``mem_ports=1``
makes most operations too wide for one instruction, which exercises the
forced-operation path.  Inputs: the registry programs at unroll 2, the
pykernels, generated programs, and one long single-block program.
"""

import pytest

from repro.lang.generator import random_source
from repro.liw import MachineConfig, schedule_program
from repro.pipeline import compile_source
from repro.programs import all_pykernels, get_program, program_names
from repro.server.loadgen import make_program
from tests.reference import reference_schedule_program

GRID = [
    MachineConfig(num_fus=fus, num_modules=modules, mem_ports=ports)
    for fus in (1, 2, 4, 8)
    for modules in (2, 4, 8)
    for ports in (None, 1, 2, 3)
]
GENERATED = 10


def assert_same_schedules(source, **options):
    renamed = compile_source(
        source, constants_in_memory=True, **options
    ).renamed
    for machine in GRID:
        live = schedule_program(renamed, machine)
        ref = reference_schedule_program(renamed, machine)
        assert live.pretty() == ref.pretty(), machine


@pytest.mark.parametrize("name", program_names())
def test_registry_schedules_like_reference(name):
    assert_same_schedules(get_program(name).source, unroll=2)


@pytest.mark.parametrize("name", [spec.name for spec in all_pykernels()])
def test_pykernel_schedules_like_reference(name):
    spec = next(s for s in all_pykernels() if s.name == name)
    assert_same_schedules(spec.source, frontend="python", py_entry=spec.entry)


@pytest.mark.parametrize("seed", range(GENERATED))
def test_generated_program_schedules_like_reference(seed):
    assert_same_schedules(random_source(seed), unroll=2)


def test_long_block_schedules_like_reference():
    assert_same_schedules(make_program(1, 25))
