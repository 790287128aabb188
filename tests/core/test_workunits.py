"""The allocation work-unit engine (repro.core.workunits): knob
validation and the unit shape the ``max_atom_nodes`` bound gives."""

import pytest

from repro.core.strategies import run_strategy
from repro.liw.machine import MachineConfig
from repro.pipeline import compile_source
from repro.programs import get_program


@pytest.fixture(scope="module")
def taylor1():
    return compile_source(
        get_program("TAYLOR1").source,
        MachineConfig(num_fus=4, num_modules=4),
        constants_in_memory=True,
    )


def test_run_strategy_rejects_bad_runner(taylor1):
    # atoms are always coloured serially: no runner argument exists
    with pytest.raises(ValueError, match="unknown STOR1 option.*'runner'"):
        run_strategy(
            "STOR1", taylor1.schedule, taylor1.renamed, runner="serial"
        )


def test_run_strategy_rejects_delta(taylor1):
    # atoms are always coloured directly: no delta argument exists
    with pytest.raises(ValueError, match="unknown STOR1 option.*'delta'"):
        run_strategy(
            "STOR1", taylor1.schedule, taylor1.renamed, delta=None
        )


@pytest.mark.parametrize("bad", [0, -3, True, "8"])
def test_run_strategy_rejects_bad_max_atom_nodes(taylor1, bad):
    program = taylor1
    with pytest.raises(ValueError, match="max_atom_nodes"):
        run_strategy(
            "STOR1", program.schedule, program.renamed, max_atom_nodes=bad
        )


def test_max_atom_nodes_changes_unit_shape(taylor1):
    """A tiny bound makes oversized components whole-graph units."""
    program = taylor1
    bounded = run_strategy(
        "STOR1", program.schedule, program.renamed, max_atom_nodes=3
    )
    unbounded = run_strategy("STOR1", program.schedule, program.renamed)
    assert (
        sum(s.stats.atom_units for s in bounded.stages)
        <= sum(s.stats.atom_units for s in unbounded.stages)
    )
    # the allocation stays total and conflict-free either way
    assert not bounded.residual_instructions
