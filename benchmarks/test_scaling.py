"""Scaling benchmarks: core-algorithm cost as workloads grow.

The paper quotes O((n+e)·log(n+e)) for colouring and polynomial bounds
for duplication/placement; these benchmarks chart the implementation's
cost against instruction-stream size (pytest-benchmark records the
timings; the assertions only guard correctness).  Colouring meets the
paper's bound: the most urgent node comes off a lazy-deletion heap
that re-keys only the neighbours of each coloured node.  The guard
against a quadratic regression is
``tests/core/test_coloring.py::test_coloring_scales_like_the_kernel_build``.
"""

import pytest

from repro.analysis.workloads import random_instructions
from repro.core import (
    ConflictGraph,
    assign_modules,
    color_graph,
    decompose_atoms,
    verify_allocation,
)


@pytest.mark.parametrize("n_instr", [50, 200, 800])
def test_scaling_conflict_graph(benchmark, n_instr):
    sets = random_instructions(n_instr // 2, n_instr, 4, seed=1)
    graph = benchmark(lambda: ConflictGraph.from_operand_sets(sets))
    assert len(graph) > 0
    benchmark.extra_info["nodes"] = len(graph)
    benchmark.extra_info["edges"] = graph.num_edges


@pytest.mark.parametrize("n_instr", [50, 200, 800])
def test_scaling_coloring(benchmark, n_instr):
    sets = random_instructions(n_instr // 2, n_instr, 4, seed=1)
    graph = ConflictGraph.from_operand_sets(sets)
    result = benchmark(lambda: color_graph(graph, 8))
    assert result.is_proper(graph)


@pytest.mark.parametrize("n_instr", [50, 200, 800])
def test_scaling_atoms(benchmark, n_instr):
    sets = random_instructions(n_instr // 2, n_instr, 3, seed=2)
    graph = ConflictGraph.from_operand_sets(sets)
    dec = benchmark(lambda: decompose_atoms(graph))
    assert dec.atoms


@pytest.mark.parametrize("n_instr", [50, 200, 800])
def test_scaling_full_assignment(benchmark, n_instr):
    sets = random_instructions(n_instr // 2, n_instr, 4, seed=3)
    result = benchmark.pedantic(
        lambda: assign_modules(sets, 8), rounds=1, iterations=1
    )
    assert verify_allocation(sets, result.allocation)
    benchmark.extra_info["extra_copies"] = result.allocation.extra_copies


@pytest.mark.parametrize("density", [3, 5, 8])
def test_scaling_with_density(benchmark, density):
    """Fixing size, raising operands-per-instruction: duplication load
    grows as instructions approach width k."""
    sets = random_instructions(40, 150, density, seed=4)
    result = benchmark.pedantic(
        lambda: assign_modules(sets, 8), rounds=1, iterations=1
    )
    assert verify_allocation(sets, result.allocation)
    benchmark.extra_info["extra_copies"] = result.allocation.extra_copies
