"""One conflict kernel per allocation: atom decomposition, Fig. 4
colouring and the edge repair all run on masks over the kernel that
``assign_modules`` builds, never on a rebuilt subgraph."""

import time

import pytest

from repro.core import ConflictGraph, assign_modules, color_graph
from repro.core.bitset import GraphKernel
from repro.lang.generator import random_source
from repro.liw.machine import MachineConfig
from repro.pipeline import compile_source
from repro.programs import get_program

MACHINE = MachineConfig(num_fus=4, num_modules=8)


def _allocation_inputs(source: str, unroll: int):
    compiled = compile_source(
        source, MACHINE, unroll=unroll, constants_in_memory=True
    )
    sets = [frozenset(ops) for ops in compiled.schedule.operand_sets() if ops]
    duplicable = {
        v.id
        for v in compiled.renamed.values
        if (v.def_sites or v.use_sites) and not v.multi_def
    }
    return sets, duplicable


@pytest.fixture
def builds(monkeypatch):
    """Counts of ``GraphKernel`` builds and ``ConflictGraph.subgraph``
    calls while the test runs."""
    counts = {"kernel": 0, "subgraph": 0}
    kernel_init = GraphKernel.__init__
    subgraph = ConflictGraph.subgraph

    def counted_init(self, *args, **kwargs):
        counts["kernel"] += 1
        kernel_init(self, *args, **kwargs)

    def counted_subgraph(self, *args, **kwargs):
        counts["subgraph"] += 1
        return subgraph(self, *args, **kwargs)

    monkeypatch.setattr(GraphKernel, "__init__", counted_init)
    monkeypatch.setattr(ConflictGraph, "subgraph", counted_subgraph)
    return counts


@pytest.mark.parametrize(
    "source,unroll,min_atoms",
    [
        # one 3,217-node component, above the decomposition bound
        (get_program("EXACT").source, 4, 1),
        (get_program("EXACT").source, 1, 50),
        (random_source(7, max_statements=40), 2, 20),
    ],
    ids=["EXACT-unroll4", "EXACT-unroll1", "random_source"],
)
@pytest.mark.parametrize("method", ["hitting_set", "backtrack"])
def test_assign_modules_builds_one_kernel(
    builds, source, unroll, min_atoms, method
):
    sets, duplicable = _allocation_inputs(source, unroll)
    builds["kernel"] = 0
    result = assign_modules(sets, 8, method=method, duplicable=duplicable)
    assert result.coloring.num_atoms >= min_atoms
    assert builds == {"kernel": 1, "subgraph": 0}


def _best_of_3(fn):
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("blocks", [50, 200])
def test_many_atoms_colour_like_the_kernel_build(blocks):
    """A graph of ``blocks`` components, each a chain of 20 triangles
    sharing one vertex with the next (20 atoms, 19 one-vertex
    separators): colouring it stays within a constant factor of building
    its kernel.  Per-atom state sized to the whole graph would make the
    ratio grow with ``blocks``.  Measured in one process, so the bound
    does not depend on the host's speed."""
    sets = [
        frozenset({base + 2 * t, base + 2 * t + 1, base + 2 * t + 2})
        for base in range(0, 50 * blocks, 50)
        for t in range(20)
    ]
    graph = ConflictGraph.from_operand_sets(sets)
    result = color_graph(graph, 8)
    assert result.num_atoms >= 20 * blocks
    assert not result.unassigned
    color = _best_of_3(lambda: color_graph(graph, 8))
    kernel = _best_of_3(lambda: ConflictGraph.from_operand_sets(sets).kernel())
    assert color / kernel <= 60, (blocks, color, kernel)
