"""The allocation work-unit engine (repro.core.workunits).

Two contracts are pinned here:

1. **Rank-space fragments** — an atom's fingerprint is invariant under
   an order-preserving relabelling, and a fragment round-trips to the
   colouring it was made from.
2. **Rank-space delta reuse** — a structure-preserving relabelling of
   the conflict graph (the effect of editing one region of a program,
   which shifts all later value ids) serves every atom from the delta
   cache, with results identical to a cold run.
"""

import pytest

from repro.core.assign import assign_modules
from repro.core.conflict_graph import ConflictGraph
from repro.core.strategies import run_strategy
from repro.core.workunits import (
    atom_task,
    decomposed_atoms,
    decode_fragment,
    encode_fragment,
    task_fingerprint,
)
from repro.liw.machine import MachineConfig
from repro.passes.delta import DeltaCache, DeltaScope
from repro.pipeline import compile_source
from repro.programs import get_program

# --------------------------------------------------------------------------
# Fragments
# --------------------------------------------------------------------------


def test_fragment_roundtrip_preserves_result():
    from repro.core.coloring import color_atom

    graph = ConflictGraph.from_operand_sets(
        [frozenset({10, 20, 30}), frozenset({20, 30, 40}),
         frozenset({10, 40})]
    )
    task = atom_task(graph, 2, "first", {10})
    direct = color_atom(graph, 2, {}, "first", None, {10})
    decoded = decode_fragment(task, encode_fragment(task, direct))
    assert list(decoded.assignment.items()) == list(
        direct.assignment.items()
    )
    assert decoded.unassigned == direct.unassigned
    assert decoded.trace == direct.trace


def test_task_fingerprint_is_relabel_invariant():
    sets = [frozenset({1, 2, 5}), frozenset({2, 5, 9})]
    shifted = [frozenset(v + 100 for v in s) for s in sets]
    a = atom_task(ConflictGraph.from_operand_sets(sets), 4, "first", {1})
    b = atom_task(
        ConflictGraph.from_operand_sets(shifted), 4, "first", {101}
    )
    assert task_fingerprint(a, {1: 0}) == task_fingerprint(b, {101: 0})
    # ...and a structural change breaks the match
    c = atom_task(
        ConflictGraph.from_operand_sets(sets + [frozenset({1, 9})]),
        4,
        "first",
        {1},
    )
    assert task_fingerprint(a, {}) != task_fingerprint(c, {})


# --------------------------------------------------------------------------
# Delta reuse on relabelled graphs
# --------------------------------------------------------------------------


def _chain_sets(n, base=0):
    """n overlapping triples — several atoms after decomposition."""
    return [
        frozenset({base + i, base + i + 1, base + i + 2})
        for i in range(n)
    ]


def test_relabelled_graph_is_served_from_the_delta_cache():
    cache = DeltaCache()
    cold = assign_modules(_chain_sets(12), 3, seed=7)

    warm_scope = DeltaScope(cache)
    assign_modules(_chain_sets(12), 3, seed=7, delta=warm_scope)
    # the chain's atoms are structurally identical, so even the first
    # run reuses fragments *within* itself — only misses are guaranteed
    assert warm_scope.misses > 0

    hit_scope = DeltaScope(cache)
    shifted = assign_modules(
        _chain_sets(12, base=1000), 3, seed=7, delta=hit_scope
    )
    assert hit_scope.misses == 0 and hit_scope.hits > 0
    # identical structure modulo the relabelling
    assert [
        (v - 1000, m) for v, m in shifted.allocation.history
    ] == cold.allocation.history


def test_delta_hits_preserve_byte_identity():
    """A warm delta cache must not change the result."""
    sets = _chain_sets(10)
    cold = assign_modules(sets, 4, seed=3)
    cache = DeltaCache()
    assign_modules(sets, 4, seed=3, delta=DeltaScope(cache))
    warm = assign_modules(sets, 4, seed=3, delta=DeltaScope(cache))
    assert warm.allocation.history == cold.allocation.history
    assert warm.allocation.as_dict() == cold.allocation.as_dict()


def test_least_used_module_choice_skips_delta_reuse():
    """'least_used' reads the usage vector of earlier atoms, so a
    fragment would not depend on its atom alone."""
    scope = DeltaScope(DeltaCache())
    sets = _chain_sets(10)
    warm = assign_modules(sets, 4, module_choice="least_used", delta=scope)
    assert scope.lookups == 0
    cold = assign_modules(sets, 4, module_choice="least_used")
    assert warm.allocation.history == cold.allocation.history


def test_decomposed_atoms_caches_the_triangulation():
    graph = ConflictGraph.from_operand_sets(_chain_sets(12))
    cache = DeltaCache()
    scope = DeltaScope(cache)
    first = [sorted(a.nodes) for a in decomposed_atoms(graph, delta=scope)]
    assert scope.misses >= 1
    again = DeltaScope(cache)
    second = [sorted(a.nodes) for a in decomposed_atoms(graph, delta=again)]
    assert again.hits >= 1 and again.misses == 0
    assert first == second
    assert first == [
        sorted(a.nodes) for a in decomposed_atoms(graph)
    ]


# --------------------------------------------------------------------------
# Knob validation and unit shape
# --------------------------------------------------------------------------


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
