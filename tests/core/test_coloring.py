"""Unit and property tests for the Fig. 4 colouring heuristic."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.workloads import random_instructions
from repro.core import ConflictGraph, color_atom, color_graph
from repro.core.reference import ReferenceConflictGraph, reference_color_atom


def graph_of(sets):
    return ConflictGraph.from_operand_sets(sets)


def test_triangle_three_colors():
    g = graph_of([{1, 2, 3}])
    res = color_graph(g, 3)
    assert not res.unassigned
    assert len({res.assignment[v] for v in (1, 2, 3)}) == 3


def test_triangle_two_colors_removes_one():
    g = graph_of([{1, 2, 3}])
    res = color_graph(g, 2)
    assert len(res.unassigned) == 1
    assert len(res.assignment) == 2
    assert res.is_proper(g)


def test_first_node_is_max_weight_and_gets_m1():
    # V1 participates in the most conflicts
    g = graph_of([{1, 2}, {1, 3}, {1, 4}, {1, 2}, {2, 3}, {3, 4}, {2, 4}])
    res = color_atom(g, 3)
    first_step = res.trace[0]
    assert first_step.action == "first"
    assert first_step.node == 1
    assert first_step.module == 0


def test_low_degree_nodes_have_zero_outgoing_weight():
    # a pendant node (degree < k) must never be picked first
    g = graph_of([{1, 2}, {2, 3}, {1, 3}, {3, 4}])
    res = color_atom(g, 3)
    assert res.trace[0].node != 4


def test_k0_node_removed():
    # star centre with k distinctly coloured neighbours around it
    g = graph_of([{0, 1, 2}, {0, 1, 2}])  # triangle with high conf
    res = color_graph(g, 2)
    assert len(res.unassigned) == 1


def test_preassigned_respected():
    g = graph_of([{1, 2}, {2, 3}])
    res = color_atom(g, 3, preassigned={2: 1})
    assert res.assignment[2] == 1
    assert res.assignment[1] != 1
    assert res.assignment[3] != 1


def test_module_choice_least_used_spreads():
    # independent nodes: 'first' stacks everything on M1, 'least_used'
    # spreads across modules
    g = graph_of([{i} for i in range(6)])
    first = color_graph(g, 3, module_choice="first")
    spread = color_graph(g, 3, module_choice="least_used")
    assert len(set(first.assignment.values())) == 1
    assert len(set(spread.assignment.values())) == 3


def test_atoms_and_whole_graph_agree_on_properness():
    sets = [{1, 2, 3}, {3, 4, 5}, {5, 6, 7}, {1, 6}]
    g = graph_of(sets)
    with_atoms = color_graph(g, 3, use_atoms=True)
    without = color_graph(g, 3, use_atoms=False)
    assert with_atoms.is_proper(g)
    assert without.is_proper(g)


def test_empty_graph():
    g = ConflictGraph()
    res = color_graph(g, 4)
    assert res.assignment == {}
    assert res.unassigned == []


def test_trace_records_every_node_once():
    sets = [{1, 2, 3}, {2, 3, 4}, {1, 4}]
    g = graph_of(sets)
    res = color_graph(g, 2)
    acted = [s.node for s in res.trace if s.action in ("first", "assigned", "removed")]
    assert sorted(set(acted)) == sorted(g.nodes)


@st.composite
def random_operand_sets(draw):
    n_instr = draw(st.integers(1, 15))
    return [
        draw(st.frozensets(st.integers(0, 10), min_size=2, max_size=4))
        for _ in range(n_instr)
    ]


@settings(max_examples=80, deadline=None)
@given(random_operand_sets(), st.integers(2, 5), st.booleans())
def test_coloring_always_proper(sets, k, use_atoms):
    g = graph_of(sets)
    res = color_graph(g, k, use_atoms=use_atoms)
    assert res.is_proper(g)
    # every node is either coloured or removed, never both
    assert set(res.assignment) | set(res.unassigned) == g.nodes
    assert not (set(res.assignment) & set(res.unassigned))
    # colours are valid module indices
    assert all(0 <= c < k for c in res.assignment.values())


@settings(max_examples=40, deadline=None)
@given(random_operand_sets(), st.integers(2, 4))
def test_coloring_deterministic(sets, k):
    g = graph_of(sets)
    a = color_graph(g, k)
    b = color_graph(g, k)
    assert a.assignment == b.assignment
    assert a.unassigned == b.unassigned


@settings(max_examples=40, deadline=None)
@given(random_operand_sets(), st.integers(2, 4))
def test_preassignment_is_stable(sets, k):
    g = graph_of(sets)
    first_pass = color_graph(g, k)
    pre = dict(list(first_pass.assignment.items())[:2])
    second = color_graph(g, k, preassigned=pre)
    for v, c in pre.items():
        assert second.assignment.get(v) == c


def test_conflicting_preassignment_demoted():
    # two adjacent nodes preassigned the same module: one must be demoted
    g = graph_of([{1, 2}])
    res = color_graph(g, 3, preassigned={1: 0, 2: 0})
    assert res.is_proper(g)
    assert len(res.unassigned) == 1


# --------------------------------------------------------------------------
# color_atom against the frozen reference, over every option
# --------------------------------------------------------------------------

#: Preassigned ids that lie outside every generated atom.
OUTSIDE = 10**6


def _atom_sets(kind, rng):
    """Operand sets (and weights, or None) of one atom of 50-400 nodes.

    ``random`` has unit weights; ``weighted`` repeats operand sets and
    weighs instructions 0-3; ``ties`` is a circulant graph, where every
    node looks alike, so most decisions are tie-breaks."""
    n = rng.randint(50, 400)
    if kind == "ties":
        width = rng.randint(2, 4)
        return [
            frozenset((i + d) % n for d in range(width)) for i in range(n)
        ], None
    sets = [
        frozenset(rng.sample(range(n), rng.randint(2, 5)))
        for _ in range(rng.randint(n, 2 * n))
    ]
    sets += [frozenset({v}) for v in range(n)]  # every value is a node
    if kind == "weighted":
        sets += rng.sample(sets, len(sets) // 4)
        return sets, [rng.randint(0, 3) for _ in sets]
    return sets, None


def _options(option, nodes, k, rng):
    """``color_atom`` keyword arguments for one option under test."""
    def some(fraction):
        return set(rng.sample(nodes, max(1, int(len(nodes) * fraction))))

    if option == "prefer":
        return {"prefer": some(0.25) | {OUTSIDE}}
    if option == "preassigned":
        return {
            "preassigned": {v: rng.randrange(k) for v in some(0.1)},
            "prefer": some(0.2),
        }
    if option == "outside":
        # A non-empty dict skips the "first" step even though none of
        # its nodes is in the atom.
        return {"preassigned": {OUTSIDE + m: m for m in range(k)}}
    if option == "least_used":
        return {
            "module_choice": "least_used",
            "preassigned": {v: rng.randrange(k) for v in some(0.05)},
            "prefer": some(0.2),
        }
    return {}


@pytest.mark.parametrize(
    "option", ["default", "prefer", "preassigned", "outside", "least_used"]
)
@pytest.mark.parametrize("kind", ["random", "weighted", "ties"])
@pytest.mark.parametrize("k", [2, 3, 4, 8])
def test_color_atom_matches_reference(k, kind, option):
    """Two atoms coloured in turn with one shared ``module_use``: the
    assignment, the ``unassigned`` order, every trace step and the final
    usage counts equal the reference's."""
    rng = random.Random(f"{k}/{kind}/{option}")
    start_use = [rng.randrange(5) for _ in range(k)]
    live_use, ref_use = list(start_use), list(start_use)
    for _ in range(2):
        sets, weights = _atom_sets(kind, rng)
        live_graph = ConflictGraph.from_operand_sets(sets, weights)
        ref_graph = ReferenceConflictGraph.from_operand_sets(sets, weights)
        kwargs = _options(option, sorted(ref_graph.nodes), k, rng)
        live = color_atom(live_graph, k, module_use=live_use, **kwargs)
        ref = reference_color_atom(ref_graph, k, module_use=ref_use, **kwargs)
        assert live.assignment == ref.assignment
        assert live.unassigned == ref.unassigned
        assert live.trace == ref.trace
        assert live_use == ref_use


# --------------------------------------------------------------------------
# Scaling
# --------------------------------------------------------------------------


def _best_of_3(fn):
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("n", [1000, 4000])
def test_coloring_scales_like_the_kernel_build(n):
    """Fig. 4 colouring stays within a constant factor of building the
    graph's bitmask kernel, which is linear in the instructions.  A
    per-step scan of every uncoloured node (O(n^2)) gives ratios of
    about 25 and 80 here; the urgency heap about 5 at both sizes.  The
    ratio is taken in one process, so it does not depend on the host's
    speed."""
    sets = random_instructions(n, 2 * n, 4, seed=1)
    graph = ConflictGraph.from_operand_sets(sets)
    color = _best_of_3(lambda: color_atom(graph, 8))
    kernel = _best_of_3(lambda: ConflictGraph.from_operand_sets(sets).kernel())
    assert color / kernel <= 15, (n, color, kernel)
