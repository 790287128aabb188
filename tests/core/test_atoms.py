"""Unit and property tests for MCS-M and atom decomposition."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.workunits as workunits
from repro.core import ConflictGraph, decompose_atoms
from repro.core.atoms import _mcs_m_masks
from repro.core.bitset import iter_bits
from repro.lang.generator import random_source
from repro.liw.machine import MachineConfig
from repro.passes.artifacts import PipelineOptions
from repro.pipeline import run_pipeline
from repro.programs import all_programs
from tests.reference import ReferenceConflictGraph, reference_decompose_atoms


def graph_from_edges(edges):
    return ConflictGraph.from_operand_sets([{u, v} for u, v in edges])


def mcs_m(graph: ConflictGraph) -> tuple[dict[int, set[int]], list[int]]:
    """MCS-M over the whole graph in node ids: ``(fill_adjacency,
    order)``, the adjacency of the triangulation H (a superset of G's)
    and the elimination order (``order[0]`` eliminated first)."""
    kern = graph.kernel()
    h_rows, numbering = _mcs_m_masks(kern, kern.index.universe_mask)
    ids = kern.index.ids
    h_adj = {
        ids[i]: {ids[j] for j in iter_bits(h_rows[i])}
        for i in range(len(ids))
    }
    return h_adj, [ids[b] for b in reversed(numbering)]


def has_clique_separator(graph: ConflictGraph) -> bool:
    """Whether a connected graph has a clique separator: whether the
    unbounded decomposition splits it."""
    return len(decompose_atoms(graph, 10**6).masks) > 1


def is_chordal(adj):
    """Brute-force chordality: every cycle >= 4 has a chord.  Checked via
    perfect elimination order search (small graphs only)."""
    adj = {v: set(ns) for v, ns in adj.items()}
    while adj:
        simplicial = None
        for v, ns in adj.items():
            if all(b in adj[a] for a in ns for b in ns if a < b):
                simplicial = v
                break
        if simplicial is None:
            return False
        for u in adj[simplicial]:
            adj[u].discard(simplicial)
        del adj[simplicial]
    return True


# ---------------------------------------------------------------------------
# MCS-M
# ---------------------------------------------------------------------------


def test_mcs_m_on_chordal_graph_adds_no_fill():
    # a tree is chordal: MCS-M must not add fill edges
    g = graph_from_edges([(0, 1), (1, 2), (1, 3), (3, 4)])
    h_adj, order = mcs_m(g)
    assert all(h_adj[v] == g.adj[v] for v in g.nodes)
    assert len(order) == len(g.nodes)


def test_mcs_m_triangulates_cycle():
    g = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
    h_adj, _ = mcs_m(g)
    added = sum(len(h_adj[v] - g.adj[v]) for v in g.nodes) // 2
    assert added == 1  # C4 needs exactly one chord


def test_mcs_m_result_is_chordal_c5():
    g = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    h_adj, _ = mcs_m(g)
    assert is_chordal(h_adj)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(
            lambda e: e[0] != e[1]
        ),
        min_size=1,
        max_size=16,
    )
)
def test_mcs_m_always_chordal(edges):
    g = graph_from_edges(edges)
    h_adj, order = mcs_m(g)
    assert is_chordal({v: set(ns) for v, ns in h_adj.items()})
    assert sorted(order) == sorted(g.nodes)
    # fill only adds edges
    for v in g.nodes:
        assert g.adj[v] <= h_adj[v]


# ---------------------------------------------------------------------------
# Atom decomposition
# ---------------------------------------------------------------------------


def brute_force_has_clique_separator(g: ConflictGraph) -> bool:
    nodes = sorted(g.nodes)
    if len(nodes) <= 2:
        return False
    for r in range(0, len(nodes) - 1):
        for sep in itertools.combinations(nodes, r):
            sep_set = set(sep)
            if not g.is_clique(sep_set):
                continue
            rest = [v for v in nodes if v not in sep_set]
            if not rest:
                continue
            # connected components of g - sep
            comp = set()
            stack = [rest[0]]
            while stack:
                v = stack.pop()
                if v in comp or v in sep_set:
                    continue
                comp.add(v)
                stack.extend(g.adj[v] - comp - sep_set)
            if len(comp) < len(rest):
                return True
    return False


def test_clique_splits_path():
    # path a-b-c: b is a clique separator
    g = graph_from_edges([(0, 1), (1, 2)])
    dec = decompose_atoms(g)
    assert len(dec.atoms) == 2
    assert frozenset({1}) in dec.separators


def test_cycle_is_an_atom():
    g = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
    dec = decompose_atoms(g)
    assert len(dec.atoms) == 1
    assert dec.atoms[0].nodes == {0, 1, 2, 3}


def test_two_triangles_sharing_edge_split():
    g = graph_from_edges(
        [(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)]
    )
    dec = decompose_atoms(g)
    assert len(dec.atoms) == 2
    assert frozenset({1, 2}) in dec.separators


def test_disconnected_components_split():
    g = graph_from_edges([(0, 1), (2, 3)])
    dec = decompose_atoms(g)
    assert len(dec.atoms) == 2
    assert frozenset() in dec.separators


def test_max_nodes_skips_decomposition():
    g = graph_from_edges([(0, 1), (1, 2)])
    dec = decompose_atoms(g, max_nodes=2)
    assert len(dec.atoms) == 1  # component too large to decompose


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(
            lambda e: e[0] != e[1]
        ),
        min_size=1,
        max_size=12,
    )
)
def test_atoms_have_no_clique_separator(edges):
    g = graph_from_edges(edges)
    dec = decompose_atoms(g)
    for atom in dec.atoms:
        assert not brute_force_has_clique_separator(atom)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(
            lambda e: e[0] != e[1]
        ),
        min_size=1,
        max_size=14,
    )
)
def test_atoms_cover_all_edges_and_nodes(edges):
    g = graph_from_edges(edges)
    dec = decompose_atoms(g)
    covered_nodes = set().union(*(a.nodes for a in dec.atoms))
    assert covered_nodes == g.nodes
    for u, v in g.edges():
        assert any(
            u in a.nodes and v in a.nodes and a.has_edge(u, v)
            for a in dec.atoms
        )


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(
            lambda e: e[0] != e[1]
        ),
        min_size=1,
        max_size=12,
    )
)
def test_has_clique_separator_matches_brute_force(edges):
    g = graph_from_edges(edges)
    # Restrict to connected graphs: the helper treats disconnection
    # separately.
    if len(g.components()) != 1:
        return
    assert has_clique_separator(g) == brute_force_has_clique_separator(g)


def assert_running_intersection(g: ConflictGraph) -> None:
    # For every atom, its overlap with the union of earlier atoms must be
    # a clique (what the sequential colouring composition relies on).
    seen: set[int] = set()
    for atom in decompose_atoms(g).atoms:
        overlap = atom.nodes & seen
        assert g.is_clique(overlap), overlap
        seen |= atom.nodes


def test_atom_order_has_running_intersection():
    assert_running_intersection(graph_from_edges(
        [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5), (5, 6), (4, 6), (1, 7)]
    ))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.sets(st.integers(0, 17), min_size=1, max_size=4),
        min_size=1,
        max_size=24,
    )
)
def test_atom_order_has_running_intersection_on_random_graphs(operand_sets):
    assert_running_intersection(ConflictGraph.from_operand_sets(operand_sets))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.sets(st.integers(0, 17), min_size=1, max_size=4),
        min_size=1,
        max_size=24,
    )
)
def test_decomposition_equals_reference(operand_sets):
    """One scan that never revisits a cut-off atom gives every atom,
    separator and their order as the reference, which scans every piece
    again from the start of the elimination order."""
    live = decompose_atoms(ConflictGraph.from_operand_sets(operand_sets))
    ref_atoms, ref_separators = reference_decompose_atoms(
        ReferenceConflictGraph.from_operand_sets(operand_sets)
    )
    ids_of = live.graph.kernel().index.ids_of
    assert [ids_of(m) for m in live.masks] == [
        sorted(a.nodes) for a in ref_atoms
    ]
    assert live.separators == ref_separators


def assert_equals_reference(graph: ConflictGraph, ctx) -> None:
    live = decompose_atoms(graph)
    ref_atoms, ref_separators = reference_decompose_atoms(
        ReferenceConflictGraph.from_operand_sets(
            [{v} for v in graph.nodes] + [set(e) for e in graph.edges()]
        )
    )
    ids_of = graph.kernel().index.ids_of
    assert [ids_of(m) for m in live.masks] == [
        sorted(a.nodes) for a in ref_atoms
    ], ctx
    assert live.separators == ref_separators, ctx


MACHINE = MachineConfig(num_fus=4, num_modules=8)


@pytest.fixture
def allocation_graphs(monkeypatch):
    """The graphs the allocator decomposes, collected as they pass."""
    graphs: list[ConflictGraph] = []
    decomposed = workunits.decomposed_atoms

    def collect(graph, max_nodes):
        graphs.append(graph)
        return decomposed(graph, max_nodes)

    monkeypatch.setattr(workunits, "decomposed_atoms", collect)
    return graphs


def test_decomposition_equals_reference_on_allocation_graphs(
    allocation_graphs,
):
    """The registry programs in the paper's configuration (unroll 4,
    constants in memory) and generated programs at unroll 2, at the
    default size bound."""
    paper = PipelineOptions(
        machine=MACHINE, unroll=4, constants_in_memory=True, k=MACHINE.k
    )
    for spec in all_programs():
        run_pipeline(spec.source, paper, inputs=spec.inputs)
    generated = PipelineOptions(
        machine=MACHINE, unroll=2, constants_in_memory=True, k=MACHINE.k
    )
    for seed in range(10):
        run_pipeline(random_source(seed, max_statements=40), generated)
    assert len(allocation_graphs) == 16
    for i, graph in enumerate(allocation_graphs):
        assert_equals_reference(graph, i)
