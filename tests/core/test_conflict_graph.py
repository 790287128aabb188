"""Unit tests for the access conflict graph."""

from hypothesis import given, strategies as st

from repro.core import ConflictGraph


def test_single_instruction_builds_clique():
    g = ConflictGraph.from_operand_sets([{1, 2, 3}])
    assert g.is_clique({1, 2, 3})
    assert g.num_edges == 3
    assert g.degree(1) == 2


def test_conflict_counts_accumulate():
    g = ConflictGraph.from_operand_sets([{1, 2}, {1, 2}, {1, 3}])
    assert g.conflict_count(1, 2) == 2
    assert g.conflict_count(2, 1) == 2  # symmetric
    assert g.conflict_count(1, 3) == 1
    assert g.conflict_count(2, 3) == 0


def test_singleton_instruction_adds_isolated_node():
    g = ConflictGraph.from_operand_sets([{7}])
    assert 7 in g
    assert g.degree(7) == 0


def test_subgraph_restricts_everything():
    g = ConflictGraph.from_operand_sets([{1, 2, 3}, {2, 3, 4}])
    sub = g.subgraph({2, 3, 4}, with_instructions=True)
    assert sub.nodes == {2, 3, 4}
    assert sub.conflict_count(2, 3) == 2
    assert not sub.has_edge(1, 2)
    assert all(ops <= {2, 3, 4} for ops in sub.instructions)


def test_subgraph_without_instructions_by_default():
    g = ConflictGraph.from_operand_sets([{1, 2, 3}])
    assert g.subgraph({1, 2}).instructions == []


def test_components():
    g = ConflictGraph.from_operand_sets([{1, 2}, {3, 4}, {4, 5}])
    comps = g.components()
    assert sorted(sorted(c) for c in comps) == [[1, 2], [3, 4, 5]]


def test_is_clique_on_non_clique():
    g = ConflictGraph.from_operand_sets([{1, 2}, {2, 3}])
    assert not g.is_clique({1, 2, 3})
    assert g.is_clique({1, 2})
    assert g.is_clique({1})
    assert g.is_clique(set())


@given(
    st.lists(
        st.frozensets(st.integers(0, 12), min_size=1, max_size=4),
        min_size=1,
        max_size=20,
    )
)
def test_edges_iff_cooccurrence(sets):
    g = ConflictGraph.from_operand_sets(sets)
    cooccurring = 0
    for u in g.nodes:
        for v in g.nodes:
            if u >= v:
                continue
            expected = sum(1 for s in sets if u in s and v in s)
            assert g.conflict_count(u, v) == expected
            assert g.has_edge(u, v) == (expected > 0)
            cooccurring += expected > 0
    assert g.num_edges == cooccurring


@given(
    st.lists(
        st.frozensets(st.integers(0, 10), min_size=1, max_size=4),
        min_size=1,
        max_size=15,
    )
)
def test_components_partition_nodes(sets):
    g = ConflictGraph.from_operand_sets(sets)
    comps = g.components()
    seen = set()
    for c in comps:
        assert not (c & seen)
        seen |= c
    assert seen == g.nodes
