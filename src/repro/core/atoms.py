"""Clique-separator decomposition into atoms (paper §2.1, Tarjan 1985).

The paper decomposes the conflict graph into *atoms* — subgraphs with no
clique separator — and colours one atom at a time: if every atom is
k-colourable then so is the whole graph, since colours can be permuted
to agree on the shared cliques.

Implementation: per connected component, MCS-M (Berry, Blair, Heggernes
& Peyton 2004) computes a *minimal* triangulation H of G together with a
minimal elimination ordering.  Scanning vertices in that order, the
higher-numbered neighbourhood ``madj(v)`` is a minimal separator of H;
when it is also a clique in G and genuinely disconnects the current
piece, it is a clique separator of G and splits off the component
containing v (Tarjan's lemma; see Berry, Pogorelcnik & Simonet 2010).
Splits recurse on vertex subsets *reusing the one triangulation* — the
restriction of a chordal graph is chordal and the restricted order stays
a perfect elimination order, so every candidate separator remains valid;
the recursion only performs explicit clique and separation checks.

Everything runs in the bit space of the one graph's
:class:`~repro.core.bitset.GraphKernel`: a component, a piece and an
atom are node masks over it, and no subgraph or second kernel is built.
The colouring stage (:mod:`repro.core.coloring`) colours each atom as a
mask over the same kernel; :attr:`AtomDecomposition.atoms` builds
induced subgraphs only for callers that ask for them.

Graphs larger than ``max_nodes`` skip the decomposition (each oversized
connected component is returned whole): the decomposition exists to make
colouring *manageable* (paper §2.1), and the colouring heuristic handles
large graphs directly, while MCS-M's O(n·e) does not pay for itself in
pure Python at that scale.  This engineering bound is recorded in
DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .bitset import GraphKernel, iter_bits
from .conflict_graph import ConflictGraph

#: Components larger than this are not decomposed further by default.
DEFAULT_MAX_NODES = 800


def _mcs_m_masks(
    kern: GraphKernel, universe: int
) -> tuple[list[int], list[int]]:
    """MCS-M on the bitmask kernel, over the subgraph induced on the node
    mask ``universe``: triangulated adjacency rows plus the numbering
    order, both in kernel bit space.

    MCS-M numbers vertices n..1, each step picking the unnumbered vertex
    of maximum weight (ties: smallest id) and reaching every unnumbered
    ``u`` connected to it by a path whose internal vertices are
    unnumbered with weight strictly below ``weight[u]`` — equivalently,
    ``u`` adjacent to the connected component of the chosen vertex in
    the subgraph induced on unnumbered vertices lighter than ``u``.
    Processing the distinct weights in ascending order lets one mask
    flood grow monotonically: each weight level first admits all lighter
    vertices into the flood, then collects its own vertices adjacent to
    it.  This is the same reached set the textbook minimax-path
    (Dijkstra-style) search computes, found in O(n) big-int operations
    per step instead of a heap walk over every edge.

    Returns ``(h_rows, numbering)``: per-bit adjacency masks of the
    triangulation H (supersets of the kernel's rows; read them only
    inside ``universe``) and the bits of ``universe`` in numbering order
    (elimination order is its reverse).
    """
    adj = kern.adj
    n = universe.bit_count()
    weight = [0] * len(adj)
    h_rows = list(adj)  # fill edges are OR'ed in below
    numbering: list[int] = []  # bits in numbering order (n, n-1, ..., 1)
    # Unnumbered vertices bucketed by weight; bits move up one bucket
    # when reached, out when numbered.  Doubles as the selection
    # structure: the winner is the lowest bit of the heaviest bucket
    # (bits are assigned in ascending id order, so min-bit == min-id).
    by_weight: dict[int, int] = {0: universe} if n else {}

    for _ in range(n):
        while True:
            w_max = max(by_weight)
            bucket = by_weight[w_max]
            if bucket:
                break
            del by_weight[w_max]
        s_bit = bucket & -bucket
        s = s_bit.bit_length() - 1
        by_weight[w_max] = bucket ^ s_bit
        component = s_bit
        nbrs = adj[s]  # union of adjacency rows over the component
        allowed = 0  # unnumbered vertices lighter than the current level
        reached = 0
        for w in sorted(by_weight):
            bucket = by_weight[w]
            if not bucket:
                continue
            while True:
                add = nbrs & allowed & ~component
                if not add:
                    break
                component |= add
                while add:
                    low = add & -add
                    add ^= low
                    nbrs |= adj[low.bit_length() - 1]
            reached |= bucket & nbrs
            allowed |= bucket
        rest = reached
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            w = weight[j] = weight[j] + 1
            by_weight[w - 1] ^= low
            by_weight[w] = by_weight.get(w, 0) | low
            h_rows[j] |= s_bit
        h_rows[s] |= reached
        numbering.append(s)

    return h_rows, numbering


def mcs_m(graph: ConflictGraph) -> tuple[dict[int, set[int]], list[int]]:
    """MCS-M minimal triangulation (see :func:`_mcs_m_masks`).

    Returns ``(fill_adjacency, order)`` where ``fill_adjacency`` is the
    adjacency of the triangulated graph H (a superset of G's) and
    ``order`` lists vertices in elimination order (order[0] eliminated
    first).
    """
    kern = graph.kernel()
    h_rows, numbering = _mcs_m_masks(kern, kern.index.universe_mask)
    ids = kern.index.ids
    h_adj = {
        ids[i]: {ids[j] for j in iter_bits(h_rows[i])}
        for i in range(len(ids))
    }
    elimination_order = [ids[b] for b in reversed(numbering)]
    return h_adj, elimination_order


class Atom(NamedTuple):
    """One atom: its node mask over the graph's kernel and its node ids,
    sorted."""

    mask: int
    nodes: list[int]


@dataclass
class AtomDecomposition:
    """Result of decomposing a conflict graph: atom and separator node
    masks over ``graph.kernel()``, in decomposition order."""

    graph: ConflictGraph
    masks: list[int]
    separator_masks: list[int]

    @cached_property
    def atoms(self) -> list[ConflictGraph]:
        """The atoms as induced subgraphs, built on first access."""
        ids_of = self.graph.kernel().index.ids_of
        return [self.graph.subgraph(ids_of(m)) for m in self.masks]

    @cached_property
    def separators(self) -> list[frozenset[int]]:
        ids_of = self.graph.kernel().index.ids_of
        return [frozenset(ids_of(m)) for m in self.separator_masks]

    def units(self) -> list[Atom]:
        """The atoms as :class:`Atom` masks, the colouring stage's
        input."""
        ids_of = self.graph.kernel().index.ids_of
        return [Atom(m, ids_of(m)) for m in self.masks]


def _decompose_component(
    kern: GraphKernel,
    component: int,
    out_atoms: list[int],
    out_separators: list[int],
) -> None:
    """Split one connected component (a node mask) using a single MCS-M
    triangulation.

    ``madj`` is one AND of a triangulation row against a
    suffix-of-elimination mask, clique-ness is one adjacency-row
    comparison per member, and the component search floods adjacency
    masks instead of walking ``set`` neighbourhoods.

    A piece is scanned only over its own elimination positions (a mask
    indexed by position), and a piece split off at position pos(y)
    resumes its scan at pos(y) + 1.  Lemma: let piece P split at y
    into A = C ∪ S and B = P ∖ C, with S = madj(y) and C the
    component of y in P ∖ S.  Take x in a child with pos(x) < pos(y).
    Every member of S comes after y, so x is not in S, and
    madj(x) ∩ P lies inside x's child.  A fill edge from x is a
    G-path through vertices eliminated before both of its ends; it
    can be shortcut through earlier separator cliques to stay inside
    P, where reaching the other child would cross S, whose members
    come after y.  And since S is a clique, G[child ∖ madj(x)] stays
    connected wherever G[P ∖ madj(x)] was.  So x fails in its child
    for the reason it failed in P; y itself fails in A and is not in
    B.  The first split of each child therefore lies past pos(y).
    """
    h_rows, numbering = _mcs_m_masks(kern, component)
    n = len(numbering)

    elim = list(reversed(numbering))  # bits in elimination order
    # kernel bit -> elimination position, filled at the first split
    position: dict[int, int] = {}
    # suffix[i]: bits eliminated strictly after position i
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] | (1 << elim[i])

    def positions(mask: int) -> int:
        if not position:
            position.update((bit, i) for i, bit in enumerate(elim))
        out = 0
        for bit in iter_bits(mask):
            out |= 1 << position[bit]
        return out

    # (piece mask, its positions, first position still to scan)
    work: list[tuple[int, int, int]] = [(component, (1 << n) - 1, 0)]
    while work:
        piece_mask, piece_positions, start = work.pop()
        piece_size = piece_mask.bit_count()
        if piece_size <= 2:
            out_atoms.append(piece_mask)
            continue
        split = None
        rest = piece_positions >> start << start
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            v_bit = elim[i]
            madj_mask = h_rows[v_bit] & suffix[i + 1] & piece_mask
            madj_size = madj_mask.bit_count()
            if not madj_mask or madj_size >= piece_size - 1:
                continue
            if not kern.is_clique_mask(madj_mask):
                continue
            comp_mask = kern.component_mask(v_bit, piece_mask, madj_mask)
            if comp_mask.bit_count() + madj_size < piece_size:
                split = (i, madj_mask, comp_mask)
                break
        if split is None:
            out_atoms.append(piece_mask)
            continue
        i, madj_mask, comp_mask = split
        out_separators.append(madj_mask)
        comp_positions = positions(comp_mask)
        work.append((
            comp_mask | madj_mask,
            comp_positions | positions(madj_mask),
            i + 1,
        ))
        work.append((
            piece_mask & ~comp_mask, piece_positions & ~comp_positions, i + 1
        ))


def decompose_atoms(
    graph: ConflictGraph, max_nodes: int = DEFAULT_MAX_NODES
) -> AtomDecomposition:
    """Split ``graph`` into atoms by clique-separator splits.

    Disconnected graphs split along the empty separator first (the empty
    set is a clique).  Components larger than ``max_nodes`` are returned
    whole (see module docstring).  Each atom is a node mask over
    ``graph.kernel()`` (``.atoms`` gives induced subgraphs); separator
    vertices appear in every atom they border.

    **Atom order matters**: atoms are emitted in depth-first order of
    the decomposition tree, which has the running-intersection property
    — each atom's overlap with the union of all earlier atoms lies
    inside one separator clique.  Colouring atoms in this order with
    shared vertices pre-assigned therefore composes into a proper
    colouring of the whole graph (out-of-order colouring can assign two
    adjacent separator vertices the same colour in atoms that do not
    contain their edge).
    """
    kern = graph.kernel()
    atoms: list[int] = []
    separators: list[int] = []

    comps = kern.component_masks(kern.index.universe_mask)
    if len(comps) > 1:
        separators.append(0)

    for comp in comps:
        size = comp.bit_count()
        if size <= 2 or size > max_nodes:
            atoms.append(comp)
        else:
            _decompose_component(kern, comp, atoms, separators)

    return AtomDecomposition(graph, atoms, separators)


def has_clique_separator(graph: ConflictGraph) -> bool:
    """Whether the graph has at least one clique separator (property-test
    helper; the graph must be small)."""
    kern = graph.kernel()
    comps = kern.component_masks(kern.index.universe_mask)
    if len(comps) > 1:
        return True
    atoms: list[int] = []
    seps: list[int] = []
    for comp in comps:
        if comp.bit_count() <= 2:
            continue
        _decompose_component(kern, comp, atoms, seps)
    return bool(seps)
