"""Clique-separator decomposition into atoms (paper §2.1, Tarjan 1985).

The paper decomposes the conflict graph into *atoms* — subgraphs with no
clique separator — and colours one atom at a time: if every atom is
k-colourable then so is the whole graph, since colours can be permuted
to agree on the shared cliques.

Implementation: per connected component, MCS-M (Berry, Blair, Heggernes
& Peyton 2004) computes a *minimal* triangulation H of G together with a
minimal elimination ordering.  Tarjan's algorithm then scans that order
once over one shrinking mask of what is left of the component: the
higher-numbered neighbourhood ``madj(v)`` of each vertex is a minimal
separator of H; when it is also a clique in G and genuinely disconnects
what is left, it is a clique separator of G, the scan cuts off the
component containing v together with the separator as an atom, and goes
on with the rest (see Berry, Pogorelcnik & Simonet 2010).

Everything runs in the bit space of the one graph's
:class:`~repro.core.bitset.GraphKernel`: a component, what is left of
it and an atom are node masks over it, and no subgraph or second kernel
is built.
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

from .bitset import GraphKernel
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
    """Tarjan's scan of one connected component (a node mask) along its
    MCS-M elimination order.

    ``rest`` is what is left of the component.  At each vertex y of
    ``rest`` whose ``madj(y)`` (one AND of its triangulation row
    against the mask of vertices eliminated later) is a clique
    separating ``rest``, the scan cuts off A = C ∪ S, with S = madj(y)
    and C y's component of ``rest`` ∖ S, and goes on with
    ``rest`` ∖ C.  A cut-off A is final: Tarjan (1985) shows that on a
    minimal elimination order it has no clique separator, so the scan
    never comes back to it.  (Checked: a decomposer that scanned every
    A again found no split in ~13,000 random components, the registry
    programs' graphs with and without the size bound, or the
    ``batch-edits`` benchmark's graphs.)  Clique-ness is one
    adjacency-row comparison per member, and the component search
    floods adjacency masks.
    """
    h_rows, numbering = _mcs_m_masks(kern, component)
    rest = later = component
    size = component.bit_count()
    cuts: list[int] = []
    for v in reversed(numbering):
        if size <= 2:
            break
        v_bit = 1 << v
        later ^= v_bit
        if not rest & v_bit:
            continue
        madj_mask = h_rows[v] & later & rest
        madj_size = madj_mask.bit_count()
        if not madj_mask or madj_size >= size - 1:
            continue
        if not kern.is_clique_mask(madj_mask):
            continue
        comp_mask = kern.component_mask(v, rest, madj_mask)
        comp_size = comp_mask.bit_count()
        if comp_size + madj_size < size:
            out_separators.append(madj_mask)
            cuts.append(comp_mask | madj_mask)
            rest &= ~comp_mask
            size -= comp_size
    out_atoms.append(rest)
    out_atoms.extend(reversed(cuts))


def decompose_atoms(
    graph: ConflictGraph, max_nodes: int = DEFAULT_MAX_NODES
) -> AtomDecomposition:
    """Split ``graph`` into atoms by clique-separator splits.

    Disconnected graphs split along the empty separator first (the empty
    set is a clique).  Components larger than ``max_nodes`` are returned
    whole (see module docstring).  Each atom is a node mask over
    ``graph.kernel()`` (``.atoms`` gives induced subgraphs); separator
    vertices appear in every atom they border.

    **Atom order matters**: per component, atoms are emitted as the
    last remainder of the scan first, then the cut-off atoms in reverse
    cut order.  That order has the running-intersection property — each
    atom's overlap with the union of all earlier atoms lies inside one
    separator clique.  Colouring atoms in this order with shared
    vertices pre-assigned therefore composes into a proper colouring of
    the whole graph (out-of-order colouring can assign two adjacent
    separator vertices the same colour in atoms that do not contain
    their edge).
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

