"""The access conflict graph (paper §2), on bitmask internals.

Nodes are data values; an edge joins two values that appear as operands
of the same (long) instruction; ``conf(u, v)`` counts in how many
instructions the pair co-occurs — the edge weight base used by the
colouring heuristic of Fig. 4.

Construction no longer hashes every operand pair into a tuple-keyed
dict: an instruction is recorded in O(p) by OR-ing its operand mask
into per-node state, and ``conf(u, v)`` is recovered on demand as a
mask intersection over the nodes' instruction-membership masks (see
:class:`repro.core.bitset.GraphKernel`).  The classic ``adj`` /
``conf`` dictionaries remain available as lazily materialised views
for the cold consumers (atom triangulation, exact solvers, tests);
the hot paths read the :meth:`kernel` directly.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .bitset import DenseIndex, GraphKernel, iter_bits


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class ConflictGraph:
    """Undirected conflict graph with co-occurrence counts."""

    __slots__ = (
        "nodes", "instructions", "_edge_ops", "_edge_weights",
        "_kernel", "_adj_view", "_conf_view", "_edges_cache",
    )

    def __init__(self) -> None:
        #: the graph's vertex set (data value ids)
        self.nodes: set[int] = set()
        #: the operand sets the graph was built from, in order
        self.instructions: list[frozenset[int]] = []
        # Edge-bearing instructions (>= 2 operands, weight > 0) feeding
        # adjacency and conf counts.
        self._edge_ops: list[frozenset[int]] = []
        self._edge_weights: list[int] = []
        self._kernel: GraphKernel | None = None
        self._adj_view: dict[int, set[int]] | None = None
        self._conf_view: dict[tuple[int, int], int] | None = None
        self._edges_cache: list[tuple[int, int]] | None = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_operand_sets(
        cls,
        operand_sets: Iterable[Iterable[int]],
        weights: Iterable[int] | None = None,
    ) -> "ConflictGraph":
        """Build a graph; optional per-instruction ``weights`` (e.g.
        profiled execution frequencies) scale the conf counts, which is
        the paper's closing suggestion for frequency-guided
        distribution."""
        graph = cls()
        if weights is None:
            for operands in operand_sets:
                graph.add_instruction(operands)
        else:
            for operands, w in zip(operand_sets, weights):
                graph.add_instruction(operands, w)
        return graph

    def _invalidate(self) -> None:
        self._kernel = None
        self._adj_view = None
        self._conf_view = None
        self._edges_cache = None

    def add_node(self, v: int) -> None:
        if v not in self.nodes:
            self.nodes.add(v)
            self._invalidate()

    def add_instruction(self, operands: Iterable[int], weight: int = 1) -> None:
        """Record one instruction's operand set (pairwise conflicts),
        counting it ``weight`` times."""
        if weight < 0:
            raise ValueError("weight must be non-negative")
        ops = frozenset(operands)
        self.instructions.append(ops)
        self.nodes |= ops
        if weight > 0 and len(ops) > 1:
            self._edge_ops.append(ops)
            self._edge_weights.append(weight)
        self._invalidate()

    # -- kernel and views ---------------------------------------------------

    def kernel(self) -> GraphKernel:
        """The graph's bitmask view (dense numbering, adjacency rows,
        membership masks); cached until the next mutation."""
        if self._kernel is None:
            self._kernel = GraphKernel(
                DenseIndex(self.nodes), self._edge_ops, self._edge_weights
            )
        return self._kernel

    @property
    def adj(self) -> dict[int, set[int]]:
        """Adjacency as ``dict[node, set[neighbour]]`` — a materialised
        view for cold consumers; hot paths use :meth:`kernel` rows."""
        if self._adj_view is None:
            kern = self.kernel()
            ids = kern.index.ids
            self._adj_view = {
                ids[i]: {ids[j] for j in iter_bits(kern.adj[i])}
                for i in range(len(ids))
            }
        return self._adj_view

    @property
    def conf(self) -> dict[tuple[int, int], int]:
        """Pairwise co-occurrence counts as a materialised dict view."""
        if self._conf_view is None:
            counts: dict[tuple[int, int], int] = {}
            for ops, w in zip(self._edge_ops, self._edge_weights):
                members = sorted(ops)
                for i, u in enumerate(members):
                    for v in members[i + 1:]:
                        key = (u, v)
                        counts[key] = counts.get(key, 0) + w
            self._conf_view = counts
        return self._conf_view

    # -- queries ------------------------------------------------------------

    def degree(self, v: int) -> int:
        kern = self.kernel()
        return kern.degree(kern.index.bit[v])

    def neighbors(self, v: int) -> set[int]:
        return self.adj[v]

    def conflict_count(self, u: int, v: int) -> int:
        """conf(u, v): number of instructions using both u and v."""
        kern = self.kernel()
        bit = kern.index.bit
        ui, vi = bit.get(u), bit.get(v)
        if ui is None or vi is None:
            return 0
        return kern.conf(ui, vi)

    def has_edge(self, u: int, v: int) -> bool:
        return self.conflict_count(u, v) > 0

    def edges(self) -> Iterator[tuple[int, int]]:
        if self._edges_cache is None:
            self._edges_cache = self.kernel().edge_pairs()
        return iter(self._edges_cache)

    @property
    def num_edges(self) -> int:
        # Each edge sets one bit in both endpoints' rows (the kernel
        # clears a node's own bit), so no pair list is needed.
        return sum(row.bit_count() for row in self.kernel().adj) // 2

    def is_clique(self, vertices: Iterable[int]) -> bool:
        kern = self.kernel()
        return kern.is_clique_mask(kern.index.mask_of(vertices))

    def subgraph(
        self, vertices: Iterable[int], with_instructions: bool = False
    ) -> "ConflictGraph":
        """Induced subgraph with ``conf`` counts restricted to the kept
        vertices.  The (potentially long) instruction list is projected
        only when ``with_instructions`` is set — colouring needs just the
        adjacency and counts."""
        keep = {v for v in vertices if v in self.nodes}
        sub = ConflictGraph()
        sub.nodes |= keep
        # Project the kernel's deduplicated instruction rows rather than
        # the raw operand list: identical rows were merged with summed
        # weights in first-occurrence order, so conf counts — and every
        # downstream tie-break — are unchanged, while the scan shrinks
        # to one AND + popcount per distinct row (this runs once per
        # atom during decomposition).
        kern = self.kernel()
        index = kern.index
        keep_mask = index.mask_of(keep)
        for m, w in zip(kern.instr_masks, kern.instr_weights):
            projected = m & keep_mask
            if projected.bit_count() > 1:
                sub._edge_ops.append(frozenset(index.ids_of(projected)))
                sub._edge_weights.append(w)
        if with_instructions:
            for ops in self.instructions:
                proj = ops & keep
                if proj:
                    sub.instructions.append(proj)
        return sub

    def components(self) -> list[set[int]]:
        """Connected components, each sorted-deterministic."""
        kern = self.kernel()
        ids_of = kern.index.ids_of
        return [
            set(ids_of(comp))
            for comp in kern.component_masks(kern.index.universe_mask)
        ]

    def __contains__(self, v: int) -> bool:
        return v in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConflictGraph(nodes={len(self.nodes)}, "
            f"edges={self.num_edges}, "
            f"instructions={len(self.instructions)})"
        )
