"""The graph-colouring heuristic of paper Fig. 4, plus the atom driver.

Faithful implementation notes (all from §2.1):

- directional edge weights: ``wt(a -> b) = 0`` when ``d(a) < k`` (a node
  of degree below k can always be coloured, so edges *leaving* it carry
  no urgency), else ``conf(a, b)``;
- the first node coloured is the one with maximum total outgoing weight
  ``S_n``; it gets module M1;
- thereafter the *urgency* of an uncoloured node is the sum of weights
  on edges arriving from coloured nodes divided by the number of modules
  still assignable to it; a node with no remaining module has infinite
  urgency and is removed into ``V_unassigned`` as soon as it is picked;
- ties (urgency, first node, module choice) are resolved deterministically
  by smallest node id / module index, so runs are reproducible.

The most urgent node comes off a lazy-deletion min-heap whose exact
integer key is described in :func:`color_atom`; colouring an atom of
``n`` nodes and ``e`` edges costs O((n + e)·log(n + e)), the bound the
paper states for the heuristic.

The atom driver decomposes the graph with
:func:`repro.core.atoms.decompose_atoms` and colours atoms sequentially;
vertices shared with previously-coloured atoms (separator cliques) enter
the next atom as pre-assigned constraints, which keeps the combined
colouring proper without a permutation step.  The whole stage runs on
the graph's one bitmask kernel: an atom is a node mask over it, so
atom-local degrees and ``S_n`` are read through the mask and no atom
subgraph is built.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from . import workunits
from .atoms import DEFAULT_MAX_NODES
from .bitset import iter_bits, mask_of_bits
from .conflict_graph import ConflictGraph


@dataclass(frozen=True, slots=True)
class ColoringStep:
    """One decision of the heuristic (trace entry; reproduces Fig. 5)."""

    node: int
    urgency_numerator: int
    modules_left: int
    action: str  # 'first' | 'assigned' | 'removed' | 'preassigned'
    module: int | None


@dataclass(slots=True)
class ColoringResult:
    """Outcome of colouring: module per coloured node, removal list."""

    k: int
    assignment: dict[int, int] = field(default_factory=dict)
    unassigned: list[int] = field(default_factory=list)
    trace: list[ColoringStep] = field(default_factory=list)
    #: atoms the graph decomposed into (1 when colouring skipped atoms;
    #: 0 for an empty graph) — surfaced by the service metrics layer
    num_atoms: int = 0

    @property
    def assigned(self) -> set[int]:
        return set(self.assignment)

    def is_proper(self, graph: ConflictGraph) -> bool:
        for u, v in graph.edges():
            cu, cv = self.assignment.get(u), self.assignment.get(v)
            if cu is not None and cv is not None and cu == cv:
                return False
        return True

    def merge(self, other: "ColoringResult") -> None:
        for node, module in other.assignment.items():
            existing = self.assignment.get(node)
            if existing is not None and existing != module:
                raise ValueError(f"conflicting colours for node {node}")
            self.assignment[node] = module
        for node in other.unassigned:
            if node not in self.unassigned:
                self.unassigned.append(node)
        self.trace.extend(other.trace)


def color_atom(
    graph: ConflictGraph,
    k: int,
    preassigned: dict[int, int] | None = None,
    module_choice: str = "first",
    module_use: list[int] | None = None,
    prefer: set[int] | None = None,
    mask: int | None = None,
) -> ColoringResult:
    """Colour one atom with the Fig. 4 heuristic.

    The atom is the subgraph of ``graph`` induced on ``mask``, a node
    mask over ``graph.kernel()`` (default: the whole graph).

    ``preassigned`` nodes keep their module and seed ``V_assigned``
    (used for separator vertices, STOR2 globals, and STOR3 phase 2).
    ``module_choice`` picks among the modules still available to the
    chosen node: ``'first'`` (lowest index, the paper's "one of the
    available modules", with M1 for the first node per Fig. 4) or
    ``'least_used'`` (spread values out; ``module_use`` lets the caller
    share usage counts across atoms).

    ``prefer`` marks nodes that must be coloured before all others
    (non-duplicable values: their removal cannot be repaired by copies).
    This is an extension over Fig. 4 — the paper's values are all
    single-definition — ordered by urgency within each class.

    Implementation runs on the graph's bitmask kernel: "module legal
    for node" is one AND of the node's accumulated neighbour-colour
    mask against the k-module mask, and the directional edge weights
    ``wt(a -> b) = 0 if d(a) < k else conf(a, b)`` are evaluated
    lazily from instruction-membership masks instead of being
    materialised as a pair-keyed dict.  Atom-local degree is
    ``popcount(adj[i] & mask)`` and ``S_n`` sums
    ``w_b · (popcount(row_b & mask) - 1)`` over the node's instruction
    rows; ``conf`` needs no mask, since an induced subgraph keeps the
    counts of the pairs it keeps.

    The next node comes off a lazy-deletion min-heap keyed
    ``(class, finite, -incoming * (L // K_v), dense index)``: ``class``
    is 0 for ``prefer`` nodes and 1 otherwise; ``K_v`` is the number of
    modules still legal for the node and ``finite`` is 0 when it is 0
    (infinite urgency, which beats every finite one); ``L = lcm(1..k)``
    makes the urgency ``incoming / K_v`` an exact integer, so equal
    urgencies compare equal (``0/3 == 0/5``) and the smallest dense
    index, i.e. the smallest node id, breaks every tie.  Assigning a
    node re-keys only its uncoloured neighbours, pushing an entry when
    the key changed; a popped entry that is not its node's current key
    is skipped.  Each assignment costs O(degree · log(n + e)), so the
    atom costs O((n + e)·log(n + e)).
    """
    result = ColoringResult(k)
    preassigned = preassigned or {}
    prefer = prefer or set()
    if not graph.nodes:
        return result

    kern = graph.kernel()
    index = kern.index
    ids = index.ids
    adj = kern.adj
    atom = index.universe_mask if mask is None else mask
    all_modules = (1 << k) - 1
    # Per-node state is keyed by kernel bit and sized to the atom, so an
    # atom costs nothing in the size of the graph around it.
    bits = list(iter_bits(atom))

    # wt(a -> b) is 0 for every b when d(a) < k (the degree inside the
    # atom); cache the per-source gate as one lookup.
    emits_weight = {i: (adj[i] & atom).bit_count() >= k for i in bits}

    # Incremental state.
    if module_use is None:
        module_use = [0] * k  # how many nodes use each module (least_used)
    incoming = dict.fromkeys(bits, 0)         # Σ wt(assigned -> v)
    neighbor_colors = dict.fromkeys(bits, 0)  # colours of assigned neighbours
    rest_mask = atom
    prefer_mask = mask_of_bits(i for i in bits if ids[i] in prefer)

    def assign(i: int, module: int, action: str, urgency_num: int) -> None:
        result.assignment[ids[i]] = module
        module_use[module] += 1
        result.trace.append(
            ColoringStep(ids[i], urgency_num,
                         k - neighbor_colors[i].bit_count(), action, module)
        )
        module_bit = 1 << module
        pending = adj[i] & rest_mask
        if emits_weight[i]:
            for j in iter_bits(pending):
                incoming[j] += kern.conf(i, j)
                neighbor_colors[j] |= module_bit
        else:
            for j in iter_bits(pending):
                neighbor_colors[j] |= module_bit

    for node, module in preassigned.items():
        i = index.bit.get(node)
        if i is not None and (rest_mask >> i) & 1:
            rest_mask &= ~(1 << i)
            assign(i, module, "preassigned", 0)

    if not preassigned:
        # Fig. 4: n_first = argmax S_n, assigned M1 ('least_used' mode
        # picks the globally least-used module instead).  S_n sums the
        # outgoing weights, i.e. Σ conf(n, u) when d(n) >= k, which the
        # kernel folds per instruction rather than per edge.
        pool_mask = prefer_mask & rest_mask or rest_mask
        first = -1
        first_val = -1
        for i in iter_bits(pool_mask):
            s_val = kern.strength(i, atom) if emits_weight[i] else 0
            if s_val > first_val:
                first, first_val = i, s_val
        rest_mask &= ~(1 << first)
        if module_choice == "least_used":
            first_module = min(range(k), key=lambda m: (module_use[m], m))
        else:
            first_module = 0
        assign(first, first_module, "first", first_val)

    # The urgency heap (key described in the docstring).  ``live[i]`` is
    # the entry holding node i's current key; any other entry popped
    # for i is stale and skipped.
    lcm_k = math.lcm(*range(1, k + 1))

    def urgency_key(i: int) -> tuple[int, int, int, int]:
        cls = 0 if (prefer_mask >> i) & 1 else 1
        k_v = k - (neighbor_colors[i] & all_modules).bit_count()
        if k_v == 0:
            return (cls, 0, 0, i)
        return (cls, 1, -incoming[i] * (lcm_k // k_v), i)

    live: dict[int, tuple[int, int, int, int] | None] = {}
    heap = []
    for i in iter_bits(rest_mask):
        live[i] = key = urgency_key(i)
        heap.append(key)
    heapq.heapify(heap)

    while heap:
        entry = heapq.heappop(heap)
        best = entry[3]
        if live[best] is not entry:
            continue
        live[best] = None
        rest_mask &= ~(1 << best)

        free = ~neighbor_colors[best] & all_modules
        if not free:
            result.unassigned.append(ids[best])
            result.trace.append(
                ColoringStep(ids[best], incoming[best], 0, "removed", None)
            )
            continue
        if module_choice == "least_used":
            module = min(iter_bits(free), key=lambda m: (module_use[m], m))
        elif module_choice == "first":
            module = (free & -free).bit_length() - 1
        else:
            raise ValueError(f"unknown module_choice {module_choice!r}")
        assign(best, module, "assigned", incoming[best])
        # Only the uncoloured neighbours' urgencies moved (upwards, so a
        # stale entry always sorts after the live one).
        for j in iter_bits(adj[best] & rest_mask):
            fresh = urgency_key(j)
            if fresh != live[j]:
                live[j] = fresh
                heapq.heappush(heap, fresh)

    return result


def color_graph(
    graph: ConflictGraph,
    k: int,
    preassigned: dict[int, int] | None = None,
    module_choice: str = "first",
    use_atoms: bool = True,
    prefer: set[int] | None = None,
    *,
    max_atom_nodes: int | None = None,
) -> ColoringResult:
    """Colour a conflict graph (paper §2.1): decompose into atoms, colour
    each, composing via shared-clique constraints.  ``prefer`` marks
    nodes coloured before all others (see :func:`color_atom`).

    The atoms are node masks over the graph's one kernel, coloured one
    by one in decomposition order and merged in that order
    (``V_unassigned`` order feeds the duplication stage's RNG
    tie-breaks, so merge order is part of the contract);
    ``max_atom_nodes`` bounds the clique-separator decomposition
    (components above the bound are coloured whole).
    """
    preassigned = dict(preassigned or {})
    max_nodes = (
        DEFAULT_MAX_NODES if max_atom_nodes is None else max_atom_nodes
    )
    if not use_atoms:
        result = color_atom(
            graph, k, preassigned, module_choice, prefer=prefer
        )
        result.num_atoms = 1 if graph.nodes else 0
        _repair_improper_edges(graph, result, set(preassigned))
        return result

    combined = ColoringResult(k)
    assigned = combined.assignment
    assigned.update(
        {v: m for v, m in preassigned.items() if v in graph.nodes}
    )
    # Colour atoms in decomposition (depth-first) order: its
    # running-intersection property guarantees that the vertices an atom
    # shares with earlier atoms form one clique, so the pre-assigned
    # constraints are always mutually consistent and extendable.
    atoms = workunits.decomposed_atoms(graph, max_nodes)
    combined.num_atoms = len(atoms)
    module_use = [0] * k
    for atom in atoms:
        # Colours merged so far plus the caller's fixed placements, in
        # sorted-id order, which fixes the trace order of the
        # 'preassigned' steps.
        pre = {v: assigned[v] for v in atom.nodes if v in assigned}
        for v in atom.nodes:
            m = preassigned.get(v)
            if m is not None:
                pre[v] = m
        combined.merge(color_atom(
            graph, k, pre, module_choice, module_use, prefer, atom.mask
        ))
    # De-duplicate: a separator vertex removed in one atom but coloured in
    # another must not be in both lists; colouring wins (its copy exists).
    combined.unassigned = [
        v for v in combined.unassigned if v not in assigned
    ]
    _repair_improper_edges(graph, combined, set(preassigned))
    return combined


def _repair_improper_edges(
    graph: ConflictGraph, result: ColoringResult, caller_fixed: set[int]
) -> None:
    """Demote one endpoint of every improperly coloured edge.

    Two sources of clashes: (a) two separator vertices coloured in
    atoms that do not contain their edge (the atom composition is
    constraint-based, not permutation-based, so a vertex of a high
    separator can meet a vertex of a low one uncoloured-together);
    (b) caller pre-assignments from an earlier STOR phase that conflict
    outright.  Removal is always sound — the node joins ``V_unassigned``
    and the duplication stage resolves it, exactly the Fig. 2 framework.
    Preference: demote a non-pre-assigned endpoint (pre-assigned nodes
    already hold storage from an earlier phase); ties demote the larger
    node id.

    Edges are visited in sorted ``(u, v)`` order, reading the colouring
    as it is demoted: per node ``u``, ascending, the clashing
    neighbours above it are ``adj[u] & class[colour(u)]``, one AND
    against a per-colour node mask.
    """
    kern = graph.kernel()
    ids = kern.index.ids
    bit = kern.index.bit
    adj = kern.adj
    assignment = result.assignment
    classes: dict[int, int] = {}
    for v, m in assignment.items():
        i = bit.get(v)
        if i is not None:
            classes[m] = classes.get(m, 0) | (1 << i)
    coloured = 0
    for mask in classes.values():
        coloured |= mask
    for u in iter_bits(coloured):
        cu = assignment.get(ids[u])
        if cu is None:  # demoted by an earlier edge
            continue
        u_fixed = ids[u] in caller_fixed
        clash = (adj[u] & classes[cu]) >> (u + 1)
        for j in iter_bits(clash):
            w = u + 1 + j
            if ids[w] in caller_fixed and not u_fixed:
                demote = u
            else:
                demote = w
            classes[cu] &= ~(1 << demote)
            node = ids[demote]
            del assignment[node]
            result.unassigned.append(node)
            result.trace.append(ColoringStep(node, 0, 0, "removed", None))
            if demote == u:
                break
