"""Allocation work units: atoms as independent colouring tasks, with
rank-space delta reuse.

The clique-separator decomposition (paper §2.1) makes atoms independent
by construction — the only coupling between them is the running-
intersection composition rule: an atom's overlap with all earlier atoms
is one separator clique, imported as pre-assigned colours.
:func:`run_atom_units` colours the atoms one after another and merges
them in atom index order (``V_unassigned`` order feeds the duplication
stage's RNG tie-breaks, so merge order is part of the contract).

Each atom can be described by an :class:`AtomTask` — a frozen record of
its structure (sorted node ids, deduplicated instruction rows, weights)
plus the colouring configuration — whose **rank-space fingerprint**
normalises node ids to their sorted order 0..n-1 before hashing; cached
fragments store assignments/traces in rank space.  Every tie-break in
:func:`repro.core.coloring.color_atom` is rank-based (the bitset
kernel numbers bits in ascending id order), so two atoms that are
equal modulo an order-preserving relabelling — the normal situation
after editing one region of a program, which shifts all later value
ids — reuse each other's fragments exactly.  This is what the
:class:`repro.passes.delta.DeltaCache` stores.

``module_choice='least_used'`` shares a global module-usage vector
across atoms, so a fragment would depend on more than its atom; delta
reuse is disabled for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, cast

from .atoms import DEFAULT_MAX_NODES, component_atom_sets
from .conflict_graph import ConflictGraph

if TYPE_CHECKING:  # pragma: no cover - annotation-only
    from ..passes.delta import DeltaScope
    from .coloring import ColoringResult

#: Runner names accepted by the ``runner`` knob, kept so that older
#: clients sending ``"serial"`` stay valid; atoms are always coloured
#: serially.
RUNNERS = ("serial",)


# --------------------------------------------------------------------------
# Tasks
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class AtomTask:
    """One atom's colouring subproblem as pure data, from which the
    delta cache's fingerprints and fragments are made."""

    #: node ids, sorted ascending — position is the node's *rank*
    nodes: tuple[int, ...]
    #: deduplicated instruction rows (each sorted ascending), kernel order
    edge_ops: tuple[tuple[int, ...], ...]
    edge_weights: tuple[int, ...]
    k: int
    module_choice: str
    #: nodes coloured before all others (non-duplicable), sorted
    prefer: tuple[int, ...]

    def rank(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.nodes)}


def atom_task(
    atom: ConflictGraph,
    k: int,
    module_choice: str,
    prefer: set[int] | None,
) -> AtomTask:
    edge_ops, edge_weights = atom.edge_data()
    return AtomTask(
        nodes=tuple(sorted(atom.nodes)),
        edge_ops=tuple(tuple(sorted(ops)) for ops in edge_ops),
        edge_weights=tuple(edge_weights),
        k=k,
        module_choice=module_choice,
        prefer=tuple(sorted(v for v in (prefer or ()) if v in atom.nodes)),
    )


# --------------------------------------------------------------------------
# Rank-space fingerprints and fragments
# --------------------------------------------------------------------------


def task_fingerprint(task: AtomTask, pre: dict[int, int]) -> object:
    """The unit's delta payload, in rank space.

    Node ids are replaced by their rank within the atom's sorted node
    tuple; instruction rows keep their kernel order.  Two atoms equal
    modulo an order-preserving relabelling produce identical payloads —
    and :func:`color_atom` makes identical decisions on them, because
    the kernel's bit numbering *is* the rank order.
    """
    rank = task.rank()
    return {
        "n": len(task.nodes),
        "ops": [[rank[v] for v in row] for row in task.edge_ops],
        "w": list(task.edge_weights),
        "pre": [[rank[v], m] for v, m in sorted(pre.items())],
        "prefer": [rank[v] for v in task.prefer],
        "k": task.k,
        "module_choice": task.module_choice,
    }


def encode_fragment(
    task: AtomTask, result: "ColoringResult"
) -> dict[str, object]:
    """Serialise one atom's colouring result in rank space.

    Assignment entries keep their insertion order — the order values
    were coloured — because the combined ``assignment`` dict's
    iteration order flows into ``Allocation.history`` and therefore
    into the byte-identity witness (``encode_storage_result``).
    """
    rank = task.rank()
    return {
        "assign": [[rank[v], m] for v, m in result.assignment.items()],
        "unassigned": [rank[v] for v in result.unassigned],
        "trace": [
            [
                rank[s.node],
                s.urgency_numerator,
                s.modules_left,
                s.action,
                -1 if s.module is None else s.module,
            ]
            for s in result.trace
        ],
    }


def decode_fragment(
    task: AtomTask, fragment: dict[str, object]
) -> "ColoringResult":
    """Rehydrate a fragment against this task's (possibly different)
    node ids."""
    from .coloring import ColoringResult, ColoringStep

    ids = task.nodes
    result = ColoringResult(task.k)
    for r, m in cast("list[list[int]]", fragment["assign"]):
        result.assignment[ids[r]] = m
    result.unassigned = [
        ids[r] for r in cast("list[int]", fragment["unassigned"])
    ]
    for row in cast("list[list[object]]", fragment["trace"]):
        r, urgency, modules_left, action, module = row
        result.trace.append(
            ColoringStep(
                ids[cast(int, r)],
                cast(int, urgency),
                cast(int, modules_left),
                cast(str, action),
                None if cast(int, module) < 0 else cast(int, module),
            )
        )
    return result


# --------------------------------------------------------------------------
# Delta-cached decomposition
# --------------------------------------------------------------------------


def decomposed_atoms(
    graph: ConflictGraph,
    max_nodes: int = DEFAULT_MAX_NODES,
    delta: "DeltaScope | None" = None,
) -> list[ConflictGraph]:
    """The non-empty atoms of ``graph`` in decomposition order —
    :func:`repro.core.atoms.decompose_atoms` with the per-component
    MCS-M triangulation optionally served from the delta cache.

    The fragment for a component is the full ordered list of its atoms'
    rank sets; the fingerprint is the component's structure in rank
    space.  ``max_nodes`` is not part of the key: it only gates
    *whether* a component is decomposed (checked here), never how.
    """
    atom_sets: list[set[int]] = []
    for comp in graph.components():
        if len(comp) <= 2 or len(comp) > max_nodes:
            atom_sets.append(comp)
        elif delta is None:
            atom_sets.extend(component_atom_sets(graph, comp))
        else:
            atom_sets.extend(_cached_component_atoms(graph, comp, delta))
    return [graph.subgraph(s) for s in atom_sets]


def _cached_component_atoms(
    graph: ConflictGraph, comp: set[int], delta: "DeltaScope"
) -> list[set[int]]:
    ids = sorted(comp)
    rank = {v: i for i, v in enumerate(ids)}
    sub = graph.subgraph(comp)
    edge_ops, edge_weights = sub.edge_data()
    key = delta.key(
        "atom-decomposition",
        {
            "n": len(ids),
            "ops": [sorted(rank[v] for v in row) for row in edge_ops],
            "w": list(edge_weights),
        },
    )
    fragment = delta.get(key)
    if fragment is not None:
        return [
            {ids[r] for r in ranks}
            for ranks in cast("list[list[int]]", fragment["atoms"])
        ]
    atom_sets = component_atom_sets(graph, comp)
    delta.put(
        key,
        {"atoms": [sorted(rank[v] for v in s) for s in atom_sets]},
    )
    return atom_sets


# --------------------------------------------------------------------------
# The engine
# --------------------------------------------------------------------------


def _unit_pre(
    nodes: Sequence[int],
    assigned: dict[int, int],
    caller_preassigned: dict[int, int],
) -> dict[int, int]:
    """A unit's pre-assignment inputs: colours merged so far plus the
    caller's fixed placements, restricted to the unit's nodes.  Built
    in rank (sorted-id) order so the payload — and the trace order of
    the 'preassigned' steps — is deterministic and relabel-stable."""
    pre = {v: assigned[v] for v in nodes if v in assigned}
    for v in nodes:
        m = caller_preassigned.get(v)
        if m is not None:
            pre[v] = m
    return pre


def run_atom_units(
    atoms: Sequence[ConflictGraph],
    k: int,
    preassigned: dict[int, int],
    module_choice: str,
    prefer: set[int] | None,
    combined: "ColoringResult",
    module_use: list[int],
    delta: "DeltaScope | None" = None,
) -> None:
    """Colour ``atoms`` one by one and merge into ``combined`` in atom
    order.

    ``combined`` arrives seeded with the caller's pre-assignments;
    ``module_use`` is the shared usage vector (write-only under the
    ``first`` module choice; ``least_used`` reads it too, which turns
    delta reuse off).  The merged result is byte-identical across
    delta hits and misses.
    """
    from .coloring import color_atom

    scope = delta if module_choice == "first" else None
    for atom in atoms:
        nodes = sorted(atom.nodes)
        pre = _unit_pre(nodes, combined.assignment, preassigned)
        if scope is not None:
            task = atom_task(atom, k, module_choice, prefer)
            key = scope.key("atom-color", task_fingerprint(task, pre))
            fragment = scope.get(key)
            if fragment is not None:
                sub = decode_fragment(task, fragment)
                for module in sub.assignment.values():
                    module_use[module] += 1
            else:
                sub = color_atom(
                    atom, k, pre, module_choice, module_use, prefer
                )
                scope.put(key, encode_fragment(task, sub))
        else:
            sub = color_atom(atom, k, pre, module_choice, module_use, prefer)
        combined.merge(sub)
