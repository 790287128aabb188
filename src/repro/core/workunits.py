"""Allocation work units: atoms coloured one by one.

The clique-separator decomposition (paper §2.1) makes atoms independent
by construction — the only coupling between them is the running-
intersection composition rule: an atom's overlap with all earlier atoms
is one separator clique, imported as pre-assigned colours.
:func:`run_atom_units` colours the atoms one after another and merges
them in atom index order (``V_unassigned`` order feeds the duplication
stage's RNG tie-breaks, so merge order is part of the contract).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .atoms import DEFAULT_MAX_NODES, decompose_atoms
from .conflict_graph import ConflictGraph

if TYPE_CHECKING:  # pragma: no cover - annotation-only
    from .coloring import ColoringResult

#: Runner names accepted by the ``runner`` knob, kept so that older
#: clients sending ``"serial"`` stay valid; atoms are always coloured
#: serially.
RUNNERS = ("serial",)


def decomposed_atoms(
    graph: ConflictGraph, max_nodes: int = DEFAULT_MAX_NODES
) -> list[ConflictGraph]:
    """The atoms of ``graph`` in decomposition order (see
    :func:`repro.core.atoms.decompose_atoms`)."""
    return decompose_atoms(graph, max_nodes).atoms


def _unit_pre(
    nodes: Sequence[int],
    assigned: dict[int, int],
    caller_preassigned: dict[int, int],
) -> dict[int, int]:
    """A unit's pre-assignment inputs: colours merged so far plus the
    caller's fixed placements, restricted to the unit's nodes.  Built
    in sorted-id order, which fixes the trace order of the
    'preassigned' steps."""
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
) -> None:
    """Colour ``atoms`` one by one and merge into ``combined`` in atom
    order.

    ``combined`` arrives seeded with the caller's pre-assignments;
    ``module_use`` is the shared usage vector (write-only under the
    ``first`` module choice; ``least_used`` reads it too).
    """
    from .coloring import color_atom

    for atom in atoms:
        pre = _unit_pre(sorted(atom.nodes), combined.assignment, preassigned)
        combined.merge(
            color_atom(atom, k, pre, module_choice, module_use, prefer)
        )
