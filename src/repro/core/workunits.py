"""The atoms of one allocation, as the colouring stage reads them.

The clique-separator decomposition (paper §2.1) yields atoms as node
masks over the conflict graph's one kernel
(:func:`repro.core.atoms.decompose_atoms`);
:func:`repro.core.coloring.color_graph` colours them one by one, in
decomposition order, calling :func:`decomposed_atoms` once per
decomposition.
"""

from __future__ import annotations

from .atoms import DEFAULT_MAX_NODES, Atom, decompose_atoms
from .conflict_graph import ConflictGraph

#: Runner names accepted by the ``runner`` knob, kept so that older
#: clients sending ``"serial"`` stay valid; atoms are always coloured
#: serially.
RUNNERS = ("serial",)


def decomposed_atoms(
    graph: ConflictGraph, max_nodes: int = DEFAULT_MAX_NODES
) -> list[Atom]:
    """The atoms of ``graph`` in decomposition order, as node masks over
    ``graph.kernel()`` with their sorted node ids (see
    :func:`repro.core.atoms.decompose_atoms`)."""
    return decompose_atoms(graph, max_nodes).units()
