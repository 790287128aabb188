"""Integer-bitmask kernels for the allocation hot paths.

The paper's allocation phase (conflict graph -> Fig. 4 colouring ->
Fig. 6 backtracking / Figs. 7-10 hitting set) is combinatorial over two
small universes: the data values of one program region and the ``k``
memory modules.  Both fit comfortably in Python's arbitrary-precision
integers, so every hot structure in :mod:`repro.core` is expressed here
as a bitmask:

- **dense node numbering** — :class:`DenseIndex` maps value ids to bit
  positions in ascending id order, so iterating a mask's set bits from
  the least-significant end enumerates values in sorted order (the
  ordering every deterministic tie-break in the paper's heuristics is
  specified against);
- **adjacency as int rows** — :class:`GraphKernel` stores one adjacency
  mask per node plus one *instruction-membership* mask per node, so the
  co-occurrence count ``conf(u, v)`` is a single AND + popcount instead
  of a pair-keyed dict lookup;
- **module-occupancy masks** — an :class:`~repro.core.allocation
  .Allocation`'s copy-set for a value is mirrored as an int of module
  bits, turning the SDR conflict-freedom check into
  :func:`sdr_exists_masks` (Hall-style prechecks, then tiny Kuhn
  matching on masks);
- **popcount helpers** — :func:`iter_bits`, :func:`popcount`,
  :func:`submask_combinations`.

Every kernel increments the module-level :data:`COUNTERS`, which the
strategy layer snapshots per assignment stage and re-emits through the
pass Tracer (``kernel_*`` counts in ``--trace-json`` output), so the
speedup over the retained set-based reference implementations
(:mod:`repro.core.reference`) is observable, not asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import combinations
from typing import Iterable, Iterator, Sequence


def popcount(mask: int) -> int:
    """Number of set bits in ``mask``."""
    return mask.bit_count()


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set-bit positions of ``mask``, least significant first.

    With :class:`DenseIndex` numbering (ascending ids), this enumerates
    members in sorted-id order.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of_bits(bits: Iterable[int]) -> int:
    """OR together ``1 << b`` for every bit position in ``bits``."""
    mask = 0
    for b in bits:
        mask |= 1 << b
    return mask


def submask_combinations(mask: int, size: int) -> Iterator[int]:
    """All sub-masks of ``mask`` with exactly ``size`` bits set.

    Enumeration order follows ``itertools.combinations`` over the set
    bits in ascending position order; callers that need a canonical
    order sort the collected masks (mask-tuple order equals
    sorted-member-list order under dense ascending numbering).
    """
    bits = [1 << b for b in iter_bits(mask)]
    for combo in combinations(bits, size):
        sub = 0
        for b in combo:
            sub |= b
        yield sub


# --------------------------------------------------------------------------
# Kernel counters
# --------------------------------------------------------------------------


@dataclass(slots=True)
class KernelCounters:
    """Cheap global counters incremented by the bitset kernels.

    The strategy layer snapshots them around each assignment stage (see
    :func:`repro.core.strategies._timed_assign`) and attaches the deltas
    to the stage's Tracer event, so a ``--trace-json`` dump shows how
    much kernel work each STOR stage performed.

    ``instructions_deduped`` counts the rows collapsed into an earlier
    identical one, once per build of a
    :class:`~repro.core.verify.ConflictIndex` or a :class:`GraphKernel`
    (the only places rows are collapsed).  ``sdr_checks`` counts runs
    of :func:`sdr_exists_masks`; the index runs it once per distinct
    mask tuple it is asked about.
    """

    masks_built: int = 0
    conf_lookups: int = 0
    sdr_checks: int = 0
    sdr_fast_accepts: int = 0
    placements_enumerated: int = 0
    branches_pruned: int = 0
    memo_hits: int = 0
    combos_enumerated: int = 0
    instructions_deduped: int = 0
    lazy_counter_updates: int = 0

    def snapshot(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def delta_since(self, snapshot: dict[str, int]) -> dict[str, int]:
        return {
            name: getattr(self, name) - before
            for name, before in snapshot.items()
        }

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)


#: Process-wide counters; snapshot/delta around a region of interest.
COUNTERS = KernelCounters()


# --------------------------------------------------------------------------
# Dense numbering
# --------------------------------------------------------------------------


class DenseIndex:
    """Bijection between a fixed id set and bit positions ``0..n-1``.

    Bit order is ascending id order, so mask iteration via
    :func:`iter_bits` yields ids sorted — the property every
    deterministic tie-break in the ported heuristics relies on.
    """

    __slots__ = ("ids", "bit")

    def __init__(self, ids: Iterable[int]):
        self.ids: list[int] = sorted(ids)
        self.bit: dict[int, int] = {v: i for i, v in enumerate(self.ids)}

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, value: int) -> bool:
        return value in self.bit

    @property
    def universe_mask(self) -> int:
        return (1 << len(self.ids)) - 1

    def mask_of(self, values: Iterable[int]) -> int:
        bit = self.bit
        mask = 0
        for v in values:
            mask |= 1 << bit[v]
        return mask

    def ids_of(self, mask: int) -> list[int]:
        ids = self.ids
        return [ids[b] for b in iter_bits(mask)]


# --------------------------------------------------------------------------
# Graph kernel
# --------------------------------------------------------------------------


class GraphKernel:
    """Bitmask view of one conflict graph.

    ``adj[i]`` is the adjacency row of dense node ``i``; ``imem[i]`` is
    its membership mask over the *distinct* edge-bearing instructions
    (identical operand sets are deduplicated, their weights summed), so

    ``conf(u, v) = Σ weight[b] for b in bits(imem[u] & imem[v])``

    which degenerates to one AND + popcount when every distinct
    instruction has weight 1.
    """

    __slots__ = (
        "index", "adj", "imem", "instr_masks", "instr_weights", "_unit",
    )

    def __init__(
        self,
        index: DenseIndex,
        instr_ops: Sequence[frozenset[int]],
        instr_weights: Sequence[int],
    ):
        self.index = index
        n = len(index)
        # Deduplicate identical operand sets, accumulating weights.
        seen: dict[int, int] = {}  # instr mask -> dedup position
        masks: list[int] = []
        weights: list[int] = []
        for ops, w in zip(instr_ops, instr_weights):
            m = index.mask_of(ops)
            pos = seen.get(m)
            if pos is None:
                seen[m] = len(masks)
                masks.append(m)
                weights.append(w)
            else:
                weights[pos] += w
                COUNTERS.instructions_deduped += 1
        adj = [0] * n
        imem = [0] * n
        for b, m in enumerate(masks):
            instr_bit = 1 << b
            for i in iter_bits(m):
                adj[i] |= m
                imem[i] |= instr_bit
        for i in range(n):
            adj[i] &= ~(1 << i)
        self.adj = adj
        self.imem = imem
        self.instr_masks = masks
        self.instr_weights = weights
        self._unit = all(w == 1 for w in weights)
        COUNTERS.masks_built += n + len(masks)

    def __len__(self) -> int:
        return len(self.index)

    def degree(self, i: int) -> int:
        return self.adj[i].bit_count()

    def conf(self, i: int, j: int) -> int:
        """conf(u, v) between dense nodes ``i`` and ``j``."""
        COUNTERS.conf_lookups += 1
        common = self.imem[i] & self.imem[j]
        if self._unit:
            return common.bit_count()
        weights = self.instr_weights
        return sum(weights[b] for b in iter_bits(common))

    def strength(self, i: int, within: int) -> int:
        """``Σ_u conf(i, u)`` over the neighbours ``u`` in the node mask
        ``within`` (which holds ``i``) — the Fig. 4 total outgoing
        weight inside an induced subgraph, computed per instruction
        instead of per edge: an instruction with ``p`` operands in
        ``within``, ``i`` among them, contributes ``weight * (p - 1)``."""
        weights = self.instr_weights
        masks = self.instr_masks
        return sum(
            weights[b] * ((masks[b] & within).bit_count() - 1)
            for b in iter_bits(self.imem[i])
        )

    def edge_pairs(self) -> list[tuple[int, int]]:
        """All distinct co-occurring id pairs ``(u, v)`` with ``u < v``,
        sorted ascending."""
        ids = self.index.ids
        pairs: set[tuple[int, int]] = set()
        for m in self.instr_masks:
            members = [ids[b] for b in iter_bits(m)]
            for a in range(len(members)):
                u = members[a]
                for b in range(a + 1, len(members)):
                    pairs.add((u, members[b]))
        return sorted(pairs)

    def is_clique_mask(self, mask: int) -> bool:
        adj = self.adj
        for i in iter_bits(mask):
            if (mask & ~(1 << i)) & ~adj[i]:
                return False
        return True

    def component_mask(self, start: int, universe: int, excluded: int) -> int:
        """Connected component of dense node ``start`` within
        ``universe`` minus ``excluded``, as a mask."""
        allowed = universe & ~excluded
        if not (allowed >> start) & 1:
            return 0
        adj = self.adj
        comp = 1 << start
        frontier = comp
        while frontier:
            grow = 0
            for i in iter_bits(frontier):
                grow |= adj[i]
            frontier = grow & allowed & ~comp
            comp |= frontier
        return comp

    def component_masks(self, universe: int) -> list[int]:
        """Connected components of the subgraph induced on ``universe``,
        ordered by their smallest node."""
        out: list[int] = []
        rest = universe
        while rest:
            start = (rest & -rest).bit_length() - 1
            comp = self.component_mask(start, universe, 0)
            out.append(comp)
            rest &= ~comp
        return out


# --------------------------------------------------------------------------
# SDR (conflict-freedom) kernel
# --------------------------------------------------------------------------


def _augment(i: int, masks: Sequence[int], match: dict[int, int],
             visited: list[int]) -> bool:
    avail = masks[i] & ~visited[0]
    while avail:
        low = avail & -avail
        b = low.bit_length() - 1
        visited[0] |= low
        holder = match.get(b)
        if holder is None or _augment(holder, masks, match, visited):
            match[b] = i
            return True
        avail = masks[i] & ~visited[0]
    return False


def sdr_exists_masks(masks: Sequence[int]) -> bool:
    """Whether the family of module masks admits a system of distinct
    representatives (one module per mask, all distinct).

    Fast paths: an empty mask fails outright; a union narrower than the
    family fails (Hall on the whole family); every mask at least as wide
    as the family succeeds (greedy argument).  Otherwise tiny Kuhn
    matching over bits decides exactly.
    """
    n = len(masks)
    COUNTERS.sdr_checks += 1
    if n == 0:
        return True
    union = 0
    min_width = 1 << 60
    for m in masks:
        if not m:
            return False
        union |= m
        w = m.bit_count()
        if w < min_width:
            min_width = w
    if union.bit_count() < n:
        return False
    if min_width >= n:
        COUNTERS.sdr_fast_accepts += 1
        return True
    match: dict[int, int] = {}
    for i in sorted(range(n), key=lambda j: masks[j].bit_count()):
        if not _augment(i, masks, match, [0]):
            return False
    return True
