"""Stage-level artifact cache keyed by chained pass fingerprints.

An :class:`ArtifactCache` maps a pass's fingerprint (see
:mod:`repro.passes.fingerprint`) to the dict of artifacts that pass
wrote.  Because the fingerprint folds in the source text and every
upstream configuration knob, a hit is exact: the cached objects are the
ones the pass would have recomputed.

This is an **in-memory, intra-process** cache of live Python objects
(ASTs, CFGs, schedules) — the complement of the JSON-serialised,
on-disk :class:`repro.service.cache.AllocationCache` that persists only
final storage results.  Entries are shared by reference, so every pass
must leave the artifacts it reads unchanged and build new structures
for what it writes (``unroll`` and ``simplify`` copy the nodes they
rewrite; ``tests/passes/test_pass_purity.py`` pins this).  The one
stated exception is ``sema``, which annotates the AST with types in
place; the annotations are idempotent, so a second run over a shared
AST writes the same values.

Eviction is LRU; every entry costs one unit against ``max_entries``.
"""

from __future__ import annotations

from collections import OrderedDict


class ArtifactCache:
    """LRU cache: pass fingerprint -> {artifact name: value}."""

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, dict[str, object]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def get(self, fingerprint: str) -> dict[str, object] | None:
        entry = self._entries.get(fingerprint)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(fingerprint)
        self.hits += 1
        return entry

    def put(self, fingerprint: str, artifacts: dict[str, object]) -> int:
        """Store an entry; returns how many LRU entries were evicted to
        make room (the pass manager surfaces the count on the pass's
        Tracer event)."""
        self._entries.pop(fingerprint, None)
        self._entries[fingerprint] = dict(artifacts)
        evicted = 0
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            evicted += 1
        self.evictions += evicted
        return evicted

    def clear(self) -> None:
        self._entries.clear()
        self.hits = self.misses = self.evictions = 0

    def stats(self) -> dict[str, object]:
        lookups = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }
