"""Content-addressed memoization of storage-assignment results.

The cache key is a SHA-256 over a *canonical* JSON rendering of
everything the STOR strategies consume:

- the renamed program: per-instruction scalar operand sets in schedule
  order, the CFG block structure (successor lists — what the region
  computation sees), and each data value's duplicability flags;
- the machine shape (functional units, modules, ports, Δ);
- the strategy name and its knobs (method, k, groups, seed, ...).

Because the key is built with :mod:`hashlib` over sorted JSON (see
:func:`repro.passes.fingerprint.canonical_bytes`, which this module
shares with the pass manager's stage fingerprints) it is stable across
processes and interpreter invocations regardless of
``PYTHONHASHSEED`` — a hard requirement for the on-disk cache shared by
the batch workers.

This cache is the *final-result* tier of the two-level caching scheme:

- stage level — the pass manager's in-memory
  :class:`repro.passes.cache.ArtifactCache`, keyed by chained pass
  fingerprints, reuses live front-end artifacts (AST, CFG, renamed
  program, schedule) within a process;
- result level — this module's :class:`AllocationCache`, keyed by
  :func:`job_key` over the *semantic* program fingerprint, persists
  JSON-encoded storage results across processes and runs.

Cached entries round-trip the :class:`~repro.core.strategies
.StorageResult`'s allocation *including its placement history* (so
:meth:`~repro.core.allocation.Allocation.primary` is preserved) plus the
residual-conflict list — every field but the observation-only
``events`` — so a cache-reconstructed result equals the cold one.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path

from ..core.allocation import Allocation
from ..core.strategies import StorageResult
from ..ir.rename import RenamedProgram
from ..liw.machine import MachineConfig
from ..liw.schedule import Schedule
from ..passes.fingerprint import canonical_bytes as _canonical
from ..passes.fingerprint import encode_value as _encode_value


def program_fingerprint(schedule: Schedule, renamed: RenamedProgram) -> str:
    """Digest of the scheduled, renamed program as the strategies see it."""
    blocks = [
        [bs.block_index, [sorted(liw.scalar_operands()) for liw in bs.liws]]
        for bs in schedule.blocks
    ]
    succs = [list(b.succs) for b in renamed.cfg.blocks]
    values = [
        [v.id, v.multi_def, bool(v.def_sites or v.use_sites)]
        for v in renamed.values
    ]
    payload = {"blocks": blocks, "succs": succs, "values": values}
    return hashlib.sha256(_canonical(payload)).hexdigest()


def job_key(
    fingerprint: str,
    machine: MachineConfig,
    strategy: str,
    method: str = "hitting_set",
    k: int | None = None,
    **knobs: object,
) -> str:
    """Cache key for one (program, machine, strategy-configuration) job."""
    payload = {
        "fingerprint": fingerprint,
        "machine": [
            machine.num_fus, machine.num_modules, machine.ports, machine.delta
        ],
        "strategy": strategy.upper(),
        "method": method,
        "k": machine.k if k is None else k,
        "knobs": {key: _knob_repr(value) for key, value in knobs.items()},
    }
    return hashlib.sha256(_canonical(payload)).hexdigest()


def _knob_repr(value: object) -> str:
    """Canonical rendering of one strategy knob.

    Knobs hash through :func:`repro.passes.fingerprint.canonical_bytes`
    (after :func:`~repro.passes.fingerprint.encode_value`), not ``repr``:
    ``repr`` made equal-valued knobs of different container types —
    ``(1, 2)`` vs ``[1, 2]`` — produce different keys, i.e. spurious
    cache misses.  For scalar knobs (ints, floats) the canonical JSON
    text coincides with ``repr``, so keys that were already correct are
    unchanged (pinned by ``tests/service/test_cache.py``).
    """
    return _canonical(_encode_value(value)).decode("utf-8")


# --------------------------------------------------------------------------
# StorageResult (de)serialisation
# --------------------------------------------------------------------------


def encode_storage_result(result: StorageResult) -> dict[str, object]:
    """Canonical JSON-able form; also the equality witness used by the
    serial-vs-parallel tests ("bit-identical" results)."""
    alloc = result.allocation
    return {
        "strategy": result.strategy,
        "k": alloc.k,
        "history": [[v, m] for v, m in alloc.history],
        "residual": sorted(sorted(ops) for ops in result.residual_instructions),
    }


def decode_storage_result(data: dict[str, object]) -> StorageResult:
    alloc = Allocation(int(data["k"]))
    for v, m in data["history"]:  # type: ignore[union-attr]
        alloc.add_copy(int(v), int(m))
    residual = [frozenset(ops) for ops in data["residual"]]  # type: ignore[union-attr]
    return StorageResult(str(data["strategy"]), alloc, residual)


class AllocationCache:
    """In-memory + optional on-disk store of encoded storage results.

    ``directory`` enables persistence: each entry is one
    ``<key>.json`` file, written atomically, so concurrent runs and
    repeated corpus sweeps (benchmarks, fuzz replays) share work.
    """

    def __init__(self, directory: str | os.PathLike[str] | None = None):
        self._memory: dict[str, dict[str, object]] = {}
        #: serialises ``put`` calls from concurrent threads of one
        #: process; cross-process atomicity rests on the tmp-file +
        #: ``os.replace`` protocol.
        self._lock = threading.Lock()
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        #: entries that were valid JSON but not a decodable StorageResult
        #: (schema drift, truncated history, foreign files) — each one is
        #: quarantined on disk and counted as a miss.
        self.corrupt = 0

    def _path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{key}.json"

    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, key: str) -> bool:
        return self.peek(key) is not None

    def peek(self, key: str) -> dict[str, object] | None:
        """Encoded entry for ``key`` without touching hit/miss counters."""
        entry = self._memory.get(key)
        if entry is not None:
            return entry
        if self.directory is not None:
            path = self._path(key)
            if path.is_file():
                try:
                    entry = json.loads(path.read_text())
                except (OSError, json.JSONDecodeError):
                    return None
                self._memory[key] = entry
                return entry
        return None

    def decode(self, key: str, entry: dict[str, object]) -> StorageResult | None:
        """Decode one peeked entry, quarantining it on schema mismatch.

        ``peek`` happily returns anything that parses as JSON; a disk
        entry written by an older schema (or a foreign ``<key>.json``
        dropped into the cache directory) would crash
        :func:`decode_storage_result` with ``KeyError``/``TypeError``.
        Such entries are treated as misses: the in-memory copy is
        dropped, the backing file is renamed to ``<key>.json.corrupt``
        (so it never poisons another lookup but stays inspectable), and
        the ``corrupt`` counter records the event.
        """
        try:
            return decode_storage_result(entry)
        except (KeyError, TypeError, ValueError, AttributeError):
            self.corrupt += 1
            self._memory.pop(key, None)
            if self.directory is not None:
                self._quarantine(self._path(key))
            return None

    def _quarantine(self, path: Path) -> None:
        try:
            if path.is_file():
                path.replace(path.with_name(path.name + ".corrupt"))
        except OSError:
            pass  # a concurrent reader may have quarantined it already

    def get(self, key: str) -> StorageResult | None:
        entry = self.peek(key)
        if entry is None:
            self.misses += 1
            return None
        result = self.decode(key, entry)
        if result is None:
            self.misses += 1
            return None
        self.hits += 1
        return result

    def _write_disk(self, key: str, entry: dict[str, object]) -> None:
        """Atomically publish ``entry`` as ``<key>.json``.

        The temp name must be writer-unique: a shared `<key>.tmp`
        lets two processes racing on one key clobber each other's
        half-written file and lose the os.replace (observed as
        FileNotFoundError under tests/service/test_cache_concurrency).
        """
        assert self.directory is not None
        path = self._path(key)
        tmp = path.with_name(
            f"{key}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        tmp.write_text(json.dumps(entry, sort_keys=True))
        os.replace(tmp, path)

    def put(self, key: str, result: StorageResult) -> None:
        entry = encode_storage_result(result)
        with self._lock:
            self._memory[key] = entry
            if self.directory is not None:
                self._write_disk(key, entry)

    def clear(self, *, disk: bool = False) -> None:
        self._memory.clear()
        self.hits = self.misses = self.corrupt = 0
        if disk and self.directory is not None:
            for path in self.directory.glob("*.json"):
                path.unlink(missing_ok=True)

    def stats(self) -> dict[str, object]:
        lookups = self.hits + self.misses
        return {
            "entries": len(self._memory),
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }
