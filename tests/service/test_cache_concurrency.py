"""Concurrent multi-process AllocationCache writers.

The cache documents its disk writes as *atomic* (write to ``.tmp``,
``os.replace``).  These tests hammer one cache directory from several
processes — writers racing on the same keys while readers poll — and
assert the claimed property: no torn reads (every readable entry is
valid, decodable JSON), and no lost entries (every key every writer
claims to have written is present and readable afterwards).
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor

from repro.core.allocation import Allocation
from repro.core.strategies import StorageResult
from repro.service.batch import BatchCompiler
from repro.service.cache import (
    AllocationCache,
    decode_storage_result,
    encode_storage_result,
)

#: Keys shared by every writer — maximal contention.
KEYS = [f"key{i:02d}" for i in range(8)]


def _make_storage(copies: int) -> StorageResult:
    """A small deterministic StorageResult; `copies` varies the payload
    so different writers race with different bytes on the same key."""
    alloc = Allocation(4)
    for v in range(1, copies + 1):
        for m in range(v % 4 + 1):
            alloc.add_copy(v, m)
    return StorageResult("STOR1", alloc, [], [frozenset({1, 2})])


def _hammer(worker_id: int, directory: str, rounds: int) -> list[str]:
    """Worker entry point: interleave puts and gets over the shared keys.

    Returns the keys this worker wrote so the parent can assert none
    were lost.  Any torn read would raise inside ``get`` (JSON error)
    or surface as a quarantine, which the parent also checks for.
    """
    cache = AllocationCache(directory)
    written: list[str] = []
    for round_no in range(rounds):
        for i, key in enumerate(KEYS):
            if (worker_id + round_no + i) % 2 == 0:
                cache.put(key, _make_storage((worker_id + i) % 5 + 1))
                written.append(key)
            else:
                result = cache.get(key)
                if result is not None:
                    # Any readable entry must round-trip cleanly.
                    encode_storage_result(result)
    assert cache.corrupt == 0, "torn or malformed read observed"
    return written


def test_concurrent_writers_no_torn_reads_no_lost_entries(tmp_path):
    directory = str(tmp_path)
    workers, rounds = 4, 25
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_hammer, wid, directory, rounds)
            for wid in range(workers)
        ]
        written = [f.result(timeout=120) for f in futures]

    claimed = set().union(*map(set, written))
    assert claimed  # the schedule above always writes something

    # No lost entries: every claimed key is present on disk, parses as
    # JSON, and decodes into a StorageResult (i.e. last-writer-wins, but
    # never zero-writers-win and never a half-written file).
    fresh = AllocationCache(directory)
    for key in sorted(claimed):
        path = tmp_path / f"{key}.json"
        assert path.is_file(), f"lost entry {key}"
        entry = json.loads(path.read_text())  # would raise on a torn file
        decode_storage_result(entry)
        assert fresh.get(key) is not None
    assert fresh.corrupt == 0

    # Atomic replace leaves no temp droppings behind.
    assert not list(tmp_path.glob("*.tmp"))
    assert not list(tmp_path.glob("*.corrupt"))


def test_concurrent_same_key_last_writer_is_coherent(tmp_path):
    """Racing writers on ONE key: the surviving file equals one of the
    candidate payloads byte-for-byte — never an interleaving."""
    directory = str(tmp_path)
    with ProcessPoolExecutor(max_workers=4) as pool:
        futures = [
            pool.submit(_put_one, directory, wid) for wid in range(4)
        ]
        for f in futures:
            f.result(timeout=120)

    candidates = {
        json.dumps(encode_storage_result(_make_storage(c)), sort_keys=True)
        for c in range(1, 5)
    }
    survivor = (tmp_path / "contended.json").read_text()
    assert survivor in candidates


def _put_one(directory: str, worker_id: int) -> None:
    cache = AllocationCache(directory)
    for _ in range(50):
        cache.put("contended", _make_storage(worker_id % 4 + 1))


def _save_index_rounds(directory: str, worker_id: int) -> None:
    """Pool workers and separate ``batch``/``serve`` processes share
    one cache directory and each saves the batch service's source-key
    index into it."""
    compiler = BatchCompiler(workers=1, cache=AllocationCache(directory))
    for i in range(100):
        compiler._index[f"w{worker_id}-{i}"] = "key"
        compiler._save_index()


def test_concurrent_index_saves_never_fail(tmp_path):
    with ProcessPoolExecutor(max_workers=4) as pool:
        futures = [
            pool.submit(_save_index_rounds, str(tmp_path), wid)
            for wid in range(4)
        ]
        for f in futures:
            f.result(timeout=120)  # re-raises a failed save

    index = json.loads((tmp_path / BatchCompiler.INDEX_FILE).read_text())
    assert isinstance(index, dict) and index
    assert not list(tmp_path.glob("*.tmp"))


# --------------------------------------------------------------------------
# put() against readers on one key, in memory and on disk
# --------------------------------------------------------------------------


def test_put_vs_reader_race_property(tmp_path):
    """N reader threads hammering ``get`` while a writer ``put`` s one
    key back and forth between two payloads never observe a missing,
    partial, or foreign entry — every read is one of the two complete
    candidates, in memory and on disk."""
    import threading

    directory = str(tmp_path)
    cache = AllocationCache(directory)
    key = "put-target"
    payloads = [
        json.dumps(encode_storage_result(_make_storage(c)), sort_keys=True)
        for c in (1, 2)
    ]
    cache.put(key, _make_storage(1))

    stop = threading.Event()
    violations: list[str] = []

    def reader(disk: bool) -> None:
        # disk readers re-open the cache each round so every get goes
        # through the on-disk file (the in-memory map is per-instance)
        while not stop.is_set():
            c = AllocationCache(directory) if disk else cache
            result = c.get(key)
            if result is None:
                violations.append("reader observed a missing entry")
                return
            seen = json.dumps(
                encode_storage_result(result), sort_keys=True
            )
            if seen not in payloads:
                violations.append(f"reader observed a torn entry: {seen}")
                return

    def writer() -> None:
        for round_no in range(400):
            cache.put(key, _make_storage(round_no % 2 + 1))
        stop.set()

    readers = [
        threading.Thread(target=reader, args=(i % 2 == 0,))
        for i in range(6)
    ]
    flipper = threading.Thread(target=writer)
    for t in readers:
        t.start()
    flipper.start()
    flipper.join(timeout=120)
    stop.set()
    for t in readers:
        t.join(timeout=120)

    assert not violations, violations
    assert cache.corrupt == 0
    survivor = (tmp_path / f"{key}.json").read_text()
    assert survivor in payloads
    assert not list(tmp_path.glob("*.tmp"))
