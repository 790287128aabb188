"""Incremental-recompilation differential suite over shared caches.

For 50 seeded generator programs, apply a small source edit — the
paper-compiler analogue of a developer touching one region — and
compile the original and the mutant at two unroll factors through
**one** :class:`BatchCompiler`, whose front-end artifact cache and
allocation cache are shared by all of those jobs.  Every job's key
and storage result must be byte-identical to a cold compile of that
job alone (witnessed by ``encode_storage_result``, the same witness
the golden suite uses).  A pass that edited an artifact it read from
the shared cache would break this: the next job would start from the
edited artifact.

Mutations are textual and validated by parse + semantic analysis;
seed ``s`` applies the first valid one starting from ``s mod 3``:

- ``rename``: alpha-rename an identifier (ids and ranks untouched);
- ``constant``: tweak one integer literal (same shape, new value);
- ``region``: insert a statement into one region, shifting every later
  value id.
"""

import re

import pytest

from repro.lang import analyze, parse
from repro.lang.generator import random_source
from repro.liw.machine import MachineConfig
from repro.service.batch import BatchCompiler, BatchJob
from repro.service.cache import encode_storage_result

MACHINE = MachineConfig(num_fus=4, num_modules=4)
SEEDS = range(50)
UNROLLS = (2, 4)

_SHARED_HITS = {"hits": 0, "seeds": 0}


def _mutate_rename(source: str) -> str | None:
    if not re.search(r"\bv0\b", source):
        return None
    return re.sub(r"\bv0\b", "vren0", source)


def _mutate_constant(source: str) -> str | None:
    out = re.sub(
        r":= (\d+);",
        lambda m: f":= {int(m.group(1)) + 1};",
        source,
        count=1,
    )
    return out if out != source else None


def _mutate_region(source: str) -> str | None:
    if not re.search(r"\bv0\b", source):
        return None
    # new first statement in the outermost region: every value created
    # by later statements shifts its id
    return source.replace("begin\n", "begin\n  v0 := v0 + 2;\n", 1)


MUTATIONS = {
    "rename": _mutate_rename,
    "constant": _mutate_constant,
    "region": _mutate_region,
}


def _valid(source: str) -> bool:
    try:
        analyze(parse(source))
    except Exception:  # noqa: BLE001 - any rejection skips the mutant
        return False
    return True


def _mutant(seed: int, source: str) -> tuple[str, str]:
    names = list(MUTATIONS)
    for i in range(len(names)):
        name = names[(seed + i) % len(names)]
        mutated = MUTATIONS[name](source)
        if mutated is not None and _valid(mutated):
            return name, mutated
    raise AssertionError("every generator program must admit a mutation")


def _jobs(seed: int) -> list[BatchJob]:
    """One generator program and its mutant, at every unroll factor."""
    source = random_source(seed)
    name, mutated = _mutant(seed, source)
    strategy = ("STOR1", "STOR2", "STOR3")[seed % 3]
    return [
        BatchJob(
            f"{seed}.{label}.u{unroll}", text, machine=MACHINE,
            strategy=strategy, unroll=unroll, constants_in_memory=True,
        )
        for label, text in (("original", source), (name, mutated))
        for unroll in UNROLLS
    ]


def _witness(result) -> tuple[str | None, object]:
    assert result.ok, (result.job.name, result.error)
    return result.key, encode_storage_result(result.storage)


@pytest.mark.parametrize("seed", SEEDS)
def test_incremental_recompile_matches_cold(seed):
    jobs = _jobs(seed)
    compiler = BatchCompiler(workers=1)
    shared = compiler.run(jobs)
    # The first job met empty caches: it is its own cold run.
    for job, result in zip(jobs[1:], shared.results[1:]):
        cold = BatchCompiler(workers=1).run([job]).results[0]
        assert _witness(result) == _witness(cold), job.name
    _SHARED_HITS["hits"] += int(compiler.artifacts.stats()["hits"])
    _SHARED_HITS["seeds"] += 1


def test_corpus_actually_reuses_cached_artifacts():
    """Runs after the per-seed tests above: the jobs of each seed must
    really have been served from the shared artifact cache (the parse
    of one source is reused across unroll factors), or the
    differential would compare cold against cold."""
    assert _SHARED_HITS["seeds"] == len(SEEDS)
    assert _SHARED_HITS["hits"] >= 2 * len(SEEDS)


def test_identical_recompile_is_all_hits():
    """The degenerate edit (no change at all) is served entirely from
    the allocation cache, with identical results."""
    jobs = _jobs(5)
    compiler = BatchCompiler(workers=1)
    first = compiler.run(jobs)
    second = compiler.run(jobs)
    assert second.num_cache_hits == len(jobs)
    assert [_witness(r) for r in second.results] == [
        _witness(r) for r in first.results
    ]
