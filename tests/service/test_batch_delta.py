"""Delta-cache wiring through the batch service (near-duplicate jobs)."""

from repro.lang.generator import random_source
from repro.passes.delta import DeltaCache
from repro.passes.events import Metrics
from repro.service.batch import BatchCompiler, BatchJob, _compile_and_key
from repro.service.cache import encode_storage_result


def _near_duplicate(source: str) -> str:
    # one-region structural edit: shifts every later value id
    return source.replace("begin\n", "begin\n  write(1);\n", 1)


def test_near_duplicate_jobs_reuse_fragments():
    source = random_source(4)
    jobs = [
        BatchJob("orig", source),
        BatchJob("edit", _near_duplicate(source)),
    ]
    delta = DeltaCache()
    compiler = BatchCompiler(workers=1, delta_cache=delta)
    report = compiler.run(jobs)
    assert report.num_ok == 2
    stats = report.as_dict()["delta_cache"]
    assert stats["hits"] > 0
    # per-job metrics surface the counters for --json consumers
    counters = report.results[1].metrics["counters"]
    assert "delta_hits" in counters and counters["delta_hits"] > 0


def test_delta_reuse_is_result_invariant():
    source = random_source(9)
    edited = _near_duplicate(source)
    cold = BatchCompiler(workers=1).run([BatchJob("edit", edited)])
    warm = BatchCompiler(workers=1, delta_cache=DeltaCache()).run(
        [BatchJob("orig", source), BatchJob("edit", edited)]
    )
    assert encode_storage_result(
        warm.results[1].storage
    ) == encode_storage_result(cold.results[0].storage)


def test_job_key_discipline():
    """max_atom_nodes changes results -> in the keys (when set);
    runner is accepted for compatibility only -> never in the keys."""
    base = BatchJob("j", "program p; begin write(1) end.")
    bounded = BatchJob(
        "j", "program p; begin write(1) end.", max_atom_nodes=4
    )
    serial = BatchJob(
        "j", "program p; begin write(1) end.", runner="serial"
    )
    assert bounded.source_key() != base.source_key()
    assert serial.source_key() == base.source_key()
    assert _compile_and_key(serial, Metrics())[1] == (
        _compile_and_key(base, Metrics())[1]
    )


def test_report_carries_delta_stats_block():
    report = BatchCompiler(workers=1).run(
        [BatchJob("one", random_source(2))]
    )
    block = report.as_dict()["delta_cache"]
    assert set(block) >= {"hits", "misses", "entries", "weight"}
