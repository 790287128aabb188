"""Stage-level cache reuse: a shared :class:`ArtifactCache` lets a
second compilation of the same source skip every pass whose fingerprint
matches — the headline case being "same program, different storage
strategy" reusing the whole front end."""

import pytest

from repro.passes.artifacts import PipelineOptions
from repro.passes.cache import ArtifactCache
from repro.passes.events import CollectingTracer
from repro.passes.registry import compile_passes_for
from repro.pipeline import compile_source, run_pipeline
from repro.programs import all_programs
from repro.service.batch import BatchCompiler, BatchJob
from repro.service.cache import encode_storage_result

SRC = all_programs()[0].source


def _run(options: PipelineOptions, cache: ArtifactCache):
    tracer = CollectingTracer()
    run = run_pipeline(SRC, options, passes=compile_passes_for(),
                       tracer=tracer, cache=cache)
    return run, tracer


def test_identical_rerun_hits_every_pass():
    cache = ArtifactCache()
    cold, _ = _run(PipelineOptions(), cache)
    assert cold.cache_hits == 0
    # unroll (factor 1) and array-opt (array_layout='fixed') are
    # disabled (skip): neither hit nor miss
    assert cold.cache_misses == len(compile_passes_for()) - 2

    warm, tracer = _run(PipelineOptions(), cache)
    assert warm.cache_misses == 0
    # the disabled passes skip, everything else served from cache
    assert warm.cache_hits == len(compile_passes_for()) - 2
    assert len(tracer.cache_hits()) == warm.cache_hits
    assert encode_storage_result(warm.artifact("storage")) == \
        encode_storage_result(cold.artifact("storage"))


def test_changed_strategy_reuses_front_end():
    cache = ArtifactCache()
    _run(PipelineOptions(strategy="STOR1"), cache)

    run, tracer = _run(PipelineOptions(strategy="STOR2"), cache)
    hit_names = {e.name for e in tracer.events if e.status == "cache-hit"}
    assert hit_names == {"parse", "sema", "lower", "simplify",
                         "rename", "schedule"}
    assert run.cache_misses == 1  # only allocate reran
    assert run.artifact("storage").strategy == "STOR2"

    # a third run flipping only the duplication method: same reuse
    run3, tracer3 = _run(
        PipelineOptions(strategy="STOR2", method="backtrack"), cache
    )
    assert run3.cache_misses == 1
    assert len(tracer3.cache_hits()) == 6


def test_changed_front_end_knob_invalidates_downstream():
    cache = ArtifactCache()
    _run(PipelineOptions(), cache)

    run, tracer = _run(PipelineOptions(rename_mode="variable"), cache)
    hits = {e.name for e in tracer.events if e.status == "cache-hit"}
    assert hits == {"parse", "sema", "lower", "simplify"}
    # rename, schedule, allocate all recompute
    assert run.cache_misses == 3


def test_cache_eviction_is_lru():
    cache = ArtifactCache(max_entries=2)
    assert cache.put("a", {"x": 1}) == 0
    assert cache.put("b", {"x": 2}) == 0
    assert cache.get("a") is not None  # refresh a
    assert cache.put("c", {"x": 3}) == 1  # evicts b
    assert "b" not in cache
    assert cache.get("a") is not None
    assert cache.get("c") is not None
    stats = cache.stats()
    assert stats["entries"] == 2
    assert stats["hits"] == 3
    assert stats["misses"] == 0
    assert stats["evictions"] == 1


def test_unweighted_mode_is_unchanged():
    cache = ArtifactCache(max_entries=2)
    cache.put("a", {"x": 1})
    cache.put("b", {"x": 2})
    cache.put("c", {"x": 3})
    assert len(cache) == 2 and "a" not in cache
    assert "weight" not in cache.stats()


def test_invalid_bounds_rejected():
    with pytest.raises(ValueError):
        ArtifactCache(max_entries=0)


def test_cache_evictions_surface_in_tracer_events():
    """A pass whose cache.put displaces LRU entries reports the count on
    its "end" event (and so in --trace-json output)."""
    # Tiny cache: every pass insertion evicts an earlier pass's entry.
    cache = ArtifactCache(max_entries=1)
    _, tracer = _run(PipelineOptions(), cache)
    evicting = [
        e
        for e in tracer.events
        if e.status == "end" and e.counts.get("cache_evictions")
    ]
    assert evicting, "expected at least one pass to report evictions"
    assert all(e.counts["cache_evictions"] == 1 for e in evicting)
    assert cache.stats()["evictions"] == len(evicting)

    # A roomy cache evicts nothing and reports nothing.
    cache = ArtifactCache()
    _, tracer = _run(PipelineOptions(), cache)
    assert not any(
        e.counts.get("cache_evictions")
        for e in tracer.events
        if e.status == "end"
    )
    assert cache.stats()["evictions"] == 0


def test_compile_source_shares_cache():
    cache = ArtifactCache()
    compile_source(SRC, cache=cache)
    from repro.passes.events import Metrics

    metrics = Metrics()
    compile_source(SRC, metrics=metrics, cache=cache)
    assert metrics.counters["pass_cache_hits"] == 6
    assert metrics.counters.get("pass_cache_misses", 0) == 0


def test_batch_compiler_reuses_front_end_across_strategies(tmp_path):
    jobs = [
        BatchJob("fft-stor1", SRC, strategy="STOR1"),
        BatchJob("fft-stor2", SRC, strategy="STOR2"),
        BatchJob("fft-stor3", SRC, strategy="STOR3"),
    ]
    compiler = BatchCompiler(workers=1)
    report = compiler.run(jobs)
    assert report.num_ok == 3
    # first job compiles the 6 front-end passes; the next two reuse
    # every front-end artifact and only run their storage strategy
    assert report.artifact_stats["hits"] == 12
    assert report.artifact_stats["misses"] == 6
    for result in report.results[1:]:
        assert result.metrics["counters"]["pass_cache_hits"] == 6
    assert "frontend_cache" in report.as_dict()


def test_array_opt_knob_reuses_whole_fixed_pipeline():
    """`array_layout="optimize"` sits downstream of allocation: flipping
    it on reuses every cached pass of a previous fixed run and executes
    exactly the array-opt pass."""
    cache = ArtifactCache()
    fixed, tracer_fixed = _run(PipelineOptions(), cache)
    assert any(
        e.name == "array-opt" and e.status == "skip"
        for e in tracer_fixed.events
    )
    assert fixed.store.get_optional("array_plan") is None

    run, tracer = _run(PipelineOptions(array_layout="optimize"), cache)
    hits = {e.name for e in tracer.events if e.status == "cache-hit"}
    assert hits == {"parse", "sema", "lower", "simplify", "rename",
                    "schedule", "allocate"}
    assert run.cache_misses == 1  # only array-opt executed
    plan = run.store.get_optional("array_plan")
    assert plan is not None and plan.specs

    # conflict counters surface on the pass's end event
    (end,) = [e for e in tracer.events
              if e.name == "array-opt" and e.status == "end"]
    assert end.counts["array_conflicts_predicted"] >= \
        end.counts["array_conflicts_after"]
    assert end.counts["arrays_planned"] == len(plan.specs)
