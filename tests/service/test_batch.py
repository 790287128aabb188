"""BatchCompiler: serial/parallel equality, caching, and fallback paths."""

import json
import os
import time
from pathlib import Path

import pytest

from repro.liw.machine import MachineConfig
from repro.programs import all_programs
from repro.passes.cache import ArtifactCache
from repro.service import AllocationCache, BatchCompiler, BatchJob, batch
from repro.service.batch import _compile_and_key, _execute_job
from repro.service.cache import encode_storage_result


def _registry_jobs(strategy="STOR1", unroll=1):
    machine = MachineConfig(num_fus=4, num_modules=8)
    return [
        BatchJob(
            spec.name,
            spec.source,
            machine,
            strategy=strategy,
            unroll=unroll,
        )
        for spec in all_programs()
    ]


def _encodings(report):
    assert all(r.ok for r in report.results), [
        r.error for r in report.results
    ]
    return [encode_storage_result(r.storage) for r in report.results]


# -- worker stand-ins (top-level so the pool can pickle them) ---------------


def _sleepy_worker(job, cache_dir):
    time.sleep(30)
    raise AssertionError("unreachable")  # pragma: no cover


def _dying_worker(job, cache_dir):
    os._exit(3)  # pragma: no cover - the exit *is* the behaviour


def _failing_worker(job, cache_dir):
    raise RuntimeError(f"worker rejected {job.name}")


# -- serial vs parallel ------------------------------------------------------


def test_parallel_equals_serial_on_full_registry():
    jobs = _registry_jobs()
    serial = BatchCompiler(workers=1, cache=AllocationCache()).run(jobs)
    parallel = BatchCompiler(workers=4, cache=AllocationCache()).run(jobs)
    assert _encodings(serial) == _encodings(parallel)
    assert {r.mode for r in serial.results} == {"serial"}
    assert {r.mode for r in parallel.results} == {"parallel"}
    assert serial.num_cache_hits == 0
    assert parallel.num_cache_hits == 0


@pytest.mark.parametrize("strategy", ["STOR2", "STOR3"])
def test_parallel_equals_serial_other_strategies(strategy):
    jobs = _registry_jobs(strategy=strategy)[:3]
    serial = BatchCompiler(workers=1, cache=AllocationCache()).run(jobs)
    parallel = BatchCompiler(workers=2, cache=AllocationCache()).run(jobs)
    assert _encodings(serial) == _encodings(parallel)


# -- caching -----------------------------------------------------------------


def test_second_run_served_from_cache():
    jobs = _registry_jobs()
    compiler = BatchCompiler(workers=1, cache=AllocationCache())
    cold = compiler.run(jobs)
    warm = compiler.run(jobs)
    assert _encodings(cold) == _encodings(warm)
    assert warm.num_cache_hits == len(jobs)
    assert warm.hit_rate == 1.0
    assert {r.mode for r in warm.results} == {"cache"}
    assert warm.wall_time < cold.wall_time


def test_disk_cache_shared_across_compilers(tmp_path):
    jobs = _registry_jobs()
    cold = BatchCompiler(
        workers=2, cache=AllocationCache(tmp_path)
    ).run(jobs)
    assert cold.num_cache_hits == 0

    # A fresh compiler (fresh process in real use) with the same cache
    # directory: the index brings every job straight from disk.
    warm = BatchCompiler(
        workers=2, cache=AllocationCache(tmp_path)
    ).run(jobs)
    assert _encodings(cold) == _encodings(warm)
    assert warm.num_cache_hits == len(jobs)
    assert warm.hit_rate >= 0.9


def test_workers_share_disk_cache(tmp_path):
    """With a disk cache, pool workers themselves see earlier results
    (no parent index involved — the entry is found by content key)."""
    job = _registry_jobs()[0]
    cold = _execute_job(job, str(tmp_path))
    assert cold.ok and not cold.cache_hit
    warm = _execute_job(job, str(tmp_path))
    assert warm.cache_hit
    assert warm.key == cold.key
    assert encode_storage_result(warm.storage) == encode_storage_result(
        cold.storage
    )
    # On a hit the worker skipped allocation: no STOR stage was timed.
    stor_stages = [
        s for s in warm.metrics["stages"] if str(s["name"]).startswith("STOR")
    ]
    assert stor_stages == []


def test_pool_results_written_to_disk_once(tmp_path, monkeypatch):
    """A pool worker publishes each miss as ``<key>.json``; the parent
    counts the job but never encodes and writes the entry again."""
    parent = os.getpid()
    writes = []
    real_write = AllocationCache._write_disk

    def counting_write(self, key, entry):
        if os.getpid() == parent:
            writes.append(key)
        real_write(self, key, entry)

    monkeypatch.setattr(AllocationCache, "_write_disk", counting_write)
    jobs = _registry_jobs()[:3]
    cache = AllocationCache(tmp_path)
    report = BatchCompiler(workers=2, cache=cache).run(jobs)
    assert report.num_ok == 3
    assert all(r.mode == "parallel" for r in report.results)
    assert writes == []
    assert cache.stats()["misses"] == 3
    for result in report.results:
        assert (tmp_path / f"{result.key}.json").is_file()
        assert cache.peek(result.key) == encode_storage_result(result.storage)


def test_mixed_corpus_partial_hits():
    jobs = _registry_jobs()
    compiler = BatchCompiler(workers=1, cache=AllocationCache())
    compiler.run(jobs[:3])
    report = compiler.run(jobs)
    assert report.num_cache_hits == 3
    assert report.num_ok == len(jobs)


# -- fallback paths ----------------------------------------------------------


def test_timeout_falls_back_to_serial():
    jobs = _registry_jobs()[:2]
    compiler = BatchCompiler(
        workers=2, timeout=0.25, cache=AllocationCache(),
        worker_fn=_sleepy_worker,
    )
    t0 = time.monotonic()
    report = compiler.run(jobs)
    assert time.monotonic() - t0 < 20  # nobody waited for the sleeper
    assert report.num_ok == len(jobs)
    assert all(r.timed_out for r in report.results)
    assert {r.mode for r in report.results} == {"serial-fallback"}

    want = BatchCompiler(workers=1, cache=AllocationCache()).run(jobs)
    assert _encodings(report) == _encodings(want)


def test_dead_worker_falls_back_to_serial():
    jobs = _registry_jobs()[:3]
    report = BatchCompiler(
        workers=2, cache=AllocationCache(), worker_fn=_dying_worker
    ).run(jobs)
    assert report.num_ok == len(jobs)
    assert {r.mode for r in report.results} <= {"serial", "serial-fallback"}

    want = BatchCompiler(workers=1, cache=AllocationCache()).run(jobs)
    assert _encodings(report) == _encodings(want)


def test_worker_exception_recorded_without_fallback():
    """A job-level exception is deterministic — recorded, not retried."""
    jobs = _registry_jobs()[:2]
    report = BatchCompiler(
        workers=2, cache=AllocationCache(), worker_fn=_failing_worker
    ).run(jobs)
    assert report.num_ok == 0
    assert all("worker rejected" in (r.error or "") for r in report.results)


def test_bad_source_is_a_job_error_not_a_batch_error():
    jobs = [
        BatchJob("GOOD", _registry_jobs()[0].source),
        BatchJob("BAD", "program oops; begin nope end."),
    ]
    report = BatchCompiler(workers=1, cache=AllocationCache()).run(jobs)
    good, bad = report.results
    assert good.ok
    assert not bad.ok and bad.error is not None


def test_non_ascii_digit_is_a_lex_error_job():
    jobs = [BatchJob("BAD", "program p; var x: int; begin x := ²; write(x) end.")]
    [bad] = BatchCompiler(workers=1, cache=AllocationCache()).run(jobs).results
    assert not bad.ok
    assert bad.error == "LexError(\"unexpected character '²' at 1:35\")"


def test_workers_one_never_spawns_pool(monkeypatch):
    def boom(*args, **kwargs):  # pragma: no cover - must not be called
        raise AssertionError("pool should not start with workers=1")

    monkeypatch.setattr(
        "repro.service.batch.ProcessPoolExecutor", boom
    )
    report = BatchCompiler(workers=1, cache=AllocationCache()).run(
        _registry_jobs()[:2]
    )
    assert report.num_ok == 2


# -- array-layout optimization ----------------------------------------------


def _fft_job(array_layout="fixed", workers_machine_k=8):
    spec = next(s for s in all_programs() if s.name == "FFT")
    return BatchJob(
        spec.name,
        spec.source,
        MachineConfig(num_fus=4, num_modules=workers_machine_k),
        unroll=2,
        array_layout=array_layout,
    )


def test_array_layout_fixed_leaves_keys_unchanged():
    """Cache-key discipline: the knob enters source/job keys only when
    it is actually on — default jobs keep their pre-knob digests."""
    base = _fft_job()
    explicit = _fft_job(array_layout="fixed")
    opt = _fft_job(array_layout="optimize")
    assert base.source_key() == explicit.source_key()
    assert opt.source_key() != base.source_key()


def test_optimize_jobs_produce_a_plan_serial_and_parallel():
    specs = [s for s in all_programs() if s.name in ("FFT", "SORT")]
    jobs = [
        BatchJob(
            s.name, s.source, MachineConfig(num_fus=4, num_modules=8),
            unroll=2, array_layout="optimize",
        )
        for s in specs
    ]
    serial = BatchCompiler(workers=1, cache=AllocationCache()).run(jobs)
    parallel = BatchCompiler(workers=2, cache=AllocationCache()).run(jobs)
    for report, mode in ((serial, "serial"), (parallel, "parallel")):
        for res in report.results:
            assert res.ok and res.mode == mode
            assert res.plan is not None
            assert res.plan.k == 8
            assert res.plan.specs
            summary = res.summary()
            assert summary["array_opt"]["specs"] \
                == res.plan.as_dict()["specs"]
    # the plan is deterministic, so both modes agree on it
    for s_res, p_res in zip(serial.results, parallel.results):
        assert s_res.plan.as_dict() == p_res.plan.as_dict()
    # and the storage allocation itself is the knob-independent one
    assert _encodings(serial) == _encodings(parallel)


def test_fixed_jobs_carry_no_plan():
    report = BatchCompiler(workers=1, cache=AllocationCache()).run(
        [_fft_job()]
    )
    (res,) = report.results
    assert res.ok and res.plan is None
    assert "array_opt" not in res.summary()


def test_optimize_storage_matches_fixed_storage():
    """The optimizer never perturbs scalar allocation: same program
    compiled with and without the knob yields identical storage."""
    fixed = BatchCompiler(workers=1, cache=AllocationCache()).run(
        [_fft_job()]
    )
    opt = BatchCompiler(workers=1, cache=AllocationCache()).run(
        [_fft_job(array_layout="optimize")]
    )
    assert _encodings(fixed) == _encodings(opt)


def test_optimize_second_run_hits_cache_with_plan():
    jobs = [_fft_job(array_layout="optimize")]
    compiler = BatchCompiler(workers=1, cache=AllocationCache())
    compiler.run(jobs)
    warm = compiler.run(jobs)
    (res,) = warm.results
    assert res.cache_hit
    assert res.plan is not None  # recomputed, not persisted


# -- metrics -----------------------------------------------------------------


def test_report_metrics_and_stage_totals():
    jobs = _registry_jobs()[:2]
    report = BatchCompiler(workers=1, cache=AllocationCache()).run(jobs)
    data = report.as_dict()
    assert data["num_ok"] == 2
    totals = data["stage_totals"]
    assert "STOR1.assign" in totals
    assert {"parse", "rename", "schedule"} <= set(totals)
    job_metrics = data["job_metrics"][jobs[0].name]
    stor = [
        s for s in job_metrics["stages"] if s["name"] == "STOR1.assign"
    ][0]
    assert stor["graph_values"] > 0
    assert stor["graph_edges"] > 0
    assert stor["atoms"] >= 1
    assert stor["copies_created"] >= 0
    assert job_metrics["counters"]["cache_misses"] == 1


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
    assert _compile_and_key(serial)[1] == (
        _compile_and_key(base)[1]
    )


# -- report contract ---------------------------------------------------------

_CONTRACT = Path(__file__).with_name("batch_report_contract.json")


def _untimed(value):
    """``value`` with every time replaced by a placeholder."""
    if isinstance(value, dict):
        return {
            k: "<time>" if k in ("wall_time", "total_time") else _untimed(v)
            for k, v in value.items()
        }
    if isinstance(value, list):
        return [_untimed(v) for v in value]
    return value


def _contract_reports():
    """Two runs of one compiler over a fixed job mix: STOR1/2/3 over one
    source (the front end is served from the pass cache), one
    ``array_layout="optimize"`` job, then the same mix again (the fixed
    jobs are served from the source index)."""
    programs = {s.name: s.source for s in all_programs()}
    machine = MachineConfig(num_fus=4, num_modules=8)
    jobs = [
        BatchJob(f"TAYLOR1-{s}", programs["TAYLOR1"], machine, strategy=s)
        for s in ("STOR1", "STOR2", "STOR3")
    ]
    jobs.append(
        BatchJob("FFT-opt", programs["FFT"], machine, array_layout="optimize")
    )
    compiler = BatchCompiler(workers=1, cache=AllocationCache())
    reports = [compiler.run(jobs).as_dict() for _ in range(2)]
    for report in reports:
        report["stage_totals"] = dict.fromkeys(report["stage_totals"], "<time>")
    return _untimed(reports)


def test_batch_report_contract():
    """Stage names, order and counts, counters, and both caches' stats
    of a fixed job mix, pinned apart from times.  Regenerate only for
    an intended report change:
    ``PYTHONPATH=src python -m tests.service.test_batch``."""
    assert _contract_reports() == json.loads(_CONTRACT.read_text())


def test_job_metrics_equal_serial_and_parallel(monkeypatch):
    """Both job paths report the same metrics (times apart).  The jobs
    share no front end, and the workers start with an empty pass cache
    (a forked worker inherits the parent's), so pass-cache hits cannot
    tell the paths apart."""
    monkeypatch.setattr(batch, "_WORKER_ARTIFACTS", ArtifactCache())
    programs = {s.name: s.source for s in all_programs()}
    machine = MachineConfig(num_fus=3, num_modules=4)
    jobs = [
        BatchJob("TAYLOR1", programs["TAYLOR1"], machine, strategy="STOR2"),
        BatchJob("FFT", programs["FFT"], machine, strategy="STOR3"),
        BatchJob("SORT", programs["SORT"], machine, array_layout="optimize"),
    ]
    serial, parallel = (
        BatchCompiler(workers=n, cache=AllocationCache()).run(jobs)
        for n in (1, 2)
    )
    assert {r.mode for r in parallel.results} == {"parallel"}
    assert _untimed(serial.as_dict()["job_metrics"]) == _untimed(
        parallel.as_dict()["job_metrics"]
    )


if __name__ == "__main__":
    _CONTRACT.write_text(json.dumps(_contract_reports(), indent=1) + "\n")
