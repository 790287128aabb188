"""Unit tests for the pass-manager framework itself: typed artifacts,
ordering checks, fingerprints, events, and the metrics adapter."""

import time

import pytest

from repro.ir.passes import RENAME
from repro.lang.passes import PARSE
from repro.liw.machine import MachineConfig
from repro.passes.artifacts import ArtifactStore, PipelineOptions
from repro.passes.events import CollectingTracer, Metrics, MetricsTracer
from repro.passes.manager import Pass, PassError, PassManager
from repro.passes.registry import (
    compile_passes_for,
    frontend_passes_for,
    full_pipeline_for,
)
from repro.pipeline import compile_source, run_pipeline
from repro.programs import get_program

SRC = """
program p;
var i, s: int; a: array[8] of int;
begin
  s := 0;
  for i := 0 to 7 do begin a[i] := i * 3; s := s + a[i] end;
  write(s)
end.
"""


# -- artifact store ---------------------------------------------------------


def test_store_rejects_unknown_artifact():
    store = ArtifactStore()
    with pytest.raises(KeyError, match="unknown artifact"):
        store.set("nonsense", 1)


def test_store_rejects_wrong_type():
    store = ArtifactStore()
    with pytest.raises(TypeError, match="must be str"):
        store.set("source", 42)


def test_store_missing_artifact_message():
    store = ArtifactStore()
    with pytest.raises(KeyError, match="has not been produced"):
        store.get("schedule")


# -- pass contract checks ---------------------------------------------------


def test_missing_reads_raise_pass_error():
    manager = PassManager([RENAME])
    with pytest.raises(PassError, match="needs artifact"):
        manager.run({"source": SRC})


def test_unwritten_writes_raise_pass_error():
    broken = Pass(name="broken", run=lambda ctx: None, writes=("cfg",))
    manager = PassManager([PARSE, broken])
    with pytest.raises(PassError, match="did not produce"):
        manager.run({"source": SRC})


def test_duplicate_pass_names_rejected():
    with pytest.raises(ValueError, match="duplicate pass names"):
        PassManager([PARSE, PARSE])


# -- events and skip logic --------------------------------------------------


def test_event_stream_order_and_skips():
    tracer = CollectingTracer()
    run_pipeline(SRC, PipelineOptions(), passes=frontend_passes_for(),
                 tracer=tracer)
    terminal = [(e.name, e.status) for e in tracer.completed()]
    assert terminal == [
        ("parse", "end"),
        ("unroll", "skip"),
        ("sema", "end"),
        ("lower", "end"),
        ("simplify", "end"),
        ("rename", "end"),
        ("schedule", "end"),
    ]


def test_unroll_and_simplify_run_when_enabled():
    tracer = CollectingTracer()
    run_pipeline(
        SRC,
        PipelineOptions(unroll=2, simplify=False),
        passes=frontend_passes_for(),
        tracer=tracer,
    )
    statuses = {e.name: e.status for e in tracer.completed()}
    assert statuses["unroll"] == "end"
    assert statuses["simplify"] == "skip"


def test_schedule_counts_reported():
    tracer = CollectingTracer()
    run = run_pipeline(SRC, passes=frontend_passes_for(), tracer=tracer)
    (event,) = tracer.by_name("schedule")[-1:]
    schedule = run.artifact("schedule")
    assert event.counts["instructions"] == schedule.num_instructions
    assert event.counts["operations"] == schedule.num_operations


def test_full_pipeline_simulates():
    run = run_pipeline(SRC, passes=full_pipeline_for(), inputs=[])
    sim = run.artifact("simulation")
    assert sim.cycles > 0
    assert sim.outputs  # the program writes one value


# -- fingerprints -----------------------------------------------------------


def test_fingerprints_stable_across_runs():
    r1 = run_pipeline(SRC, passes=compile_passes_for())
    r2 = run_pipeline(SRC, passes=compile_passes_for())
    assert r1.fingerprints == r2.fingerprints


def test_fingerprints_depend_on_source_and_config():
    base = run_pipeline(SRC, passes=compile_passes_for()).fingerprints
    other_src = run_pipeline(SRC + " ", passes=compile_passes_for()).fingerprints
    assert base["parse"] != other_src["parse"]

    renamed = run_pipeline(
        SRC, PipelineOptions(rename_mode="variable"), passes=compile_passes_for()
    ).fingerprints
    # upstream of rename: identical; rename and below: different
    assert renamed["parse"] == base["parse"]
    assert renamed["simplify"] == base["simplify"]
    assert renamed["rename"] != base["rename"]
    assert renamed["schedule"] != base["schedule"]

    machine = run_pipeline(
        SRC,
        PipelineOptions(machine=MachineConfig(num_modules=4)),
        passes=compile_passes_for(),
    ).fingerprints
    assert machine["rename"] == base["rename"]
    assert machine["schedule"] != base["schedule"]

    strat = run_pipeline(
        SRC, PipelineOptions(strategy="STOR2"), passes=compile_passes_for()
    ).fingerprints
    assert strat["schedule"] == base["schedule"]
    assert strat["allocate"] != base["allocate"]


def test_disabled_pass_still_fingerprinted():
    base = run_pipeline(SRC, passes=frontend_passes_for()).fingerprints
    unrolled = run_pipeline(
        SRC, PipelineOptions(unroll=2), passes=frontend_passes_for()
    ).fingerprints
    # unroll is skipped in `base` but its knob still feeds the chain
    assert base["unroll"] != unrolled["unroll"]
    assert base["schedule"] != unrolled["schedule"]


# -- metrics adapter (legacy batch-report channel) --------------------------


def test_metrics_stage_names_match_legacy_pipeline():
    metrics = Metrics()
    compile_source(SRC, metrics=metrics)
    assert [s.name for s in metrics.stages] == [
        "parse", "sema", "lower", "simplify", "rename", "schedule",
    ]
    assert all(s.wall_time >= 0.0 for s in metrics.stages)


def test_metrics_records_unroll_and_counts():
    metrics = Metrics()
    compile_source(SRC, unroll=4, metrics=metrics)
    names = [s.name for s in metrics.stages]
    assert names[1] == "unroll"
    by_name = {s.name: s for s in metrics.stages}
    assert by_name["rename"].counts["values"] > 0
    assert by_name["schedule"].counts["instructions"] > 0


def test_metrics_tracer_marks_cache_hits():
    metrics = Metrics()
    tracer = MetricsTracer(metrics)
    from repro.passes.events import PassEvent

    tracer.emit(PassEvent("parse", "cache-hit"))
    tracer.emit(PassEvent("parse", "skip"))
    assert metrics.counters["pass_cache_hits"] == 1
    assert metrics.stages[0].counts["cached"] == 1
    assert len(metrics.stages) == 1  # skips are not stages


def test_pass_times_count_each_pass_once():
    # allocate.<stage> sub-events run inside allocate's own time, so
    # they are reported but never summed as pass executions
    tracer = CollectingTracer()
    t0 = time.perf_counter()
    run = run_pipeline(
        get_program("TAYLOR2").source,
        PipelineOptions(strategy="STOR2", constants_in_memory=True),
        tracer=tracer,
    )
    wall = time.perf_counter() - t0
    subs = [e for e in run.events if e.name.startswith("allocate.")]
    assert subs and all(e.status == "end" and e.counts for e in subs)
    names = {p.name for p in compile_passes_for()}
    pass_level = sum(
        e.wall_time for e in run.events if e.name in names and e.status == "end"
    )
    assert sum(run.pass_times().values()) == pytest.approx(pass_level)
    assert sum(tracer.pass_times().values()) == pytest.approx(pass_level)
    assert run.total_time == pytest.approx(pass_level)
    assert run.total_time <= wall
    assert not any(e.executed for e in subs)
