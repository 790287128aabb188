"""The block trace where a run stops inside a block, and its chunking.

The executor hands the memory simulator a trace of the blocks it
entered; a run cut short by the cycle limit, an out-of-range index or
exhausted input ends inside a block.  Against the frozen per-event
reference (``tests/sim_oracle.py``), such runs must raise the same
error and leave equal outputs, cycles and per-word execution counts,
and the report of the words that completed must be bitwise equal.  The
report must not depend on how the trace was cut into chunks either.
"""

from __future__ import annotations

import pytest

import repro.liw.executor as executor_module
from repro.liw import LiwExecutor, MachineConfig
from repro.memsim import MemorySimulator, make_layout
from repro.passes.artifacts import PipelineOptions
from repro.pipeline import run_pipeline
from repro.programs import all_programs

from .sim_oracle import ReferenceExecutor, ReferenceSimulator
from .trace_recorder import TraceRecorder

MACHINE = MachineConfig(num_fus=4, num_modules=8)

#: Reads an index per iteration into a four-element array; each loop
#: block reads input, indexes ``a`` twice and computes around it.
INDEXED = """
program t; var i, n, x, y: int; a: array[4] of int;
begin
  x := 1; y := 0;
  for n := 0 to 5 do
  begin
    read(i);
    a[i] := x + n;
    y := y + a[(i + 1) mod 4] * 2 + x;
    x := x * 3 mod 7
  end;
  write(x); write(y)
end.
"""


def _compile(source: str, unroll: int = 1):
    options = PipelineOptions(
        machine=MACHINE, unroll=unroll, constants_in_memory=True,
        strategy="STOR2", method="hitting_set", k=MACHINE.k,
    )
    store = run_pipeline(source, options).store
    cfg = store.get("cfg")
    return (
        store.get("renamed"), store.get("schedule"),
        store.get("storage").allocation,  # type: ignore[attr-defined]
        make_layout("interleaved", sorted(cfg.arrays), MACHINE.k),  # type: ignore[attr-defined]
    )


class _Chunks:
    """Forwards every chunk to a sink and notes where each one stopped."""

    def __init__(self, sink):
        self.sink = sink
        self.stops: list[tuple[int, int] | None] = []

    def consume(self, chunk) -> None:
        self.stops.append(
            None if chunk.stop is None
            else (len(chunk.stop[0].words), chunk.stop[1])
        )
        self.sink.consume(chunk)


def _run(executor, sim):
    try:
        executor.run()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        error: tuple[type, str] | None = (type(exc), str(exc))
    else:
        error = None
    report = sim.report()
    return (
        error, executor.outputs, executor.cycles, executor.liw_counts,
        report, repr(report),
    )


def _compare(compiled, inputs, max_cycles=5_000_000, delta=1.0):
    """Run both pairs; returns the live error and where chunks stopped."""
    renamed, schedule, alloc, layout = compiled
    initial = renamed.initial_values()
    sim = MemorySimulator(alloc, layout, MACHINE.k, delta)
    chunks = _Chunks(sim)
    got = _run(
        LiwExecutor(schedule, list(inputs), max_cycles, chunks, initial), sim
    )
    want_sim = ReferenceSimulator(alloc, layout, MACHINE.k, delta)
    events: list = []
    reference = ReferenceExecutor(
        schedule, list(inputs), max_cycles, [want_sim, events.append], initial
    )
    want = _run(reference, want_sim)
    assert got == want

    recorder = TraceRecorder()
    try:
        LiwExecutor(schedule, list(inputs), max_cycles, recorder, initial).run()
    except Exception:  # noqa: BLE001 - the same error as above
        pass
    assert recorder.events == events
    return got[0], chunks.stops


@pytest.mark.parametrize("unroll", [1, 2])
def test_cycle_limit_inside_a_block(unroll):
    compiled = _compile(INDEXED, unroll)
    inputs = [0, 1, 2, 3, 0, 1]
    error, _ = _compare(compiled, inputs)
    assert error is None
    renamed, schedule = compiled[:2]
    total = LiwExecutor(
        schedule, list(inputs), initial_values=renamed.initial_values()
    ).run().cycles
    inside = 0
    for limit in range(total):
        error, stops = _compare(compiled, inputs, max_cycles=limit)
        assert error is not None and error[0].__name__ == "ExecutionLimitExceeded"
        stop = stops[-1]
        inside += stop is not None and 0 < stop[1] < stop[0]
    assert inside > 0


@pytest.mark.parametrize("unroll", [1, 2])
@pytest.mark.parametrize("bad", [4, -1, 9])
def test_out_of_range_index(unroll, bad):
    compiled = _compile(INDEXED, unroll)
    error, stops = _compare(compiled, [0, 1, 2, bad, 0, 1])
    assert error is not None and error[0].__name__ == "ArrayIndexError"
    assert stops[-1] is not None


@pytest.mark.parametrize("unroll", [1, 2])
@pytest.mark.parametrize("given", [0, 1, 3])
def test_exhausted_input(unroll, given):
    compiled = _compile(INDEXED, unroll)
    error, stops = _compare(compiled, [0, 1, 2][:given])
    assert error is not None and error[0].__name__ == "InputExhausted"
    assert stops[-1] is not None


PROGRAMS = {spec.name: spec for spec in all_programs()}


@pytest.mark.parametrize(
    "delta",
    [
        1.0,
        0.1,  # not integral: every sum is folded
        2.0**46 + 1,  # integral, but Δ·load sums pass 2**53 mid-run
    ],
)
@pytest.mark.parametrize("name", ["FFT", "SORT"])
def test_report_does_not_depend_on_chunk_size(monkeypatch, name, delta):
    spec = PROGRAMS[name]
    compiled = _compile(spec.source, 2)
    whole, stops = _compare(compiled, spec.inputs, delta=delta)
    assert whole is None and len(stops) == 1
    renamed, schedule, alloc, layout = compiled

    def report():
        sim = MemorySimulator(alloc, layout, MACHINE.k, delta)
        chunks = _Chunks(sim)
        LiwExecutor(
            schedule, list(spec.inputs), sink=chunks,
            initial_values=renamed.initial_values(),
        ).run()
        return len(chunks.stops), repr(sim.report())

    n_whole, whole_report = report()
    monkeypatch.setattr(executor_module, "TRACE_CHUNK", 3)
    n_small, small_report = report()
    assert n_whole == 1 and n_small > 10
    assert small_report == whole_report
    # and chunked runs still match the reference word for word
    _compare(compiled, spec.inputs, delta=delta)
