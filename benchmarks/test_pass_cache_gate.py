"""Gate: a warm pipeline run is served from the pass cache.

Every registry program is compiled twice (STOR1, unroll 2) over one
:class:`~repro.passes.cache.ArtifactCache`: cold, then warm.  The warm
runs must take less time in total than the cold ones, and every warm
run must hit the cache.
"""

import time

from repro.passes.artifacts import PipelineOptions
from repro.passes.cache import ArtifactCache
from repro.pipeline import run_pipeline
from repro.programs import all_programs


def test_warm_runs_hit_the_pass_cache_and_beat_cold():
    options = PipelineOptions(strategy="STOR1", unroll=2)
    totals = {"cold": 0.0, "warm": 0.0}
    for spec in all_programs():
        cache = ArtifactCache()
        for phase in ("cold", "warm"):
            t0 = time.perf_counter()
            run = run_pipeline(spec.source, options, cache=cache)
            totals[phase] += time.perf_counter() - t0
        assert run.cache_hits > 0, spec.name
    assert totals["warm"] < totals["cold"], totals
