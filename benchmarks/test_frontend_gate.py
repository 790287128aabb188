"""Gate: the linear-pass renamer and the heap-driven list scheduler
against the frozen references.

On the six registry programs at the paper's configuration (unroll 4,
constants in memory, the default machine), the live ``rename`` and
``schedule_program`` must give the same renamed CFG, value table and
schedule as ``tests/reference.py``.  The live renamer must take at most
0.6x the reference's time on EXACT and COLOR, the two largest programs,
in both modes.  The live scheduler must take at most 0.3x the
reference's time on ``loadgen.make_program(1, 300)``, one block of
1,201 operations plus its terminator.  Times are the best of 5 cold
runs per side, interleaved so a slow stretch of a shared host lands on
both sides.
"""

import time
from functools import lru_cache

import pytest

from repro.ir.rename import RENAME_MODES, rename
from repro.liw import MachineConfig, schedule_program
from repro.pipeline import compile_source
from repro.programs import get_program, program_names
from repro.server.loadgen import make_program
from tests.reference import reference_rename, reference_schedule_program

RENAME_RATIO = 0.6
SCHEDULE_RATIO = 0.3
REPEAT = 5


@lru_cache(maxsize=None)
def paper_cfg(name: str):
    return compile_source(
        get_program(name).source, unroll=4, constants_in_memory=True
    ).cfg


def _value_table(renamed):
    return [
        (v.id, v.name, v.origin, v.is_temp, v.def_sites, v.use_sites,
         v.from_entry)
        for v in renamed.values
    ]


def _best_of_interleaved(new_fn, ref_fn, repeat: int) -> tuple[float, float]:
    """Best of ``repeat`` timed calls per side, alternating which side
    goes first."""
    best = {new_fn: float("inf"), ref_fn: float("inf")}
    for i in range(repeat):
        for fn in ((ref_fn, new_fn) if i % 2 else (new_fn, ref_fn)):
            t0 = time.perf_counter()
            fn()
            best[fn] = min(best[fn], time.perf_counter() - t0)
    return best[new_fn], best[ref_fn]


@pytest.mark.parametrize("name", program_names())
def test_live_front_end_equals_reference(name):
    cfg = paper_cfg(name)
    live = rename(cfg)
    ref = reference_rename(cfg)
    assert live.cfg.pretty() == ref.cfg.pretty()
    assert _value_table(live) == _value_table(ref)
    machine = MachineConfig()
    assert (
        schedule_program(live, machine).pretty()
        == reference_schedule_program(live, machine).pretty()
    )


@pytest.mark.parametrize("mode", RENAME_MODES)
@pytest.mark.parametrize("name", ["EXACT", "COLOR"])
def test_live_rename_is_faster_than_reference(name, mode):
    cfg = paper_cfg(name)
    t_new, t_ref = _best_of_interleaved(
        lambda: rename(cfg, mode), lambda: reference_rename(cfg, mode), REPEAT
    )
    assert t_new <= RENAME_RATIO * t_ref, (
        f"live {t_new * 1e3:.2f} ms is {t_new / t_ref:.2f}x the reference "
        f"{t_ref * 1e3:.2f} ms (bound {RENAME_RATIO}x)"
    )


def test_live_schedule_is_faster_than_reference_on_a_long_block():
    renamed = compile_source(make_program(1, 300)).renamed
    assert max(len(block.instrs) for block in renamed.cfg.blocks) == 1202
    machine = MachineConfig()
    t_new, t_ref = _best_of_interleaved(
        lambda: schedule_program(renamed, machine),
        lambda: reference_schedule_program(renamed, machine),
        REPEAT,
    )
    assert t_new <= SCHEDULE_RATIO * t_ref, (
        f"live {t_new * 1e3:.2f} ms is {t_new / t_ref:.2f}x the reference "
        f"{t_ref * 1e3:.2f} ms (bound {SCHEDULE_RATIO}x)"
    )
