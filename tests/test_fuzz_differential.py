"""Differential fuzzing: every compiler stage must preserve semantics.

Random valid programs (see :mod:`repro.lang.generator`) are run through
the reference interpreter and the full LIW pipeline under varying
machine shapes, unroll factors, CFG simplification, constant placement,
and renaming modes — outputs must agree exactly (ints) / to 1e-9
(floats, same operation order by construction).
"""

import hashlib
import math
import random

import pytest

from repro.ir import build_cfg, lower_ast, rename, run_cfg
from repro.ir.simplify import simplify_cfg
from repro.ir.unroll import unroll_program
from repro.lang import analyze, parse
from repro.lang.generator import random_program, random_source
from repro.lang.unparse import unparse
from repro.liw import MachineConfig, run_schedule, schedule_program


def close(a, b):
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if isinstance(x, float) or isinstance(y, float):
            if not math.isclose(float(x), float(y), rel_tol=1e-9, abs_tol=1e-12):
                return False
        elif x != y:
            return False
    return True


def reference_outputs(source: str):
    tree = parse(source)
    analyze(tree)
    cfg = build_cfg(lower_ast(tree))
    return run_cfg(cfg, max_steps=2_000_000).outputs


def pipeline_outputs(
    source: str,
    machine=None,
    unroll=1,
    simplify=False,
    constants_in_memory=False,
    rename_mode="web",
):
    tree = parse(source)
    if unroll > 1:
        tree = unroll_program(tree, unroll)
    analyze(tree)
    cfg = build_cfg(lower_ast(tree, constants_in_memory=constants_in_memory))
    if simplify:
        cfg = simplify_cfg(cfg)
    renamed = rename(cfg, mode=rename_mode)
    schedule = schedule_program(renamed, machine or MachineConfig())
    result = run_schedule(
        schedule,
        max_cycles=2_000_000,
        initial_values=renamed.initial_values(),
    )
    return result.outputs


@pytest.mark.parametrize("seed", range(40))
def test_fuzz_liw_pipeline_matches_interpreter(seed):
    source = random_source(seed)
    want = reference_outputs(source)
    got = pipeline_outputs(source, simplify=True)
    assert close(got, want), source


@pytest.mark.parametrize("seed", range(0, 30, 2))
def test_fuzz_unrolling_preserves_semantics(seed):
    source = random_source(seed)
    want = reference_outputs(source)
    for factor in (2, 3):
        got = pipeline_outputs(source, unroll=factor, simplify=True)
        assert close(got, want), (factor, source)


@pytest.mark.parametrize("seed", range(0, 24, 3))
@pytest.mark.parametrize(
    "fus,mods", [(1, 1), (2, 2), (8, 8), (4, 2)]
)
def test_fuzz_machine_shapes(seed, fus, mods):
    source = random_source(seed)
    want = reference_outputs(source)
    got = pipeline_outputs(
        source, machine=MachineConfig(num_fus=fus, num_modules=mods)
    )
    assert close(got, want), source


@pytest.mark.parametrize("seed", range(0, 20, 2))
def test_fuzz_memory_constants(seed):
    source = random_source(seed)
    want = reference_outputs(source)
    got = pipeline_outputs(source, constants_in_memory=True, simplify=True)
    assert close(got, want), source


@pytest.mark.parametrize("seed", range(0, 20, 2))
def test_fuzz_variable_renaming(seed):
    source = random_source(seed)
    want = reference_outputs(source)
    got = pipeline_outputs(source, rename_mode="variable")
    assert close(got, want), source


# CPython guarantees random.Random's sequence for a given seed across
# versions, so the generator's output for a fixed seed is pinned here
# byte-for-byte: any drift silently invalidates every seed-keyed corpus
# (fuzz replays, cache keys, recorded failures).
_GOLDEN_SHA256 = {
    0: "6c16e2b9e666b74b206bf1617cf6417cc5e202d4a115046f266feb8311bafffa",
    7: "cbd72469d9e8dc5de94dc0f67d4cf007ccfd3ed43d0e100c3467b0990fa5bdb2",
    123: "ced3e9c4fa28b5b3d1baba10f805fb58a229c969318bb89470ded413127d5694",
}


@pytest.mark.parametrize("seed", sorted(_GOLDEN_SHA256))
def test_fuzz_generator_byte_identical(seed):
    """A fixed seed yields byte-identical source, however supplied."""
    text = random_source(seed)
    assert text == random_source(seed)
    assert text == random_source(rng=random.Random(seed))
    assert hashlib.sha256(text.encode()).hexdigest() == _GOLDEN_SHA256[seed]


def test_fuzz_generator_explicit_rng_isolated():
    """Generation draws only from the passed Random: module-level random
    state is untouched and an equal-state rng reproduces the program."""
    random.seed(999)
    before = random.getstate()
    first = random_source(rng=random.Random(42))
    assert random.getstate() == before
    assert first == random_source(rng=random.Random(42))


def test_fuzz_generator_rejects_seed_and_rng():
    from repro.lang.generator import ProgramGenerator

    with pytest.raises(ValueError):
        ProgramGenerator(seed=1, rng=random.Random(1))


@pytest.mark.parametrize("seed", range(25))
def test_fuzz_unparse_round_trip(seed):
    """unparse -> parse -> unparse is a fixpoint, and semantics hold."""
    program = random_program(seed)
    text1 = unparse(program)
    reparsed = parse(text1)
    text2 = unparse(reparsed)
    assert text1 == text2
    analyze(reparsed)


@pytest.mark.parametrize("seed", range(0, 16, 2))
def test_fuzz_everything_at_once(seed):
    """The full paper configuration on random programs."""
    source = random_source(seed, max_statements=16)
    want = reference_outputs(source)
    got = pipeline_outputs(
        source,
        machine=MachineConfig(num_fus=4, num_modules=4),
        unroll=4,
        simplify=True,
        constants_in_memory=True,
    )
    assert close(got, want), source


@pytest.mark.parametrize("seed", range(0, 24, 3))
@pytest.mark.parametrize("strategy", ["STOR1", "STOR2", "STOR3"])
def test_fuzz_storage_strategies_sound(seed, strategy):
    """On random programs, every strategy yields a total allocation whose
    residual conflicts involve only non-duplicable (multi-def) values,
    and simulated execution still matches the interpreter."""
    from repro.core import instruction_conflict_free, run_strategy
    from repro.memsim import InterleavedLayout, MemorySimulator

    source = random_source(seed)
    want = reference_outputs(source)

    tree = parse(source)
    analyze(tree)
    cfg = simplify_cfg(build_cfg(lower_ast(tree, constants_in_memory=True)))
    renamed = rename(cfg)
    machine = MachineConfig(num_fus=4, num_modules=4)
    schedule = schedule_program(renamed, machine)
    storage = run_strategy(strategy, schedule, renamed)

    multi_def = {v.id for v in renamed.values if v.multi_def}
    for ops in schedule.operand_sets():
        if ops and not instruction_conflict_free(ops, storage.allocation):
            assert ops & multi_def, (strategy, sorted(ops), source)

    sim = MemorySimulator(
        storage.allocation,
        InterleavedLayout(sorted(cfg.arrays), machine.k),
        machine.k,
    )
    result = run_schedule(
        schedule,
        max_cycles=2_000_000,
        sink=sim,
        initial_values=renamed.initial_values(),
    )
    assert close(result.outputs, want), source
    report = sim.report()
    assert report.t_min <= report.t_ave + 1e-9
    assert report.t_ave <= report.t_max + 1e-9


@pytest.mark.parametrize("seed", range(0, 16, 2))
@pytest.mark.parametrize("method", ["hitting_set", "backtrack"])
def test_fuzz_bitset_assign_matches_reference_on_programs(seed, method):
    """End-to-end check on *real* generated programs (not synthetic
    operand sets): the bitset-kernel assignment pipeline must reproduce
    the frozen set-based reference byte for byte — same allocation, same
    copy-creation history, same stats."""
    from repro.core.assign import assign_modules
    from tests.reference import reference_assign_modules

    source = random_source(seed)
    tree = parse(source)
    analyze(tree)
    cfg = simplify_cfg(build_cfg(lower_ast(tree, constants_in_memory=True)))
    renamed = rename(cfg)
    schedule = schedule_program(renamed, MachineConfig(num_fus=4, num_modules=4))
    operand_sets = [frozenset(ops) for ops in schedule.operand_sets() if ops]
    duplicable = {
        v.id
        for v in renamed.values
        if (v.def_sites or v.use_sites) and not v.multi_def
    }

    live = assign_modules(
        operand_sets, 4, method=method, duplicable=duplicable, seed=seed
    )
    ref = reference_assign_modules(
        operand_sets, 4, method=method, duplicable=duplicable, seed=seed
    )
    assert live.allocation.as_dict() == ref.allocation.as_dict(), source
    assert live.allocation.history == ref.allocation.history, source
    assert live.stats == ref.stats, source
