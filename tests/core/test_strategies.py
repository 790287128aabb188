"""Integration tests: STOR1/2/3 on compiled mini-language programs."""

import pytest

from repro import MachineConfig, compile_source
from repro.core import run_strategy, verify_allocation
from repro.core.verify import conflicting_instructions
from repro.core.strategies import STRATEGIES, stor3

SRC = """
program demo;
var i, n, s, t: int; a: array[16] of int;
begin
  n := 16; s := 0; t := 1;
  for i := 0 to n - 1 do a[i] := i * i;
  for i := 0 to n - 1 do begin
    s := s + a[i];
    t := t + s
  end;
  write(s); write(t)
end.
"""


@pytest.fixture(scope="module")
def compiled():
    return compile_source(SRC, MachineConfig(num_fus=4, num_modules=4), unroll=2)


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_strategy_produces_total_allocation(compiled, strategy):
    result = run_strategy(strategy, compiled.schedule, compiled.renamed)
    live = [
        v.id
        for v in compiled.renamed.values
        if v.def_sites or v.use_sites
    ]
    for v in live:
        assert result.allocation.is_placed(v), f"{strategy}: value {v}"


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_strategy_counts_sum_to_values(compiled, strategy):
    result = run_strategy(strategy, compiled.schedule, compiled.renamed)
    placed = len(result.allocation.values())
    assert result.singles + result.multiples == placed


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_residuals_only_from_pinned_values(compiled, strategy):
    result = run_strategy(strategy, compiled.schedule, compiled.renamed)
    multi_def = {
        v.id for v in compiled.renamed.values if v.multi_def
    }
    for ops in result.residual_instructions:
        assert ops & multi_def, "residual conflict without a pinned value"


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("weighted", [False, True])
def test_stor1_residual_is_every_conflicting_instruction(compiled, k, weighted):
    sets = compiled.schedule.operand_sets()
    # Zero-weight instructions are left out of the assignment, but a
    # conflict there is still a residual.
    kwargs = {"weights": [i % 2 for i in range(len(sets))]} if weighted else {}
    result = run_strategy(
        "STOR1", compiled.schedule, compiled.renamed, k, **kwargs
    )
    expected = conflicting_instructions(sets, result.allocation)
    assert result.residual_instructions == expected
    if weighted and k == 2:
        assert expected


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
@pytest.mark.parametrize("method", ["hitting_set", "backtrack"])
def test_methods_work_for_all_strategies(compiled, strategy, method):
    result = run_strategy(
        strategy, compiled.schedule, compiled.renamed, method=method
    )
    # non-residual instructions are conflict free
    sets = compiled.schedule.operand_sets()
    bad = [
        ops
        for ops in sets
        if ops and frozenset(ops) not in set(result.residual_instructions)
    ]
    from repro.core import instruction_conflict_free

    for ops in bad:
        assert instruction_conflict_free(ops, result.allocation)


def test_stor1_never_worse_than_stor2_or_stor3(compiled):
    """The paper's headline: whole-program assignment duplicates least
    (allowing ties)."""
    results = {
        s: run_strategy(s, compiled.schedule, compiled.renamed)
        for s in STRATEGIES
    }
    assert results["STOR1"].multiples <= results["STOR2"].multiples + 1
    assert results["STOR1"].multiples <= results["STOR3"].multiples + 1


def test_stor3_group_count_configurable(compiled):
    r2 = stor3(compiled.schedule, compiled.renamed, groups=2)
    r4 = stor3(compiled.schedule, compiled.renamed, groups=4)
    assert r2.allocation.values() and r4.allocation.values()
    assert len(r2.stages) <= 3 and len(r4.stages) <= 5


def test_invalid_strategy_name():
    with pytest.raises(ValueError):
        run_strategy("STOR9", None, None)  # type: ignore[arg-type]


def test_k_override(compiled):
    result = run_strategy("STOR1", compiled.schedule, compiled.renamed, k=2)
    assert result.allocation.k == 2


def test_stages_exposed(compiled):
    result = run_strategy("STOR2", compiled.schedule, compiled.renamed)
    assert len(result.stages) >= 2  # globals + at least one region


def test_stor_region_no_global_prepass(compiled):
    from repro.core.strategies import stor_region

    result = stor_region(compiled.schedule, compiled.renamed)
    assert result.strategy == "STOR-REGION"
    # one stage per region that has instructions
    assert len(result.stages) >= 2
    live = [
        v.id for v in compiled.renamed.values if v.def_sites or v.use_sites
    ]
    for v in live:
        assert result.allocation.is_placed(v)


def test_stor_region_duplication_between_stor1_and_stor2(compiled):
    """The region-at-a-time alternative sees more conflicts than STOR2's
    blind global stage but fewer than the whole program."""
    results = {
        s: run_strategy(s, compiled.schedule, compiled.renamed)
        for s in ("STOR1", "STOR2", "STOR-REGION")
    }
    assert (
        results["STOR1"].multiples
        <= results["STOR-REGION"].multiples + 2
    )
