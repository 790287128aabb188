"""Differential tests: the six paper benchmarks against their references.

Three levels: the TAC interpreter, the plain LIW pipeline, and the
paper-scale configuration (unrolled, memory-resident constants) — all
must produce the reference outputs exactly (integers) or to 1e-9
(floats, same operation order by construction).
"""

import math

import pytest

from repro import MachineConfig, compile_source, simulate
from repro.core.strategies import stor1
from repro.ir import build_cfg, compile_to_tac, run_cfg
from repro.pipeline import compile_for_paper
from repro.programs import (
    all_programs,
    get_program,
    outputs_match,
    program_names,
)


@pytest.mark.parametrize("spec", all_programs(), ids=program_names())
def test_interpreter_matches_reference(spec):
    cfg = build_cfg(compile_to_tac(spec.source))
    result = run_cfg(cfg, list(spec.inputs))
    assert outputs_match(result.outputs, spec.reference(spec.inputs))


@pytest.mark.parametrize("spec", all_programs(), ids=program_names())
def test_liw_pipeline_matches_reference(spec):
    prog = compile_source(spec.source, MachineConfig(num_fus=4, num_modules=8))
    storage = stor1(prog.schedule, prog.renamed)
    result = simulate(prog, storage.allocation, list(spec.inputs))
    assert outputs_match(result.outputs, spec.reference(spec.inputs))


@pytest.mark.parametrize("spec", all_programs(), ids=program_names())
def test_paper_configuration_matches_reference(spec):
    prog = compile_for_paper(
        spec.source, MachineConfig(num_fus=4, num_modules=8), unroll=2
    )
    storage = stor1(prog.schedule, prog.renamed)
    result = simulate(prog, storage.allocation, list(spec.inputs))
    assert outputs_match(result.outputs, spec.reference(spec.inputs))


@pytest.mark.parametrize("spec", all_programs(), ids=program_names())
def test_small_machine_matches_reference(spec):
    prog = compile_source(spec.source, MachineConfig(num_fus=2, num_modules=2))
    storage = stor1(prog.schedule, prog.renamed)
    result = simulate(prog, storage.allocation, list(spec.inputs))
    assert outputs_match(result.outputs, spec.reference(spec.inputs))


def test_registry_lookup():
    assert get_program("fft").name == "FFT"
    assert get_program("SORT").name == "SORT"
    with pytest.raises(KeyError):
        get_program("NOPE")


def test_registry_order_matches_paper_table():
    assert program_names() == [
        "TAYLOR1",
        "TAYLOR2",
        "EXACT",
        "FFT",
        "SORT",
        "COLOR",
    ]


def test_sort_output_is_sorted():
    spec = get_program("SORT")
    out = spec.reference(spec.inputs)
    assert out == sorted(out)


def test_exact_solution_solves_system():
    spec = get_program("EXACT")
    inputs = spec.inputs
    n, p = int(inputs[0]), int(inputs[1])
    flat = [int(v) for v in inputs[2 : 2 + n * n]]
    rhs = [int(v) for v in inputs[2 + n * n :]]
    x = spec.reference(inputs)
    for row in range(n):
        acc = sum(flat[row * n + j] * x[j] for j in range(n)) % p
        assert acc == rhs[row] % p


def test_fft_parseval_energy():
    spec = get_program("FFT")
    out = spec.reference(spec.inputs)
    n = int(spec.inputs[0])
    time_energy = sum(
        float(v) ** 2 for v in spec.inputs[1 : 1 + 2 * n]
    )
    freq_energy = sum(float(v) ** 2 for v in out) / n
    assert math.isclose(time_energy, freq_energy, rel_tol=1e-9)


def test_color_outputs_valid_coloring():
    spec = get_program("COLOR")
    out = spec.reference(spec.inputs)
    n, kk = int(spec.inputs[0]), int(spec.inputs[1])
    conf = [
        [int(spec.inputs[2 + i * n + j]) for j in range(n)] for i in range(n)
    ]
    for i in range(n):
        assert out[i] == -1 or 1 <= out[i] <= kk
        for j in range(n):
            if conf[i][j] > 0 and out[i] > 0 and out[j] > 0 and i != j:
                assert out[i] != out[j], (i, j)


def test_taylor1_matches_closed_form():
    # coefficients of exp(c z)/(1-z) = partial sums of c^n/n!
    spec = get_program("TAYLOR1")
    nterms = int(spec.inputs[0])
    c = complex(float(spec.inputs[1]), float(spec.inputs[2]))
    out = spec.reference(spec.inputs)
    acc = 0
    term = 1.0 + 0j
    for n in range(nterms):
        if n > 0:
            term = term * c / n
        acc += term
        assert math.isclose(out[2 * n], acc.real, rel_tol=1e-9, abs_tol=1e-12)
        assert math.isclose(out[2 * n + 1], acc.imag, rel_tol=1e-9, abs_tol=1e-12)


def test_taylor2_matches_closed_form():
    # c_n from the analytic derivative series of exp(a x)·cos(b x)
    import cmath

    spec = get_program("TAYLOR2")
    nterms, a, b = int(spec.inputs[0]), float(spec.inputs[1]), float(spec.inputs[2])
    out = spec.reference(spec.inputs)
    # f(x) = Re(exp((a+ib) x)): c_n = Re((a+ib)^n) / n!
    z = complex(a, b)
    fact = 1.0
    for n in range(nterms):
        if n > 0:
            fact *= n
        expected = (z**n).real / fact
        assert math.isclose(out[n], expected, rel_tol=1e-6, abs_tol=1e-9)


@pytest.mark.parametrize("strategy", ["STOR2", "STOR3", "STOR-REGION"])
def test_strategies_preserve_outputs_on_fft(strategy):
    from repro.core import run_strategy

    spec = get_program("FFT")
    prog = compile_source(spec.source, MachineConfig(num_fus=4, num_modules=4))
    storage = run_strategy(strategy, prog.schedule, prog.renamed)
    result = simulate(prog, storage.allocation, list(spec.inputs))
    assert outputs_match(result.outputs, spec.reference(spec.inputs))


@pytest.mark.parametrize("spec", all_programs(), ids=program_names())
def test_scheduled_transfers_preserve_outputs(spec):
    prog = compile_source(
        spec.source, MachineConfig(num_fus=4, num_modules=4),
        constants_in_memory=True,
    )
    storage = stor1(prog.schedule, prog.renamed)
    result = simulate(
        prog, storage.allocation, list(spec.inputs), scheduled_transfers=True
    )
    assert outputs_match(result.outputs, spec.reference(spec.inputs))
