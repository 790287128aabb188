"""Golden equivalence of the frontend table.

The mini-language path must be *byte-identical* to the pre-refactor
pipeline: the same pass objects, the same chained fingerprints, the
same job keys.  Every digest below was recorded before the frontend
subsystem existed — a change here means the refactor altered the
default path, which is a regression even if outputs still agree.
"""

import pytest

from repro.core.passes import ALLOCATE, ARRAY_OPT
from repro.frontends import PYFRONT, UnknownFrontendError
from repro.ir.passes import LOWER, RENAME, SIMPLIFY, UNROLL
from repro.lang.passes import PARSE, SEMA
from repro.liw.machine import MachineConfig
from repro.liw.passes import SCHEDULE
from repro.memsim.passes import SIMULATE
from repro.passes.knobs import KNOB
from repro.passes.registry import (
    FRONTENDS,
    compile_passes_for,
    frontend_passes_for,
    full_pipeline_for,
)
from repro.pipeline import compile_source, run_pipeline
from repro.programs import get_program
from repro.service.batch import BatchJob
from repro.service.cache import job_key, program_fingerprint

# -- the frontend table -----------------------------------------------------


def test_frontend_registry():
    assert KNOB["frontend"].default == "mini"
    assert sorted(FRONTENDS) == ["mini", "python"]
    assert FRONTENDS["python"] == (PYFRONT,)


def test_frontend_knob_validates_names():
    assert KNOB["frontend"].parse("mini") == "mini"
    assert KNOB["frontend"].parse("python") == "python"
    with pytest.raises(UnknownFrontendError) as err:
        KNOB["frontend"].parse("cobol")
    assert str(err.value) == (
        "unknown frontend 'cobol' (valid: ['mini', 'python'])"
    )
    with pytest.raises(UnknownFrontendError):
        frontend_passes_for("cobol")


def test_batchjob_validates_frontend():
    with pytest.raises(UnknownFrontendError):
        BatchJob("x", "y", MachineConfig(), frontend="fortran")


# -- pass-tuple identity ----------------------------------------------------


def test_mini_builders_return_the_exact_preset_tuples():
    # the same Pass objects mean the same chained fingerprints on the
    # default path; each pipeline is built once
    front = (PARSE, UNROLL, SEMA, LOWER, SIMPLIFY, RENAME, SCHEDULE)
    assert frontend_passes_for("mini") == front
    assert compile_passes_for("mini") == front + (ALLOCATE, ARRAY_OPT)
    assert full_pipeline_for("mini") == front + (ALLOCATE, ARRAY_OPT, SIMULATE)
    assert frontend_passes_for() is frontend_passes_for("mini")
    assert compile_passes_for() is compile_passes_for("mini")
    assert full_pipeline_for() is full_pipeline_for("mini")


def test_mini_frontend_exposes_the_original_passes():
    assert FRONTENDS["mini"] == (PARSE, UNROLL, SEMA, LOWER)
    assert FRONTENDS["mini"][0] is PARSE


def test_python_builders_share_the_frontend_agnostic_tail():
    py = frontend_passes_for("python")
    assert py[0] is PYFRONT
    assert [p.name for p in py[1:]] == ["simplify", "rename", "schedule"]
    # the tail is shared with the mini pipeline object-for-object
    assert py[1] is frontend_passes_for("mini")[4]
    assert full_pipeline_for("python")[-4:] == (
        SCHEDULE, ALLOCATE, ARRAY_OPT, SIMULATE,
    )


# -- pinned digests (recorded before the refactor) --------------------------

PINNED_FINGERPRINTS = {
    "parse": "36223c9162d0139d05ea57483fbc2ca3a46ad39b473d77748ac4b4470e7facad",
    "unroll": "25ab804d51aebb96e482d4489f91440e370fc3b4f4115f6fe136ca75d037061f",
    "sema": "5d66fccdf32fc0cc7fa065e659092b706c2aa29154793a7c4e807a6064dbc490",
    "lower": "8a7d4d9169e8c17d89daac53cc0834a684f9944e8b9bece199da2ead7b433218",
    "simplify": "df973d2a6ea4459e2fc92b256e47c8d0ef51f122fc049201421b7fc3c2b4cb79",
    "rename": "219813282c34fda8f23c274f1c9c680901ef10d41b6188b6c86e50229c9032d4",
    "schedule": "26f1e3ccdca188e787467088acb7556ab73935a3072b4581f6f09c2e40158034",
    "allocate": "3145dd9d845f23863a973da741020e191db0398730771441b8f18500e3494103",
    "array-opt": "32938d96b212f916c11997481ba2ab4c54bc0beb20210d33bf4345e8c4cfd941",
}

PINNED_PROGRAM_FINGERPRINT = (
    "8281810f21e9fb12ec30aecd249176e610c49450fa8b02b12c4a0dbe8d5b413a"
)
PINNED_JOB_KEY_DEFAULT = (
    "699902ea408d70a3f7df7f040974f3cdf14d3b749d89ae5c4444bc7ed5ef796b"
)
PINNED_JOB_KEY_KNOBS = (
    "2426bf72048500dc674a7c909b146b2bde34976ebca6a40101169708d575816f"
)
PINNED_SOURCE_KEY_DEFAULT = (
    "fee236643f60c0d869468d1fdff2d9bdb10f92448e9a634a3965a15603c22813"
)
PINNED_SOURCE_KEY_KNOBS = (
    "dcffbb6c49385020dd059f702784e19b7352f7d04d00c1388c979a0a802d833b"
)


def test_default_path_pass_fingerprints_unchanged():
    run = run_pipeline(get_program("TAYLOR1").source)
    assert run.fingerprints == PINNED_FINGERPRINTS


def test_default_path_program_fingerprint_and_job_keys_unchanged():
    program = compile_source(get_program("TAYLOR1").source)
    fp = program_fingerprint(program.schedule, program.renamed)
    assert fp == PINNED_PROGRAM_FINGERPRINT
    assert job_key(fp, MachineConfig(), "STOR1") == PINNED_JOB_KEY_DEFAULT
    assert job_key(
        fp, MachineConfig(), "STOR2", "backtrack", 4,
        seed=3, max_atom_nodes=20,
    ) == PINNED_JOB_KEY_KNOBS


def test_mini_source_keys_unchanged_by_frontend_field():
    spec = get_program("TAYLOR1")
    default = BatchJob(spec.name, spec.source, MachineConfig())
    assert default.source_key() == PINNED_SOURCE_KEY_DEFAULT
    knobs = BatchJob(
        spec.name, spec.source, MachineConfig(),
        strategy="STOR2", method="backtrack", unroll=2, seed=3,
    )
    assert knobs.source_key() == PINNED_SOURCE_KEY_KNOBS
    # an explicit default frontend is the same key (enters only when
    # non-default, mirroring the max_atom_nodes discipline)
    explicit = BatchJob(
        spec.name, spec.source, MachineConfig(), frontend="mini"
    )
    assert explicit.source_key() == PINNED_SOURCE_KEY_DEFAULT


def test_python_frontend_enters_the_source_key():
    src = "def f():\n    write(1)\n"
    a = BatchJob("f", src, MachineConfig(), frontend="python")
    b = BatchJob("f", src, MachineConfig(), frontend="python", entry="f")
    c = BatchJob("f", src, MachineConfig())
    assert a.source_key() != c.source_key()
    assert a.source_key() != b.source_key()  # entry is part of the key


def test_explicit_frontend_mini_is_byte_identical():
    spec = get_program("TAYLOR1")
    base = run_pipeline(spec.source)
    explicit = compile_source(spec.source, frontend="mini")
    fp = program_fingerprint(explicit.schedule, explicit.renamed)
    assert fp == PINNED_PROGRAM_FINGERPRINT
    assert base.fingerprints == PINNED_FINGERPRINTS


# -- knob key pins (recorded before the knob table existed) -----------------

PY_SOURCE = "def f():\n    write(1)\n"

PINNED_SOURCE_KEYS = {
    "max_atom_nodes=20": (
        "207f025b84161b3ff07a0c25e395bc850b4dd5c31b622df2778a1c8552f9f459"
    ),
    "array_layout=optimize": (
        "166d85c1ac38b71087eaaa345f368aa24387b29c7838be93e9ab6575c781bf54"
    ),
    "frontend=python": (
        "fa8c740e4b8fca138b0c8bbcdc8b126376122d6db2a0a408cbc066063f55a1d4"
    ),
    "frontend=python,entry=f": (
        "f9b54ec978cef90a0031e48327594ef871191b60f7f08e64a17dfeabf2a57b12"
    ),
}

PINNED_BATCH_JOB_KEYS = {
    "default": (
        "77e0fc619b5eda76818b4bb53334ab37889705dfcf68a2c79e81e8186905205c"
    ),
    "array_layout=optimize": (
        "60d609c0b7900c8ce39e9cb36e9b610dd8353e15e39c5df318af44b8d6a2bee9"
    ),
    "max_atom_nodes=20": (
        "5316997abbeaec7d0ee1e9078dc29518248764f04ebe5a54cc76eebccfd930a4"
    ),
}


def _taylor1_job(**knobs):
    spec = get_program("TAYLOR1")
    return BatchJob(spec.name, spec.source, MachineConfig(), **knobs)


def test_knob_source_keys_pinned():
    assert _taylor1_job(max_atom_nodes=20).source_key() == (
        PINNED_SOURCE_KEYS["max_atom_nodes=20"]
    )
    assert _taylor1_job(array_layout="optimize").source_key() == (
        PINNED_SOURCE_KEYS["array_layout=optimize"]
    )
    py = BatchJob("f", PY_SOURCE, MachineConfig(), frontend="python")
    assert py.source_key() == PINNED_SOURCE_KEYS["frontend=python"]
    py_entry = BatchJob(
        "f", PY_SOURCE, MachineConfig(), frontend="python", entry="f"
    )
    assert py_entry.source_key() == (
        PINNED_SOURCE_KEYS["frontend=python,entry=f"]
    )


def test_knobs_outside_the_source_key_leave_it_default():
    # entry enters only under a non-mini frontend; the runner never does
    assert _taylor1_job(entry="f").source_key() == PINNED_SOURCE_KEY_DEFAULT
    assert _taylor1_job(runner="serial").source_key() == (
        PINNED_SOURCE_KEY_DEFAULT
    )


@pytest.mark.parametrize(
    "knobs,pin",
    [
        ({}, "default"),
        ({"array_layout": "optimize"}, "array_layout=optimize"),
        ({"max_atom_nodes": 20}, "max_atom_nodes=20"),
        ({"runner": "serial"}, "default"),
        ({"entry": "f"}, "default"),
    ],
)
def test_batch_job_keys_pinned(knobs, pin):
    from repro.service.batch import _compile_and_key

    _, key = _compile_and_key(_taylor1_job(**knobs))
    assert key == PINNED_BATCH_JOB_KEYS[pin]
