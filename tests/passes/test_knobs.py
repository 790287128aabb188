"""The knob table: one bad value, one message, at every boundary."""

import pytest

from repro.__main__ import main
from repro.liw.machine import MachineConfig
from repro.passes.knobs import JOB_KNOBS, KNOB, KNOBS, pipeline_options
from repro.server.protocol import ProtocolError, parse_request
from repro.service.batch import BatchJob

SOURCE = "program p; var x: int; begin x := 1; write(x) end."

#: knob -> (bad JSON value, the same value as command-line text or None
#: when the flag cannot express it)
BAD_VALUES = {
    "strategy": ("STOR9", "STOR9"),
    "method": ("magic", "magic"),
    "unroll": (0, "0"),
    "seed": ("x", "x"),
    "k": (0, None),
    "max_atom_nodes": (0, "0"),
    "runner": ("threads", None),
    "array_layout": ("hashed", "hashed"),
    "frontend": ("cobol", "cobol"),
    "entry": (7, None),
    "constants_in_memory": ("false", None),
    "simplify": (None, None),
    "rename_mode": (None, "nope"),
    "layout": (None, "hashed"),
    "delta": (None, "0"),
}


def test_every_knob_has_a_bad_value_case():
    assert set(BAD_VALUES) == {knob.name for knob in KNOBS}


@pytest.mark.parametrize("name", sorted(BAD_VALUES))
def test_bad_value_gets_the_same_message_everywhere(name, capsys):
    knob = KNOB[name]
    value, text = BAD_VALUES[name]
    messages = set()
    if knob.job:
        with pytest.raises(ProtocolError) as err:
            parse_request({"op": "compile", "source": SOURCE, name: value})
        messages.add(str(err.value))
        with pytest.raises(ValueError) as err:
            BatchJob("j", SOURCE, **{name: value})
        messages.add(str(err.value))
    if text is not None:
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "TAYLOR1", knob.flag, text])
        assert exit_info.value.code == 2
        err_text = capsys.readouterr().err
        assert "Traceback" not in err_text
        line = err_text.strip().splitlines()[-1]
        prefix = f"argument {knob.flag}: "
        assert prefix in line
        messages.add(line.split(prefix, 1)[1])
    assert len(messages) <= 1, messages
    if messages:
        assert name in messages.pop()


@pytest.mark.parametrize("text", ["-3", "65", "two"])
def test_cli_rejects_unroll_outside_the_protocol_range(text, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "TAYLOR1", "--unroll", text])
    assert exit_info.value.code == 2
    assert "unroll must be an int in 1..64" in capsys.readouterr().err


def test_job_options_follow_the_table():
    job = BatchJob(
        "j", SOURCE, MachineConfig(num_modules=4), strategy="stor2",
        unroll=2, max_atom_nodes=6, frontend="python", entry="f",
    )
    assert job.strategy == "STOR2"  # the protocol's spelling
    options = job.options()
    assert options.strategy == "STOR2" and options.unroll == 2
    assert options.py_entry == "f" and options.frontend == "python"
    assert options.knobs() == {"max_atom_nodes": 6}
    assert options.machine == MachineConfig(num_modules=4)
    # an unset strategy knob stays out of the allocate fingerprint
    assert BatchJob("j", SOURCE).options().strategy_knobs == ()
    assert pipeline_options({}, MachineConfig()) == BatchJob("j", SOURCE).options()


def test_job_knobs_are_the_batch_job_fields():
    fields = set(BatchJob.__dataclass_fields__) - {"name", "source", "machine"}
    assert fields == {knob.name for knob in JOB_KNOBS}
