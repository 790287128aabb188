"""Wire-protocol framing and request validation."""

import json

import pytest

from repro.server.protocol import (
    MAX_SOURCE_BYTES,
    SCHEMA_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
    error_response,
    machine_from_dict,
    parse_request,
    response,
)

GOOD_SOURCE = "program p; var x: int; begin x := 1; write(x) end."


def test_encode_decode_round_trip():
    payload = {"op": "health", "id": 7, "nested": {"a": [1, 2]}}
    line = encode_message(payload)
    assert line.endswith(b"\n")
    assert b"\n" not in line[:-1]
    assert decode_message(line[:-1]) == payload
    assert decode_message(line) == payload  # trailing newline tolerated


@pytest.mark.parametrize(
    "raw",
    [b"{not json", b"[1, 2, 3]", b'"just a string"', b"42"],
)
def test_decode_rejects_non_object_payloads(raw):
    with pytest.raises(ProtocolError):
        decode_message(raw)


def test_parse_health_and_stats():
    assert parse_request({"op": "health", "id": 3}).op == "health"
    req = parse_request({"op": "stats"})
    assert req.op == "stats" and req.id is None and req.job is None


def test_parse_compile_defaults():
    req = parse_request({"op": "compile", "source": GOOD_SOURCE, "id": "a1"})
    assert req.op == "compile" and req.id == "a1"
    job = req.job
    assert job is not None
    assert job.strategy == "STOR1"
    assert job.method == "hitting_set"
    assert job.unroll == 1 and job.seed == 0 and job.k is None
    assert job.machine.num_fus == 4 and job.machine.num_modules == 8
    assert req.deadline_ms is None
    assert req.include_allocation is False


def test_parse_compile_full():
    req = parse_request({
        "op": "compile",
        "source": GOOD_SOURCE,
        "name": "demo",
        "strategy": "stor2",
        "method": "backtrack",
        "unroll": 4,
        "constants_in_memory": True,
        "k": 4,
        "seed": 9,
        "machine": {"num_fus": 2, "num_modules": 4, "delta": 2.0},
        "deadline_ms": 1500,
        "include_allocation": True,
    })
    job = req.job
    assert job is not None
    assert job.strategy == "STOR2"  # normalized
    assert job.method == "backtrack"
    assert (job.unroll, job.k, job.seed) == (4, 4, 9)
    assert job.constants_in_memory is True
    assert job.machine.num_modules == 4 and job.machine.delta == 2.0
    assert req.deadline_ms == 1500.0
    assert req.include_allocation is True


@pytest.mark.parametrize(
    "obj,fragment",
    [
        ({}, "op"),
        ({"op": "nope"}, "op"),
        ({"op": "compile"}, "source"),
        ({"op": "compile", "source": ""}, "source"),
        ({"op": "compile", "source": "   "}, "source"),
        ({"op": "compile", "source": 42}, "source"),
        ({"op": "compile", "source": GOOD_SOURCE, "strategy": "STOR9"},
         "strategy"),
        ({"op": "compile", "source": GOOD_SOURCE, "method": "magic"},
         "method"),
        ({"op": "compile", "source": GOOD_SOURCE, "unroll": 0}, "unroll"),
        ({"op": "compile", "source": GOOD_SOURCE, "unroll": True}, "unroll"),
        ({"op": "compile", "source": GOOD_SOURCE, "seed": "x"}, "seed"),
        ({"op": "compile", "source": GOOD_SOURCE, "k": 0}, "k"),
        ({"op": "compile", "source": GOOD_SOURCE, "deadline_ms": -1},
         "deadline_ms"),
        ({"op": "compile", "source": GOOD_SOURCE, "deadline_ms": "soon"},
         "deadline_ms"),
        ({"op": "compile", "source": GOOD_SOURCE,
          "machine": {"cores": 4}}, "machine"),
        ({"op": "compile", "source": GOOD_SOURCE,
          "machine": {"num_modules": 0}}, "machine"),
        ({"op": "compile", "source": GOOD_SOURCE, "machine": "big"},
         "machine"),
        ({"op": "compile", "source": GOOD_SOURCE, "max_atom_nodes": 0},
         "max_atom_nodes"),
        ({"op": "compile", "source": GOOD_SOURCE, "max_atom_nodes": True},
         "max_atom_nodes"),
        ({"op": "compile", "source": GOOD_SOURCE, "runner": "fibers"},
         "runner"),
        ({"op": "compile", "source": GOOD_SOURCE,
          "array_layout": "hashed"}, "array_layout"),
        ({"op": "compile", "source": GOOD_SOURCE, "frontend": "cobol"},
         "frontend"),
        ({"op": "compile", "source": GOOD_SOURCE, "entry": 7}, "entry"),
        ({"op": "compile", "source": GOOD_SOURCE,
          "constants_in_memory": "false"}, "constants_in_memory"),
        ({"op": "compile", "source": GOOD_SOURCE,
          "constants_in_memory": 1}, "constants_in_memory"),
        ({"op": "compile", "source": GOOD_SOURCE,
          "include_allocation": "false"}, "include_allocation"),
        ({"op": "compile", "source": GOOD_SOURCE,
          "include_allocation": None}, "include_allocation"),
        ({"op": "compile", "source": GOOD_SOURCE, "name": 7}, "name"),
        ({"op": "compile", "source": GOOD_SOURCE, "runner": "processes"},
         "unknown runner 'processes' (valid: ['serial'])"),
        # fields outside the envelope and the job knobs
        ({"op": "compile", "source": GOOD_SOURCE, "strat": "STOR2"},
         "unknown compile fields: ['strat']"),
        ({"op": "compile", "source": GOOD_SOURCE, "bogus": 1},
         "unknown compile fields: ['bogus']"),
        ({"op": "compile", "source": GOOD_SOURCE, "strat": "STOR2",
          "bogus": 1}, "unknown compile fields: ['bogus', 'strat']"),
        ({"op": "compile", "source": GOOD_SOURCE, "layout": "blocked"},
         "unknown compile fields: ['layout']"),
        ({"op": "compile", "source": GOOD_SOURCE, "max_cycles": 10},
         "unknown compile fields: ['max_cycles']"),
    ],
)
def test_parse_rejects_invalid_requests(obj, fragment):
    with pytest.raises(ProtocolError) as err:
        parse_request(obj)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "field,message",
    [
        ("constants_in_memory", "constants_in_memory must be a boolean"),
        ("include_allocation", "include_allocation must be a boolean"),
    ],
)
def test_boolean_fields_require_json_booleans(field, message):
    # "false" is a non-empty string: bool() would have read it as True
    with pytest.raises(ProtocolError) as err:
        parse_request({"op": "compile", "source": GOOD_SOURCE,
                       field: "false"})
    assert str(err.value) == message
    req = parse_request({"op": "compile", "source": GOOD_SOURCE,
                         field: False})
    assert req.include_allocation is False
    assert req.job is not None and req.job.constants_in_memory is False


def test_parse_compile_workunit_knobs():
    req = parse_request({
        "op": "compile",
        "source": GOOD_SOURCE,
        "max_atom_nodes": 32,
        "runner": "serial",
    })
    assert req.job is not None
    assert req.job.max_atom_nodes == 32
    assert req.job.runner == "serial"
    # both default off/serial
    plain = parse_request({"op": "compile", "source": GOOD_SOURCE})
    assert plain.job is not None
    assert plain.job.max_atom_nodes is None
    assert plain.job.runner == "serial"


def test_parse_compile_array_layout_knob():
    req = parse_request({
        "op": "compile",
        "source": GOOD_SOURCE,
        "array_layout": "optimize",
    })
    assert req.job is not None
    assert req.job.array_layout == "optimize"
    plain = parse_request({"op": "compile", "source": GOOD_SOURCE})
    assert plain.job is not None
    assert plain.job.array_layout == "fixed"


def test_schema_version_covers_frontend_fields():
    # v5 added the frontend/entry compile-request fields; v6 removed
    # the delta_cache stats block; v7 removed the fabric identity
    # fields and the forwarded-in counter; v8 removed the upgrade-lane
    # block, its counters and config.adaptive; v9 rejects unknown
    # compile-request fields
    assert SCHEMA_VERSION == 9


def test_parse_compile_frontend_knob():
    req = parse_request({
        "op": "compile",
        "source": "def f():\n    write(1)\n",
        "frontend": "python",
        "entry": "f",
    })
    assert req.job is not None
    assert req.job.frontend == "python"
    assert req.job.entry == "f"
    plain = parse_request({"op": "compile", "source": GOOD_SOURCE})
    assert plain.job is not None
    assert plain.job.frontend == "mini"
    assert plain.job.entry == ""


def test_oversized_source_rejected_per_request():
    big = GOOD_SOURCE + " " * (MAX_SOURCE_BYTES + 1)
    with pytest.raises(ProtocolError) as err:
        parse_request({"op": "compile", "source": big})
    assert "exceeds" in str(err.value)


def test_machine_defaults_to_paper_machine():
    machine = machine_from_dict(None)
    assert (machine.num_fus, machine.num_modules) == (4, 8)


@pytest.mark.parametrize(
    "machine,message",
    [
        ({"num_modules": 2.5}, "num_modules must be an int, got float"),
        ({"num_modules": True}, "num_modules must be an int, got bool"),
        ({"num_fus": 4.0}, "num_fus must be an int, got float"),
        ({"num_fus": "4"}, "num_fus must be an int, got str"),
        ({"mem_ports": False}, "mem_ports must be an int, got bool"),
        ({"delta": True}, "delta must be a number, got bool"),
        ({"delta": "1"}, "delta must be a number, got str"),
        ({"delta": float("nan")}, "delta must be finite and > 0"),
        ({"delta": float("inf")}, "delta must be finite and > 0"),
        ({"delta": 0}, "delta must be finite and > 0"),
    ],
)
def test_machine_fields_are_typed(machine, message):
    # json.loads accepts NaN/Infinity, so they can arrive on the wire
    line = encode_message({"op": "compile", "source": GOOD_SOURCE,
                           "machine": machine})
    with pytest.raises(ProtocolError) as err:
        parse_request(decode_message(line))
    assert str(err.value).startswith(f"bad machine config: {message}")


def test_machine_accepts_int_and_float_delta():
    for delta in (2, 2.5):
        req = parse_request({"op": "compile", "source": GOOD_SOURCE,
                             "machine": {"delta": delta, "mem_ports": 4}})
        assert req.job is not None and req.job.machine.delta == delta


def test_batch_job_machine_is_typed_before_compiling():
    from repro.liw.machine import MachineConfig
    from repro.service.batch import BatchJob

    with pytest.raises(TypeError, match="num_modules must be an int"):
        BatchJob("j", GOOD_SOURCE, MachineConfig(num_modules=2.5))


def test_response_builders_are_jsonable():
    ok = response("id1", "ok", result={"singles": 3})
    assert ok["status"] == "ok" and ok["id"] == "id1"
    err = error_response(None, "boom")
    assert err["status"] == "error" and err["error"] == "boom"
    json.dumps([ok, err])
    with pytest.raises(AssertionError):
        response(1, "not-a-status")


# --------------------------------------------------------------------------
# Golden stats-payload schema (ISSUE 6): the `stats` endpoint is consumed
# by bench_server.py, the CI gate, and format_server_stats — its key sets
# are pinned here so additions are deliberate, schema-stable events.
# --------------------------------------------------------------------------

STATS_KEYS = [
    "cache",
    "config",
    "frontend_cache",
    "latency",
    "metric_counters",
    "queue",
    "requests",
    "schema_version",
    "stage_totals",
    "state",
    "uptime_s",
]

REQUEST_COUNTER_KEYS = [
    "array_opt_compiles",
    "cache_hits",
    "connections",
    "dedup_hits",
    "errors",
    "health",
    "ok",
    "overloaded",
    "oversized_lines",
    "protocol_errors",
    "rejected_draining",
    "requests",
    "stats",
    "strategy_executions",
    "timeouts",
]

CONFIG_KEYS = [
    "batch_window",
    "default_deadline",
    "max_batch",
    "max_queue",
    "workers",
]


def _stats() -> dict[str, object]:
    import asyncio

    from repro.server import CompileServer, ServerConfig

    async def snapshot():
        server = CompileServer(ServerConfig(port=0))
        try:
            return server.stats()
        finally:
            await server.aclose()

    return asyncio.run(snapshot())


def test_stats_payload_schema_is_golden():
    stats = _stats()
    assert sorted(stats.keys()) == STATS_KEYS
    assert sorted(stats["requests"].keys()) == REQUEST_COUNTER_KEYS
    assert sorted(stats["config"].keys()) == CONFIG_KEYS
    assert stats["schema_version"] == SCHEMA_VERSION
    json.dumps(stats)  # the whole payload must stay JSON-able


def test_server_counters_cover_background_work():
    from repro.server import ServerCounters

    counters = ServerCounters()
    as_dict = counters.as_dict()
    assert sorted(as_dict.keys()) == REQUEST_COUNTER_KEYS
    assert all(v == 0 for v in as_dict.values())
