"""The per-request knob table (:data:`repro.core.CONFIG_KNOBS`): every
row round-trips from its CLI flag through the wire form into its
:class:`AllocatorConfig` field, bad wire values are ``bad_request``,
and each subcommand keeps its flag set.  ``serve``'s and ``gateway``'s
deployment flags are generated from their config fields: without
flags they build the pinned defaults, and each flag sets its field."""

from __future__ import annotations

import argparse
import dataclasses

import pytest

from repro.__main__ import (
    _allocate_request,
    _allocator_config,
    _config_from_args,
    _service_config,
    build_parser,
)
from repro.core import CONFIG_KNOBS, AllocatorConfig, config_to_wire
from repro.gateway import GatewayConfig
from repro.service import MAX_LINE_BYTES, ServiceConfig
from repro.service.protocol import E_BAD_REQUEST, ProtocolError, request_config

#: every subcommand's option strings (``-h``/``--help`` left out)
GOLDEN_FLAGS = {
    "alloc": [
        "--allocator", "--backend", "--cache", "--cache-max-entries",
        "--faults", "--function", "--jobs", "--no-presolve",
        "--report-json", "--size-only", "--stats", "--target",
        "--time-limit", "--trace", "--trace-id",
    ],
    "run": [
        "--allocator", "--args", "--backend", "--entry", "--faults",
        "--no-presolve", "--report-json", "--stats", "--target",
        "--trace", "--trace-id",
    ],
    "experiments": [
        "--bench", "--cache", "--cache-max-entries", "--fast", "--faults",
        "--jobs", "--no-presolve", "--report-json", "--stats",
        "--time-limit", "--trace", "--trace-id",
    ],
    "serve": [
        "--backend", "--cache", "--cache-max-entries",
        "--cache-namespace-max-entries", "--fast-slo-ms", "--faults",
        "--host", "--jobs", "--max-batch", "--max-in-flight",
        "--max-request-bytes", "--metrics-port", "--no-presolve",
        "--port", "--queue-capacity", "--report-json", "--shard-id",
        "--stats", "--target", "--time-limit", "--trace", "--trace-id",
        "--upgrade-queue-capacity",
    ],
    "gateway": [
        "--breaker-threshold", "--fast-slo-ms", "--host",
        "--no-supervise", "--port", "--probe-interval", "--replicate",
        "--report-json", "--restart-budget", "--shards", "--spawn",
        "--spawn-cache", "--state-file", "--stats", "--time-limit",
        "--trace", "--trace-id",
    ],
    "submit": [
        "--backend", "--connect-retries", "--deadline", "--function",
        "--gateway", "--host", "--ir", "--json", "--no-presolve",
        "--port", "--report-json", "--request", "--show-trace",
        "--size-only", "--stats", "--target", "--tenant", "--time-limit",
        "--timeout", "--trace", "--trace-id", "--verb", "--wait-optimal",
    ],
}
GOLDEN_FLAGS["exp"] = GOLDEN_FLAGS["experiments"]


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    raise AssertionError("no subcommands")


def _off_default(knob):
    """A value of ``knob`` that differs from its field's default, and
    the argv that sets it."""
    default = getattr(AllocatorConfig(), knob.field)
    if knob.kind is bool:
        value, argv = knob.flag_value, [knob.flag]
    elif knob.choices:
        value = next(c for c in knob.choices if c != default)
        argv = [knob.flag, value]
    else:
        value = 7.5
        argv = [knob.flag, "7.5"] if knob.flag else []
    assert value != default, knob
    return value, argv


def test_flag_sets_are_pinned():
    flags = {
        name: sorted(
            option for action in parser._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        )
        for name, parser in _subparsers().items()
    }
    assert flags == GOLDEN_FLAGS


@pytest.mark.parametrize("knob", CONFIG_KNOBS, ids=lambda k: k.key)
def test_row_round_trips_flag_to_field(knob, tmp_path):
    value, argv = _off_default(knob)
    if knob.flag is None:
        wire = {knob.key: value}  # wire only: no flag sets it
    else:
        program = tmp_path / "p.c"
        program.write_text("int main(int n) { return n; }")
        args = build_parser().parse_args(["submit", str(program), *argv])
        wire = _allocate_request(args)["config"]
        assert wire == {knob.key: value}
    config = request_config({"config": wire}, AllocatorConfig())
    assert getattr(config, knob.field) == value
    assert config_to_wire(config)[knob.key] == value


@pytest.mark.parametrize(
    "argv", [["alloc", "p.c"], ["run", "p.c"], ["exp"], ["serve"]],
    ids=lambda argv: argv[0],
)
def test_local_subcommands_apply_their_flags(argv):
    names = set(GOLDEN_FLAGS[argv[0]])
    expected = {}
    for knob in CONFIG_KNOBS:
        if knob.flag in names:
            value, flag_argv = _off_default(knob)
            argv = argv + flag_argv
            expected[knob.field] = value
    config = _allocator_config(build_parser().parse_args(argv))
    assert {f: getattr(config, f) for f in expected} == expected


def test_cli_defaults_without_flags():
    config = _allocator_config(build_parser().parse_args(["alloc", "p.c"]))
    assert config.time_limit == 64.0
    assert config.backend == AllocatorConfig().backend
    args = build_parser().parse_args(["gateway", "--spawn", "1"])
    assert args.time_limit == 8.0


@pytest.mark.parametrize("config", [
    {"time_limit": "fast"},
    {"time_limit": True},
    {"time_limit": None},
    {"size_only": "false"},
    {"presolve": 0},
    {"backend": 3},
    {"backend": "not-a-backend"},
    {"code_size_weight": [1]},
    {"bogus_knob": 1},
    [1, 2],
    "scipy",
])
def test_bad_wire_config_is_bad_request(config):
    with pytest.raises(ProtocolError) as info:
        request_config({"config": config}, AllocatorConfig())
    assert info.value.code == E_BAD_REQUEST


def test_request_stamps_and_integral_numbers():
    config = request_config(
        {"config": {"time_limit": 8}, "trace_id": "t-1", "report": True},
        AllocatorConfig(),
    )
    assert config.time_limit == 8.0 and isinstance(config.time_limit, float)
    # The request's identity and report flag stay on the request: they
    # never reach the allocator's config.
    assert config == request_config(
        {"config": {"time_limit": 8}}, AllocatorConfig()
    )


#: one off-default value per generated flag: field -> (argv text, value)
OFF_DEFAULT_FIELDS = {
    "serve": {
        "host": ("0.0.0.0", "0.0.0.0"),
        "port": ("0", 0),
        "queue_capacity": ("3", 3),
        "max_in_flight": ("2", 2),
        "max_batch": ("5", 5),
        "cache_namespace_max_entries": ("9", 9),
        "shard_id": ("shard-7", "shard-7"),
        "max_request_bytes": ("4096", 4096),
        "metrics_port": ("0", 0),
        "fast_slo_ms": ("150", 150.0),
        "upgrade_queue_capacity": ("12", 12),
    },
    "gateway": {
        "host": ("0.0.0.0", "0.0.0.0"),
        "port": ("0", 0),
        "shards": (":8001,h:8002", [":8001", "h:8002"]),
        "probe_interval": ("0.5", 0.5),
        "breaker_threshold": ("1", 1),
        "state_file": ("ring.json", "ring.json"),
        "replicate": ("2", 2),
    },
}


def _built_config(argv):
    args = build_parser().parse_args(argv)
    if argv[0] == "serve":
        return _service_config(args)
    return _config_from_args(GatewayConfig, args)


def _fields(config) -> dict:
    return {f.name: getattr(config, f.name)
            for f in dataclasses.fields(config)}


@pytest.fixture
def clean_env(monkeypatch):
    for name in ("REPRO_JOBS", "REPRO_CACHE_MAX_ENTRIES", "REPRO_PRESOLVE"):
        monkeypatch.delenv(name, raising=False)


def test_serve_without_flags_builds_the_pinned_config(clean_env):
    assert _fields(_built_config(["serve"])) == {
        "host": "127.0.0.1",
        "port": 8753,
        "queue_capacity": 16,
        "max_in_flight": 4,
        "max_batch": 8,
        "jobs": 1,
        "cache_dir": None,
        "cache_max_entries": None,
        "cache_namespace_max_entries": None,
        "shard_id": "",
        "default_target": "x86",
        "defaults": AllocatorConfig(time_limit=64.0, presolve=True),
        "max_request_bytes": MAX_LINE_BYTES,
        "faults": None,
        "metrics_port": None,
        "fast_slo_ms": 0.0,
        "upgrade_queue_capacity": 64,
    }
    # an in-process server binds an ephemeral port
    assert ServiceConfig().port == 0


def test_gateway_without_flags_builds_the_pinned_config(clean_env):
    assert _fields(_built_config(["gateway"])) == {
        "host": "127.0.0.1",
        "port": 8750,
        "shards": [],
        "probe_interval": 2.0,
        "probe_timeout": 5.0,
        "breaker_threshold": 3,
        "breaker_reset": 5.0,
        "state_file": "",
        "replicate": 0,
    }
    args = build_parser().parse_args(["gateway"])
    spawned = {name: getattr(args, name) for name in (
        "spawn", "spawn_cache", "time_limit", "fast_slo_ms",
        "restart_budget", "no_supervise",
    )}
    assert spawned == {
        "spawn": 0, "spawn_cache": None, "time_limit": 8.0,
        "fast_slo_ms": 0.0, "restart_budget": 3, "no_supervise": False,
    }


@pytest.mark.parametrize("command,cls", [
    ("serve", ServiceConfig), ("gateway", GatewayConfig),
])
def test_every_field_flag_is_covered(command, cls):
    flagged = {f.name for f in dataclasses.fields(cls) if "help" in f.metadata}
    assert flagged == set(OFF_DEFAULT_FIELDS[command])


@pytest.mark.parametrize(
    "command,name",
    [(c, n) for c, table in OFF_DEFAULT_FIELDS.items() for n in table],
    ids=lambda v: v,
)
def test_field_flag_lands_in_its_field(command, name):
    text, value = OFF_DEFAULT_FIELDS[command][name]
    flag = "--" + name.replace("_", "-")
    default = getattr(_built_config([command]), name)
    config = _built_config([command, flag, text])
    assert default != value
    assert getattr(config, name) == value
    assert type(getattr(config, name)) is type(value)
