"""Command-line interface.

    python -m repro alloc FILE.c [--function f] [--allocator ip|gc]
                                 [--target x86|x86+ebp|risc]
                                 [--size-only] [--backend NAME]
                                 [--jobs N] [--cache [DIR]]
    python -m repro run FILE.c [--entry main] [--args 1 2 3]
                               [--allocator ip|gc|none]
    python -m repro experiments [--fast] [--bench NAME]
                                [--jobs N] [--cache [DIR]]
    python -m repro serve [--port P] [--queue-capacity N]
                          [--max-in-flight N] [--jobs N]
                          [--cache [DIR]] [--metrics-port P]
                          [--shard-id ID]
    python -m repro gateway [--port P] [--shards host:port,...]
                            [--spawn N] [--spawn-cache DIR]
    python -m repro submit FILE.c [--port P] [--deadline S]
                                  [--gateway URL]
                                  [--tenant NAME] [--show-trace]
                                  [--verb allocate|status|stats|ping
                                         |health|cancel|drain
                                         |metrics|trace|shards]

``alloc`` compiles a mini-C file, allocates one or all functions, and
prints the rewritten code with register assignments.  ``run`` executes
a program (optionally through an allocator) and reports the result and
cycle counts.  ``experiments`` (alias: ``exp``) regenerates the
paper's tables/figures.  ``serve`` starts the resident allocation
service (asyncio TCP, newline-delimited JSON) and ``submit`` sends it
a program or control verb.  ``gateway`` starts the HTTP front-end
that routes allocates across a fleet of ``serve`` shards on a
consistent-hash ring (``--spawn N`` forks N local shards with
per-shard caches); ``submit --gateway URL`` goes through it.

``submit`` exit codes: 0 success, 1 the service answered with an
error, 2 usage error, 3 could not reach the service (connection
refused or mid-stream disconnect) — distinct so fail-over tests and
scripts can tell "the server said no" from "there is no server".

``alloc`` and ``experiments`` go through the parallel allocation
engine: ``--jobs N`` fans per-function IP solves across N worker
processes (default: the ``REPRO_JOBS`` environment variable, else 1)
and ``--cache [DIR]`` replays previously solved functions from a
persistent on-disk result cache (default directory ``.repro-cache``,
LRU-bounded via ``--cache-max-entries`` / ``REPRO_CACHE_MAX_ENTRIES``).

The allocator config flags (``--backend``, ``--time-limit``,
``--size-only``, ``--no-presolve``) are the rows of
:data:`repro.core.CONFIG_KNOBS`, the table the service's request
``config`` is decoded by; each subcommand names the rows it takes.
They set the run's config on ``alloc``, ``run`` and ``exp``, the
service-wide default on ``serve`` and one request's ``config`` on
``submit``.  A flag not given leaves the default: a 64 s time limit
on the CLI (8 s for ``gateway --spawn``'s shards), the server's own
for ``submit``.

``serve``'s and ``gateway``'s deployment flags are generated from the
fields of :class:`~repro.service.ServiceConfig` and
:class:`~repro.gateway.GatewayConfig` (see :func:`_add_field_flags`):
each flag is named, typed, defaulted and documented by its field.

Presolve is on by default.  The ``scipy`` backend hands the setting
to HiGHS as the presolve option of its MIP run (its root LP always
runs without presolve); ``branch-bound`` and ``brute-force`` solve a
model shrunk by our presolve pipeline.  ``--no-presolve`` (or
``REPRO_PRESOLVE=0``) turns both off, so the backend gets the raw
model.

Observability flags (accepted before or after the subcommand):

    --stats             print the stats-registry snapshot on exit
    --trace             print the phase-tracer span tree on exit
    --report-json PATH  write a structured run report (per-phase
                        timings, §5 model breakdown, solver stats,
                        §4 cost split) as JSON
    --trace-id ID       caller identity stamped onto run reports
                        (generated when omitted but a report is asked)

Setting ``REPRO_TRACE=1`` in the environment is equivalent to passing
both ``--stats`` and ``--trace``.

Telemetry: ``serve --metrics-port P`` exposes Prometheus text on an
HTTP sidecar; ``submit --show-trace`` makes the server record the
request's full lifecycle (admission, queue, batch assembly, solve,
reply) and renders the stitched span tree after the reply.

Fault injection: ``--faults SPEC`` (on ``alloc``, ``run``, ``exp`` and
``serve``) installs a deterministic fault plan — equivalent to setting
``REPRO_FAULTS`` — e.g. ``--faults 'seed=7;worker_crash=0.25'``.  See
:mod:`repro.faults` for the spec grammar and the list of injection
sites.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import ctypes
import dataclasses
import json
import os
import sys
import typing
import uuid

from . import obs
from .allocation import render_allocation, validate_allocation
from .analysis import profiled_frequencies
from .baseline import GraphColoringAllocator
from .core import (
    CLI_TIME_LIMIT,
    CONFIG_KNOBS,
    AllocatorConfig,
    IPAllocator,
    config_from_wire,
)
from .engine import DEFAULT_CACHE_DIR, AllocationEngine, EngineConfig
from .gateway import (
    REPLICAS,
    AllocationGateway,
    GatewayClient,
    GatewayConfig,
    LocalShardFleet,
    ShardSupervisor,
)
from .lang import compile_program
from .obs import FunctionRunReport, RunReport
from .service import (
    AllocationServer,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from .sim import AllocatedFunction, Interpreter
from .target import TARGETS, x86_target

#: the port ``serve`` listens on and ``submit`` connects to unless
#: told otherwise
SERVE_PORT = 8753

#: ``submit`` exit codes (documented in the module docstring)
EXIT_OK = 0
EXIT_SERVICE_ERROR = 1
EXIT_USAGE = 2
EXIT_CONNECT = 3
#: the gateway answered 503 ``unavailable`` (every shard down or
#: breaker-open) with a Retry-After — distinct so scripts can back
#: off and retry instead of treating it as a hard failure
EXIT_UNAVAILABLE = 4


def _load(path: str):
    with open(path) as handle:
        return compile_program(handle.read(), name=path)


def _resolve_trace_id(args) -> str:
    """The run's caller identity: ``--trace-id``, or a generated one
    whenever a report was requested (so reports are attributable)."""
    trace_id = getattr(args, "trace_id", None)
    if trace_id:
        return trace_id
    if getattr(args, "report_json", None):
        trace_id = f"run-{uuid.uuid4().hex[:12]}"
        args.trace_id = trace_id  # memoize: one id per run
        return trace_id
    return ""


def _wire_config(args) -> dict:
    """The config flags given on the command line, as a request
    ``config`` object (see :func:`_add_config_flags`)."""
    return {
        knob.key: getattr(args, knob.key)
        for knob in CONFIG_KNOBS if hasattr(args, knob.key)
    }


def _allocator_config(args) -> AllocatorConfig:
    """The config flags over the CLI's defaults."""
    return config_from_wire(
        _wire_config(args), AllocatorConfig(time_limit=CLI_TIME_LIMIT)
    )


def _make_allocator(args, target):
    if args.allocator == "gc":
        return GraphColoringAllocator(target)
    return IPAllocator(target, _allocator_config(args))


def _default_jobs() -> int:
    """The REPRO_JOBS environment default for ``--jobs``."""
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        return 1


def _config_from_args(cls, args, **given):
    """The config dataclass ``cls`` built from the parsed flags whose
    names are its field names, and from ``given``."""
    names = {f.name for f in dataclasses.fields(cls)} & vars(args).keys()
    return cls(**{name: getattr(args, name) for name in names}, **given)


def _engine_config(args, fallback: bool = True) -> EngineConfig:
    """The engine configuration from ``--jobs``/``--cache``/
    ``--cache-max-entries``."""
    return _config_from_args(EngineConfig, args, fallback=fallback)


def _report_sink(args) -> RunReport | None:
    if not getattr(args, "report_json", None):
        return None
    return RunReport(
        target=args.target,
        backend=getattr(args, "backend", "scipy"),
        command=args.command,
        trace_id=_resolve_trace_id(args),
    )


def _report_collect(report: RunReport | None, alloc) -> None:
    if report is None:
        return
    if alloc.report is not None:
        alloc.report.trace_id = report.trace_id
        report.functions.append(alloc.report)
    else:
        # Baseline allocations carry no IP model; record the outcome.
        report.functions.append(FunctionRunReport(
            function=alloc.fn_name,
            allocator=alloc.allocator,
            status=alloc.status,
            n_instructions=alloc.function.n_instructions,
            trace_id=report.trace_id,
        ))


def _report_write(report: RunReport | None, args) -> None:
    if report is None:
        return
    report.counters = obs.snapshot()
    report.write(args.report_json)
    print(f"run report written to {args.report_json}", file=sys.stderr)


@contextlib.contextmanager
def stdout_to_stderr():
    """Run a solve phase with file descriptor 1 pointed at fd 2.

    HiGHS can write a line to fd 1 from C during a MIP run
    (``HighsMipSolverData::transformNewIntegerFeasibleSolution``),
    whatever its output options say.  ``alloc``, ``run`` and ``exp``
    finish every solve before they print, so in this phase whatever
    reaches fd 1 goes to stderr instead.  Buffered C stdio output is
    flushed (libc ``fflush(NULL)``) before fd 1 is restored, and
    worker processes forked inside the phase inherit the redirect.
    """
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        yield
    finally:
        sys.stdout.flush()
        ctypes.CDLL(None).fflush(None)
        os.dup2(saved, 1)
        os.close(saved)


def cmd_alloc(args) -> int:
    module = _load(args.file)
    target = TARGETS[args.target]()
    allocator = _make_allocator(args, target)
    report = _report_sink(args)
    functions = (
        [module.functions[args.function]]
        if args.function else list(module)
    )
    with stdout_to_stderr():
        if isinstance(allocator, IPAllocator):
            # The engine adds process-pool fan-out and cache replay;
            # with fallback off, a failed function reports "failed"
            # exactly as the bare allocator would.
            engine = AllocationEngine(
                target, allocator.config,
                _engine_config(args, fallback=False),
            )
            allocations = {
                o.function: o.attempt
                for o in engine.allocate_module(functions)
            }
        else:
            allocations = {
                fn.name: allocator.allocate(fn) for fn in functions
            }
    for fn in functions:
        alloc = allocations[fn.name]
        _report_collect(report, alloc)
        print(f"== {fn.name}: {alloc.status}", end="")
        if alloc.n_constraints:
            print(f" ({alloc.n_variables} vars, "
                  f"{alloc.n_constraints} constraints, "
                  f"{alloc.solve_seconds:.2f}s)", end="")
        print(" ==")
        if not alloc.succeeded:
            continue
        validate_allocation(alloc, target)
        # The canonical rendering (shared with the allocation service,
        # which emits it byte-identically) minus its header line — the
        # CLI header above adds the model-size/timing annotations.
        print(render_allocation(alloc, target).split("\n", 1)[1])
        print()
    _report_write(report, args)
    return 0


def cmd_run(args) -> int:
    module = _load(args.file)
    run_args = [int(a) for a in args.args]
    reference = Interpreter(module).run(args.entry, run_args)
    symbolic = (f"symbolic result: {reference.return_value} "
                f"(cycles {reference.cycles:.0f}, steps {reference.steps})")
    if args.allocator == "none":
        print(symbolic)
        return 0
    target = TARGETS[args.target]()
    allocator = _make_allocator(args, target)
    report = _report_sink(args)
    allocations = {}
    with stdout_to_stderr():
        for fn in module:
            freq = profiled_frequencies(fn, reference.blocks_of(fn.name))
            alloc = allocator.allocate(fn, freq)
            _report_collect(report, alloc)
            if not alloc.succeeded:
                print(f"warning: {fn.name} not allocated "
                      f"({alloc.status}); runs symbolically",
                      file=sys.stderr)
                continue
            validate_allocation(alloc, target)
            allocations[fn.name] = AllocatedFunction(
                alloc.function, alloc.assignment
            )
    print(symbolic)
    allocated = Interpreter(
        module, target=target, allocations=allocations
    ).run(args.entry, run_args)
    tag = "ip" if args.allocator == "ip" else "graph-coloring"
    print(f"{tag} result:     {allocated.return_value} "
          f"(cycles {allocated.cycles:.0f})")
    _report_write(report, args)
    if allocated.return_value != reference.return_value:
        print("MISMATCH against symbolic execution!", file=sys.stderr)
        return 1
    return 0


def cmd_experiments(args) -> int:
    from .bench import (
        load_all,
        load_benchmark,
        render_figure,
        render_table1,
        render_table2,
        render_table3,
        run_suite,
        suite_fig9,
        suite_fig10,
    )

    target = x86_target()
    config = _allocator_config(args)
    if args.bench:
        benchmarks = [load_benchmark(name) for name in args.bench]
    elif args.fast:
        benchmarks = [load_benchmark("compress"), load_benchmark("cc1")]
    else:
        benchmarks = load_all()
    with stdout_to_stderr():
        suite = run_suite(
            target, config, benchmarks,
            report_path=getattr(args, "report_json", None),
            engine=_engine_config(args),
            trace_id=_resolve_trace_id(args),
        )
    print(render_table1())
    print()
    print(render_table2(suite, config.time_limit))
    print()
    print(render_table3(suite))
    print()
    print(render_figure(
        suite_fig9(suite),
        "Figure 9. Constraints vs intermediate instructions.",
        "paper: slightly superlinear",
    ))
    print()
    print(render_figure(
        suite_fig10(suite),
        "Figure 10. Optimal solution time vs constraints.",
        "paper: roughly O(n^2.5) on CPLEX 6.0",
    ))
    return 0


def _service_config(args) -> ServiceConfig:
    """``serve``'s flags as the service's configuration."""
    return _config_from_args(
        ServiceConfig, args, defaults=_allocator_config(args)
    )


def cmd_serve(args) -> int:
    config = _service_config(args)
    server = AllocationServer(config)

    async def _run() -> None:
        await server.start()
        metrics = (
            f" metrics=:{server.metrics_port}"
            if server.metrics_port is not None else ""
        )
        shard = f" shard={config.shard_id}" if config.shard_id else ""
        fast = (
            f" fast-slo={config.fast_slo_ms:g}ms"
            if config.fast_slo_ms > 0 else ""
        )
        print(
            f"repro allocation service listening on "
            f"{config.host}:{server.port} "
            f"(queue={config.queue_capacity} "
            f"in-flight={config.max_in_flight} "
            f"jobs={server.scheduler.jobs} "
            f"cache={config.cache_dir or 'off'}{metrics}{shard}{fast})",
            flush=True,
        )
        try:
            await server.scheduler.drained_event.wait()
        finally:
            await server.stop()

    asyncio.run(_run())
    print("service drained; exiting", file=sys.stderr)
    return 0


def cmd_gateway(args) -> int:
    import signal as _signal

    config = _config_from_args(GatewayConfig, args)
    if not config.shards and not args.spawn and not config.state_file:
        print("error: gateway needs --shards host:port,..., "
              "--spawn N, and/or --state-file PATH", file=sys.stderr)
        return EXIT_USAGE

    fleet = None
    if args.spawn:
        fleet = LocalShardFleet(
            count=args.spawn,
            cache_root=args.spawn_cache,
            time_limit=args.time_limit,
            fast_slo_ms=args.fast_slo_ms,
        )
        fleet.start()

    gateway = AllocationGateway(config)
    if fleet is not None:
        for shard in fleet.shards:
            gateway.register_shard(
                shard.shard_id, "127.0.0.1", shard.port
            )
            print(f"spawned {shard.shard_id} "
                  f"pid={shard.process.pid} port={shard.port}",
                  flush=True)
        if not args.no_supervise:
            gateway.supervisor = ShardSupervisor(
                fleet,
                gateway.manager,
                restart_budget=args.restart_budget,
                poll_interval=min(1.0, args.probe_interval),
            ).start()
    gateway.start()

    def _stop(signum, frame):
        raise KeyboardInterrupt

    _signal.signal(_signal.SIGTERM, _stop)
    print(f"repro gateway listening on "
          f"{config.host}:{gateway.bound_port} "
          f"(shards={len(gateway.manager.shards())} "
          f"replicas={REPLICAS})",
          flush=True)
    try:
        gateway.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        gateway.shutdown()
        if fleet is not None:
            fleet.stop()
    print("gateway stopped", file=sys.stderr)
    return 0


def _allocate_request(args) -> dict | None:
    """The allocate keyword fields shared by both submit transports
    (None: usage error, already reported)."""
    if not args.file:
        print("error: allocate needs a program file", file=sys.stderr)
        return None
    with open(args.file) as handle:
        text = handle.read()
    config = _wire_config(args)
    return dict(
        source=None if args.ir else text,
        ir=text if args.ir else None,
        target=args.target,
        function=args.function,
        config=config or None,
        deadline=args.deadline,
        report=bool(getattr(args, "report_json", None)) or None,
        trace_id=getattr(args, "trace_id", None),
        tenant=args.tenant,
        trace=args.show_trace or None,
    )


def cmd_submit(args) -> int:
    if getattr(args, "gateway", None):
        return _submit_gateway(args)
    if args.verb == "shards":
        print("error: --verb shards needs --gateway URL",
              file=sys.stderr)
        return EXIT_USAGE
    where = f"{args.host}:{args.port}"
    try:
        client = ServiceClient(
            args.host, args.port, timeout=args.timeout,
            connect_retries=args.connect_retries,
        )
    except OSError as exc:
        print(f"error: cannot connect to {where}: {exc}",
              file=sys.stderr)
        return EXIT_CONNECT
    try:
        with client:
            if args.verb == "allocate":
                fields = _allocate_request(args)
                if fields is None:
                    return EXIT_USAGE
                response = client.allocate(**fields)
                if args.wait_optimal and response.get("ok"):
                    response = _await_optimal(
                        client, fields, response, args.timeout
                    )
            elif args.verb == "cancel":
                if not args.request:
                    print("error: cancel needs --request REF",
                          file=sys.stderr)
                    return EXIT_USAGE
                response = client.cancel(args.request)
            elif args.verb == "upgrade_status":
                if not args.request:
                    print("error: upgrade_status needs --request REF",
                          file=sys.stderr)
                    return EXIT_USAGE
                response = client.upgrade_status(args.request)
            elif args.verb == "trace":
                response = client.trace(args.request)
            else:
                response = getattr(client, args.verb)()
            lifecycle = None
            if (args.verb == "allocate" and args.show_trace
                    and response.get("ok")):
                lifecycle = client.trace(
                    response.get("trace_id")
                ).get("result", {}).get("trace")
    except (ConnectionError, OSError) as exc:
        # A clean, distinct failure for a dead or dying server (the
        # mid-stream-disconnect path), never a traceback: fail-over
        # tests and scripts key on this exit code.
        print(f"error: lost connection to {where}: {exc}",
              file=sys.stderr)
        return EXIT_CONNECT
    return _render_submit(args, response, lifecycle)


def _await_optimal(client, fields, response, timeout) -> dict:
    """``submit --wait-optimal``: poll until the background upgrade
    lands, then re-submit so the reply is the cache-upgraded optimal
    allocation (``tier: "ip"``).  The final response carries the
    terminal upgrade record (state, optimality gap, latency)."""
    result = response.get("result") or {}
    upgrade = result.get("upgrade")
    if not upgrade or result.get("tier") == "ip":
        return response  # already optimal (cache hit or exact path)
    status = client.wait_optimal(
        response.get("trace_id"), timeout=timeout
    )
    record = (status.get("result") or {}).get("upgrade") or {}
    result["upgrade"] = record or upgrade
    if record.get("state") != "done":
        return response  # failed/dropped/timed out: fast answer stands
    refetch = dict(fields)
    if refetch.get("trace_id"):
        # A distinct trace id for the cache-replay fetch: re-using the
        # original would overwrite its stored tree and lose the
        # stitched background-upgrade spans.
        refetch["trace_id"] = f"{refetch['trace_id']}+optimal"
    final = client.allocate(**refetch)
    if not final.get("ok"):
        return response
    final["result"]["upgrade"] = record
    return final


def _submit_gateway(args) -> int:
    """``repro submit --gateway URL``: same verbs over HTTP."""
    supported = ("allocate", "status", "trace", "metrics", "shards")
    if args.verb not in supported:
        print(f"error: --gateway supports verbs: "
              f"{', '.join(supported)}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with GatewayClient(args.gateway, timeout=args.timeout) as gw:
            if args.verb == "allocate":
                fields = _allocate_request(args)
                if fields is None:
                    return EXIT_USAGE
                response = gw.allocate(**fields)
            elif args.verb == "status":
                response = gw.status()
            elif args.verb == "shards":
                response = gw.shards()
            elif args.verb == "trace":
                response = gw.trace(args.request)
            else:  # metrics: raw Prometheus text, wrapped like the
                # TCP metrics verb so rendering is shared
                response = {"ok": True, "verb": "metrics",
                            "result": {"text": gw.metrics()}}
            lifecycle = None
            if (args.verb == "allocate" and args.show_trace
                    and response.get("ok")):
                lifecycle = gw.trace(
                    response.get("trace_id")
                ).get("result", {}).get("trace")
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach gateway {args.gateway}: {exc}",
              file=sys.stderr)
        return EXIT_CONNECT
    return _render_submit(args, response, lifecycle)


def _render_submit(args, response: dict, lifecycle) -> int:
    if args.json:
        print(json.dumps(response, indent=2))
    try:
        ServiceClient.check(response)
    except ServiceError as exc:
        if not args.json:
            print(f"error: {exc}", file=sys.stderr)
        if exc.code == "unavailable":
            # The whole fleet is down/breaker-open; the gateway sent
            # Retry-After, so tell scripts to back off, not fail hard.
            return EXIT_UNAVAILABLE
        return 1
    if args.json:
        return 0
    result = response.get("result", {})
    if args.verb == "allocate":
        for entry in result.get("functions", []):
            if "rendered" in entry:
                print(entry["rendered"])
            else:
                print(f"== {entry['function']}: {entry['status']} ==")
            print()
        summary = " ".join(
            f"{e['function']}={e['source']}"
            + (f"/{e['tier']}" if e.get("tier") else "")
            + ("+cache" if e.get("cache_hit") else "")
            for e in result.get("functions", [])
        )
        print(f"trace_id={response.get('trace_id', '')} {summary}",
              file=sys.stderr)
        if result.get("tier") is not None:
            line = f"tier={result['tier']}"
            if result.get("fast_cost") is not None:
                line += f" fast_cost={result['fast_cost']:g}"
            upgrade = result.get("upgrade") or {}
            if upgrade.get("state"):
                line += f" upgrade={upgrade['state']}"
            if upgrade.get("gap") is not None:
                line += (
                    f" gap={upgrade['gap']:g}"
                    f" optimal_cost={upgrade.get('optimal_cost', 0):g}"
                )
            print(line, file=sys.stderr)
        if getattr(args, "report_json", None):
            reports = [
                e["report"] for e in result.get("functions", [])
                if "report" in e
            ]
            with open(args.report_json, "w") as handle:
                json.dump(
                    {"trace_id": response.get("trace_id", ""),
                     "functions": reports},
                    handle, indent=2,
                )
            print(f"run report written to {args.report_json}",
                  file=sys.stderr)
        if lifecycle is not None:
            print("\n-- request lifecycle " + "-" * 43,
                  file=sys.stderr)
            print(obs.render_trace([obs.Span.from_dict(lifecycle)]),
                  file=sys.stderr)
    elif args.verb == "metrics":
        print(result.get("text", ""), end="")
    elif args.verb == "trace":
        tree = result.get("trace")
        if tree is None:
            print("(no finished trace recorded)", file=sys.stderr)
            return 1
        print(obs.render_trace([obs.Span.from_dict(tree)]))
    else:
        print(json.dumps(result, indent=2))
    return 0


def _default_cache_max() -> int | None:
    """The REPRO_CACHE_MAX_ENTRIES default for --cache-max-entries."""
    from .engine import default_max_entries

    return default_max_entries()


def _add_engine_options(parser) -> None:
    """Engine flags shared by the ``alloc`` and ``exp`` subcommands."""
    parser.add_argument(
        "--jobs", type=int, default=_default_jobs(), metavar="N",
        help="worker processes for per-function IP solves "
             "(default: $REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--cache", nargs="?", const=DEFAULT_CACHE_DIR, default=None,
        dest="cache_dir", metavar="DIR",
        help="replay solved functions from a persistent result cache "
             f"(default directory: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--cache-max-entries", type=int,
        default=_default_cache_max(), metavar="N",
        help="LRU bound on the result cache "
             "(default: $REPRO_CACHE_MAX_ENTRIES, else unbounded)",
    )


def _add_config_flags(parser, *keys) -> None:
    """Flags for the :data:`~repro.core.CONFIG_KNOBS` rows named by
    ``keys`` (wire keys).

    Each flag stores its value under the row's wire key, and only when
    given, so an omitted flag leaves the default in force: the CLI's,
    or for ``submit`` the server's.
    """
    for knob in CONFIG_KNOBS:
        if knob.key not in keys:
            continue
        kw = {"dest": knob.key, "default": argparse.SUPPRESS,
              "help": knob.help}
        if knob.kind is bool:
            kw.update(action="store_const", const=knob.flag_value)
        else:
            kw.update(type=knob.kind, choices=knob.choices or None)
        parser.add_argument(knob.flag, **kw)


def _add_field_flags(parser, cls, *names, **defaults) -> None:
    """Flags for the fields of the config dataclass ``cls`` that carry
    ``help`` metadata (of those, only ``names`` when given).

    ``queue_capacity`` becomes ``--queue-capacity``, typed by the
    field's annotation (or its ``type`` metadata) and defaulted by the
    field unless ``defaults`` names it.  The flag stores under the
    field name, which is what :func:`_config_from_args` reads.
    """
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if "help" not in f.metadata or (names and f.name not in names):
            continue
        hint = hints[f.name]
        kind = f.metadata.get("type") or next(
            t for t in typing.get_args(hint) or (hint,)
            if t is not type(None)
        )
        default = (
            f.default if f.default_factory is dataclasses.MISSING
            else f.default_factory()
        )
        parser.add_argument(
            "--" + f.name.replace("_", "-"),
            type=kind,
            default=defaults.get(f.name, default),
            metavar=f.metadata.get("metavar"),
            help=f.metadata["help"],
        )


def _add_faults_option(parser) -> None:
    parser.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="deterministic fault-injection plan, e.g. "
             "'seed=7;worker_crash=0.25;cache_corrupt=1.0:2' "
             "(also: REPRO_FAULTS)",
    )


def _add_obs_options(parser, top_level: bool) -> None:
    """Observability flags, valid before or after the subcommand.

    The main parser holds the defaults; subparsers use ``SUPPRESS`` so
    an omitted post-command flag does not clobber a pre-command one.
    """
    kw = {} if top_level else {"default": argparse.SUPPRESS}
    parser.add_argument(
        "--stats", action="store_true",
        help="print the observability stats snapshot on exit", **kw,
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="print the phase-tracer span tree on exit", **kw,
    )
    parser.add_argument(
        "--report-json", metavar="PATH", dest="report_json",
        default=None if top_level else argparse.SUPPRESS,
        help="write a structured JSON run report to PATH",
    )
    parser.add_argument(
        "--trace-id", metavar="ID", dest="trace_id",
        default=None if top_level else argparse.SUPPRESS,
        help="caller identity stamped onto run reports (generated "
             "when omitted but --report-json is given)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser, every subcommand included."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IP register allocation for irregular "
                    "architectures (Kong & Wilken, MICRO 1998)",
    )
    _add_obs_options(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_alloc = sub.add_parser("alloc", help="allocate a mini-C file")
    p_alloc.add_argument("file")
    p_alloc.add_argument("--function", default=None)
    p_alloc.add_argument("--allocator", choices=("ip", "gc"),
                         default="ip")
    p_alloc.add_argument("--target", choices=sorted(TARGETS),
                         default="x86")
    _add_config_flags(
        p_alloc, "backend", "time_limit", "size_only", "presolve"
    )
    _add_faults_option(p_alloc)
    _add_engine_options(p_alloc)
    _add_obs_options(p_alloc, top_level=False)
    p_alloc.set_defaults(func=cmd_alloc)

    p_run = sub.add_parser("run", help="execute a mini-C program")
    p_run.add_argument("file")
    p_run.add_argument("--entry", default="main")
    p_run.add_argument("--args", nargs="*", default=[])
    p_run.add_argument("--allocator", choices=("ip", "gc", "none"),
                       default="ip")
    p_run.add_argument("--target", choices=sorted(TARGETS),
                       default="x86")
    _add_config_flags(p_run, "backend", "presolve")
    _add_faults_option(p_run)
    _add_obs_options(p_run, top_level=False)
    p_run.set_defaults(func=cmd_run)

    p_exp = sub.add_parser(
        "experiments", aliases=["exp"],
        help="regenerate the paper's tables and figures",
    )
    p_exp.add_argument("--fast", action="store_true")
    p_exp.add_argument(
        "--bench", action="append", metavar="NAME", default=None,
        help="run only the named benchmark (repeatable)",
    )
    _add_config_flags(p_exp, "time_limit", "presolve")
    _add_faults_option(p_exp)
    _add_engine_options(p_exp)
    _add_obs_options(p_exp, top_level=False)
    p_exp.set_defaults(func=cmd_experiments)

    p_serve = sub.add_parser(
        "serve", help="start the resident allocation service",
    )
    # ServiceConfig.port stays 0 (ephemeral) for in-process servers;
    # a served process listens where submit looks by default.
    _add_field_flags(p_serve, ServiceConfig, port=SERVE_PORT)
    p_serve.add_argument("--target", choices=sorted(TARGETS),
                         dest="default_target", default=argparse.SUPPRESS,
                         help="target assumed when a request names "
                              "none")
    _add_config_flags(p_serve, "backend", "time_limit", "presolve")
    _add_faults_option(p_serve)
    _add_engine_options(p_serve)
    _add_obs_options(p_serve, top_level=False)
    p_serve.set_defaults(func=cmd_serve)

    p_gateway = sub.add_parser(
        "gateway",
        help="start the HTTP gateway over a fleet of serve shards",
    )
    _add_field_flags(p_gateway, GatewayConfig)
    spawned = p_gateway.add_argument_group(
        "spawned shards",
        "a local fleet of serve shards the gateway starts, fronts and "
        "supervises; --time-limit and --fast-slo-ms are passed to "
        "every shard",
    )
    spawned.add_argument("--spawn", type=int, default=0, metavar="N",
                         help="fork N local serve shards on ephemeral "
                              "ports (single-machine scale-out)")
    spawned.add_argument("--spawn-cache", default=None, metavar="DIR",
                         help="root for per-spawned-shard cache "
                              "directories (DIR/shard-N)")
    _add_config_flags(spawned, "time_limit")
    p_gateway.set_defaults(time_limit=8.0)
    _add_field_flags(spawned, ServiceConfig, "fast_slo_ms")
    spawned.add_argument("--restart-budget", type=int, default=3,
                         metavar="N",
                         help="respawn attempts per spawned shard "
                              "within a sliding window (cumulative "
                              "across deaths) before it is abandoned")
    spawned.add_argument("--no-supervise", action="store_true",
                         help="do not reap/respawn spawned shards "
                              "(legacy --spawn behaviour)")
    _add_obs_options(p_gateway, top_level=False)
    p_gateway.set_defaults(func=cmd_gateway)

    p_submit = sub.add_parser(
        "submit", help="send a program or verb to the service",
    )
    p_submit.add_argument("file", nargs="?", default=None)
    p_submit.add_argument("--verb", default="allocate",
                          choices=("allocate", "status", "stats",
                                   "ping", "health", "cancel",
                                   "drain", "metrics", "trace",
                                   "upgrade_status", "shards"))
    p_submit.add_argument("--gateway", default=None, metavar="URL",
                          help="route through an HTTP gateway "
                               "(http://host:port) instead of a "
                               "direct TCP connection")
    p_submit.add_argument("--host", default="127.0.0.1")
    p_submit.add_argument("--port", type=int, default=SERVE_PORT)
    p_submit.add_argument("--function", default=None)
    p_submit.add_argument("--target", choices=sorted(TARGETS),
                          default=None,
                          help="(default: the server's)")
    _add_config_flags(
        p_submit, "backend", "time_limit", "size_only", "presolve"
    )
    p_submit.add_argument("--ir", action="store_true",
                          help="FILE is printed IR, not mini-C")
    p_submit.add_argument("--deadline", type=float, default=None,
                          metavar="S",
                          help="wall-clock budget; an expired request "
                               "degrades to the baseline")
    p_submit.add_argument("--tenant", default=None,
                          help="tenant tag for fair queueing and "
                               "per-tenant accounting")
    p_submit.add_argument("--request", default=None, metavar="REF",
                          help="trace_id or id to cancel or fetch "
                               "(with --verb cancel/trace/"
                               "upgrade_status)")
    p_submit.add_argument("--wait-optimal", action="store_true",
                          dest="wait_optimal",
                          help="after a fast-tier reply, poll until "
                               "the background IP upgrade lands and "
                               "print the cache-upgraded optimal "
                               "answer (with its optimality gap)")
    p_submit.add_argument("--show-trace", action="store_true",
                          dest="show_trace",
                          help="record a request-lifecycle trace "
                               "server-side and render the stitched "
                               "span tree after the reply")
    p_submit.add_argument("--timeout", type=float, default=300.0,
                          help="client socket timeout")
    p_submit.add_argument("--connect-retries", type=int, default=0,
                          metavar="N",
                          help="retry refused connections N times")
    p_submit.add_argument("--json", action="store_true",
                          help="print the raw JSON response")
    _add_obs_options(p_submit, top_level=False)
    p_submit.set_defaults(func=cmd_submit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "faults", None):
        from .faults import set_injector

        try:
            set_injector(args.faults)
        except ValueError as exc:
            parser.error(f"--faults: {exc}")
    # REPRO_TRACE=1 behaves like passing --stats --trace.
    show_stats = args.stats or obs.TRACE_FROM_ENV
    show_trace = args.trace or obs.TRACE_FROM_ENV
    if show_trace:
        obs.set_trace_enabled(True)
    try:
        code = args.func(args)
    finally:
        if show_trace:
            print("\n-- phase trace " + "-" * 49, file=sys.stderr)
            print(obs.render_trace(), file=sys.stderr)
        if show_stats:
            print("\n-- stats " + "-" * 55, file=sys.stderr)
            print(obs.render_stats(), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
