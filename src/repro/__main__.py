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

Presolve is on by default.  The ``scipy`` backend hands the setting
to HiGHS as its own presolve option; ``branch-bound`` and
``brute-force`` solve a model shrunk by our presolve pipeline.
``--no-presolve`` (or ``REPRO_PRESOLVE=0``) turns both off, so the
backend gets the raw model.  The flag exists on ``alloc``, ``run``,
``exp``, ``serve`` (service-wide default) and ``submit`` (per request).

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
import json
import os
import sys
import uuid

from . import obs
from .allocation import render_allocation, validate_allocation
from .analysis import profiled_frequencies
from .baseline import GraphColoringAllocator
from .core import AllocatorConfig, IPAllocator
from .engine import DEFAULT_CACHE_DIR, AllocationEngine, EngineConfig
from .lang import compile_program
from .obs import FunctionRunReport, RunReport
from .sim import AllocatedFunction, Interpreter
from .presolve import presolve_enabled_default
from .solver import BACKENDS
from .target import risc_target, x86_target

TARGETS = {
    "x86": lambda: x86_target(),
    "x86+ebp": lambda: x86_target(allow_ebp=True),
    "risc": lambda: risc_target(),
}

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


def _presolve_setting(args) -> bool:
    """``--no-presolve`` wins; otherwise the REPRO_PRESOLVE default."""
    if getattr(args, "no_presolve", False):
        return False
    return presolve_enabled_default()


def _make_allocator(args, target):
    if args.allocator == "gc":
        return GraphColoringAllocator(target)
    config = AllocatorConfig(
        backend=getattr(args, "backend", "scipy"),
        time_limit=getattr(args, "time_limit", 64.0),
        presolve=_presolve_setting(args),
        optimize_size_only=getattr(args, "size_only", False),
        collect_report=bool(getattr(args, "report_json", None)),
        trace_id=_resolve_trace_id(args),
    )
    return IPAllocator(target, config)


def _default_jobs() -> int:
    """The REPRO_JOBS environment default for ``--jobs``."""
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        return 1


def _engine_config(args, fallback: bool = True) -> EngineConfig:
    """Build the engine configuration from ``--jobs``/``--cache``."""
    return EngineConfig(
        jobs=getattr(args, "jobs", 1),
        cache_dir=getattr(args, "cache", None),
        cache_max_entries=getattr(args, "cache_max_entries", None),
        fallback=fallback,
    )


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
        report.functions.append(alloc.report)
    else:
        # Baseline allocations carry no IP model; record the outcome.
        report.functions.append(FunctionRunReport(
            function=alloc.fn_name,
            allocator=alloc.allocator,
            status=alloc.status,
            n_instructions=alloc.function.n_instructions,
        ))


def _report_write(report: RunReport | None, args) -> None:
    if report is None:
        return
    report.counters = obs.snapshot()
    report.write(args.report_json)
    print(f"run report written to {args.report_json}", file=sys.stderr)


def cmd_alloc(args) -> int:
    module = _load(args.file)
    target = TARGETS[args.target]()
    allocator = _make_allocator(args, target)
    report = _report_sink(args)
    functions = (
        [module.functions[args.function]]
        if args.function else list(module)
    )
    if isinstance(allocator, IPAllocator):
        # The engine adds process-pool fan-out and cache replay; with
        # fallback off, a failed function reports "failed" exactly as
        # the bare allocator would.
        engine = AllocationEngine(
            target, allocator.config, _engine_config(args, fallback=False)
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
    print(f"symbolic result: {reference.return_value} "
          f"(cycles {reference.cycles:.0f}, steps {reference.steps})")
    if args.allocator == "none":
        return 0
    target = TARGETS[args.target]()
    allocator = _make_allocator(args, target)
    report = _report_sink(args)
    allocations = {}
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
    config = AllocatorConfig(
        time_limit=args.time_limit,
        presolve=_presolve_setting(args),
        trace_id=_resolve_trace_id(args),
    )
    if args.bench:
        benchmarks = [load_benchmark(name) for name in args.bench]
    elif args.fast:
        benchmarks = [load_benchmark("compress"), load_benchmark("cc1")]
    else:
        benchmarks = load_all()
    suite = run_suite(
        target, config, benchmarks,
        report_path=getattr(args, "report_json", None),
        engine=_engine_config(args),
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


def cmd_serve(args) -> int:
    from .service import AllocationServer, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        queue_capacity=args.queue_capacity,
        max_in_flight=args.max_in_flight,
        max_batch=args.max_batch,
        jobs=args.jobs,
        cache_dir=args.cache,
        cache_max_entries=args.cache_max_entries,
        cache_namespace_max_entries=args.cache_namespace_max_entries,
        shard_id=args.shard_id,
        default_target=args.target,
        default_time_limit=args.time_limit,
        default_backend=args.backend,
        default_presolve=_presolve_setting(args),
        faults=getattr(args, "faults", None),
        metrics_port=args.metrics_port,
        fast_slo_ms=args.fast_slo_ms,
        upgrade_queue_capacity=args.upgrade_queue_capacity,
    )
    if args.max_request_bytes is not None:
        config.max_request_bytes = args.max_request_bytes
    server = AllocationServer(config, targets=dict(TARGETS))

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

    from .gateway import (
        AllocationGateway,
        GatewayConfig,
        LocalShardFleet,
        ShardSupervisor,
    )

    shards = [s for s in (args.shards or "").split(",") if s]
    if not shards and not args.spawn and not args.state_file:
        print("error: gateway needs --shards host:port,..., "
              "--spawn N, and/or --state-file PATH", file=sys.stderr)
        return EXIT_USAGE

    fleet = None
    if args.spawn:
        extra: list[str] = []
        if args.fast_slo_ms:
            extra += ["--fast-slo-ms", str(args.fast_slo_ms)]
        fleet = LocalShardFleet(
            count=args.spawn,
            cache_root=args.spawn_cache,
            time_limit=args.time_limit,
            extra_args=extra,
        )
        fleet.start()

    config = GatewayConfig(
        host=args.host,
        port=args.port,
        shards=shards,
        replicas=args.replicas,
        probe_interval=args.probe_interval,
        probe_timeout=args.probe_timeout,
        breaker_threshold=args.breaker_threshold,
        breaker_reset=args.breaker_reset,
        proxy_timeout=args.proxy_timeout,
        state_file=args.state_file or "",
        replicate=max(0, args.replicate),
    )
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
          f"replicas={config.replicas})",
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
    config = {}
    if args.backend is not None:
        config["backend"] = args.backend
    if args.time_limit is not None:
        config["time_limit"] = args.time_limit
    if args.size_only:
        config["size_only"] = True
    if args.no_presolve:
        config["presolve"] = False
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
    from .service import ServiceClient

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
    from .gateway import GatewayClient

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
    from .service import ServiceClient, ServiceError

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
        metavar="DIR",
        help="replay solved functions from a persistent result cache "
             f"(default directory: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--cache-max-entries", type=int,
        default=_default_cache_max(), metavar="N",
        help="LRU bound on the result cache "
             "(default: $REPRO_CACHE_MAX_ENTRIES, else unbounded)",
    )


def _add_presolve_option(parser) -> None:
    parser.add_argument(
        "--no-presolve", action="store_true", dest="no_presolve",
        help="solve the raw IP model: no HiGHS presolve (scipy) and "
             "no reduction pipeline (other backends); also "
             "REPRO_PRESOLVE=0",
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


def main(argv=None) -> int:
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
    p_alloc.add_argument("--backend",
                         choices=sorted(BACKENDS),
                         default="scipy")
    p_alloc.add_argument("--size-only", action="store_true")
    p_alloc.add_argument("--time-limit", type=float, default=64.0)
    _add_presolve_option(p_alloc)
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
    p_run.add_argument("--backend",
                       choices=sorted(BACKENDS),
                       default="scipy")
    _add_presolve_option(p_run)
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
    p_exp.add_argument("--time-limit", type=float, default=64.0)
    _add_presolve_option(p_exp)
    _add_faults_option(p_exp)
    _add_engine_options(p_exp)
    _add_obs_options(p_exp, top_level=False)
    p_exp.set_defaults(func=cmd_experiments)

    p_serve = sub.add_parser(
        "serve", help="start the resident allocation service",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8753,
                         help="TCP port (0 = ephemeral)")
    p_serve.add_argument("--queue-capacity", type=int, default=16,
                         metavar="N",
                         help="admission queue bound; a full queue "
                              "rejects with 'overloaded'")
    p_serve.add_argument("--max-in-flight", type=int, default=4,
                         metavar="N",
                         help="requests solved concurrently")
    p_serve.add_argument("--max-batch", type=int, default=8,
                         metavar="N",
                         help="most requests one solver batch carries")
    p_serve.add_argument("--max-request-bytes", type=int, default=None,
                         metavar="N",
                         help="reject longer request lines with "
                              "'too_large' (default: the protocol "
                              "line limit)")
    p_serve.add_argument("--target", choices=sorted(TARGETS),
                         default="x86",
                         help="target assumed when a request names "
                              "none")
    p_serve.add_argument("--backend", choices=sorted(BACKENDS),
                         default="scipy")
    p_serve.add_argument("--time-limit", type=float, default=64.0)
    p_serve.add_argument("--metrics-port", type=int, default=None,
                         metavar="P",
                         help="serve Prometheus text on an HTTP "
                              "sidecar at this port (0 = ephemeral)")
    p_serve.add_argument("--shard-id", default="", metavar="ID",
                         help="identity reported in status/stats/"
                              "health (set by the gateway's --spawn)")
    p_serve.add_argument("--fast-slo-ms", type=float, default=0.0,
                         metavar="MS",
                         help="enable tiered allocation: answer "
                              "within MS milliseconds from the "
                              "linear-scan fast tier and upgrade to "
                              "the exact IP solve in the background "
                              "(0 = exact-only, the default)")
    p_serve.add_argument("--upgrade-queue-capacity", type=int,
                         default=64, metavar="N",
                         help="background optimal-upgrade jobs that "
                              "may wait; past N new upgrades are "
                              "dropped and the fast answer stands")
    p_serve.add_argument("--cache-namespace-max-entries", type=int,
                         default=None, metavar="N",
                         help="per-tenant LRU bound on cache "
                              "namespaces (default: "
                              "--cache-max-entries)")
    _add_presolve_option(p_serve)
    _add_faults_option(p_serve)
    _add_engine_options(p_serve)
    _add_obs_options(p_serve, top_level=False)
    p_serve.set_defaults(func=cmd_serve)

    p_gateway = sub.add_parser(
        "gateway",
        help="start the HTTP gateway over a fleet of serve shards",
    )
    p_gateway.add_argument("--host", default="127.0.0.1")
    p_gateway.add_argument("--port", type=int, default=8750,
                           help="HTTP port (0 = ephemeral)")
    p_gateway.add_argument("--shards", default="",
                           metavar="HOST:PORT,...",
                           help="comma-separated engine-server "
                                "shards to front")
    p_gateway.add_argument("--spawn", type=int, default=0,
                           metavar="N",
                           help="fork N local serve shards on "
                                "ephemeral ports (single-machine "
                                "scale-out)")
    p_gateway.add_argument("--spawn-cache", default=None,
                           metavar="DIR",
                           help="root for per-spawned-shard cache "
                                "directories (DIR/shard-N)")
    p_gateway.add_argument("--time-limit", type=float, default=8.0,
                           help="solver time limit for spawned "
                                "shards")
    p_gateway.add_argument("--replicas", type=int, default=128,
                           metavar="N",
                           help="virtual nodes per shard on the "
                                "hash ring")
    p_gateway.add_argument("--probe-interval", type=float,
                           default=2.0, metavar="S",
                           help="seconds between shard health "
                                "probes")
    p_gateway.add_argument("--probe-timeout", type=float,
                           default=5.0, metavar="S")
    p_gateway.add_argument("--breaker-threshold", type=int,
                           default=3, metavar="N",
                           help="consecutive failures before a "
                                "shard's breaker opens")
    p_gateway.add_argument("--breaker-reset", type=float,
                           default=5.0, metavar="S",
                           help="seconds an open breaker waits "
                                "before the half-open probe")
    p_gateway.add_argument("--proxy-timeout", type=float,
                           default=300.0, metavar="S",
                           help="per-attempt socket timeout toward "
                                "a shard")
    p_gateway.add_argument("--state-file", default="",
                           metavar="PATH",
                           help="journal ring membership to PATH on "
                                "every change and restore it at "
                                "startup (gateway crash recovery)")
    p_gateway.add_argument("--replicate", type=int, default=0,
                           metavar="N",
                           help="replicate each optimal result's "
                                "cache record to the next N ring "
                                "successors (0 = off)")
    p_gateway.add_argument("--restart-budget", type=int, default=3,
                           metavar="N",
                           help="respawn attempts per spawned shard "
                                "within a sliding window (cumulative "
                                "across deaths) before it is abandoned")
    p_gateway.add_argument("--no-supervise", action="store_true",
                           help="do not reap/respawn spawned shards "
                                "(legacy --spawn behaviour)")
    p_gateway.add_argument("--fast-slo-ms", type=float, default=0.0,
                           metavar="MS",
                           help="pass --fast-slo-ms MS to spawned "
                                "shards (tiered allocation)")
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
    p_submit.add_argument("--port", type=int, default=8753)
    p_submit.add_argument("--function", default=None)
    p_submit.add_argument("--target", choices=sorted(TARGETS),
                          default=None,
                          help="(default: the server's)")
    p_submit.add_argument("--backend", choices=sorted(BACKENDS),
                          default=None,
                          help="(default: the server's)")
    p_submit.add_argument("--time-limit", type=float, default=None)
    p_submit.add_argument("--size-only", action="store_true")
    _add_presolve_option(p_submit)
    p_submit.add_argument("--ir", action="store_true",
                          help="FILE is printed IR, not mini-C")
    p_submit.add_argument("--deadline", type=float, default=None,
                          metavar="S",
                          help="wall-clock budget; an expired request "
                               "degrades to the baseline")
    p_submit.add_argument("--tenant", default=None,
                          help="tenant tag for fair queueing and "
                               "per-tenant size limits")
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

    args = parser.parse_args(argv)
    if getattr(args, "faults", None):
        from .faults import set_injector

        try:
            set_injector(args.faults)
        except ValueError as exc:
            parser.error(f"--faults: {exc}")
    # REPRO_TRACE=1 behaves like passing --stats --trace.
    env_on = os.environ.get("REPRO_TRACE", "0") not in ("", "0")
    show_stats = args.stats or env_on
    show_trace = args.trace or env_on
    # --report-json needs live counters for the per-function deltas.
    obs.enable(stats=show_stats or bool(args.report_json),
               trace=show_trace)
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
