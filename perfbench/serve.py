"""``serve-mixed``: closed-loop traffic against ``repro gateway --spawn 2``.

Two connections (one per core) each send a seeded sequence of request
*blocks*.  Every block holds the same multiset of requests: a skewed
popularity quota of a fixed hot set that setup pre-warms, plus a few
first-seen programs that must be solved and written to the cache.  The
seed only shuffles each block and names the first-seen programs, so
every run offers the same mix.  One operation is one allocate request.
"""

from __future__ import annotations

import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.bench.generator import GeneratorConfig, ProgramGenerator
from repro.gateway import GatewayClient
from repro.core import AllocatorConfig
from repro.engine import AllocationEngine
from repro.lang import compile_program
from repro.service.client import ServiceClient
from repro.sim import AllocatedFunction, Interpreter
from repro.target import x86_target

from repro.telemetry import percentile_of as percentile

from common import ROOT, Measurement, Quality, clean_env

CONNECTIONS = 2
SHARDS = 2
#: solver time limit of the spawned shards (no request may hit it)
TIME_LIMIT = 120.0
#: requests per block: hot quota plus first-seen programs
HOT_PER_BLOCK = 22
FRESH_PER_BLOCK = 2
BLOCK = HOT_PER_BLOCK + FRESH_PER_BLOCK
#: reply fields that must repeat exactly for a hot program
REPEAT_FIELDS = ("function", "status", "objective", "code", "assignment")

SPAWN_RE = re.compile(r"spawned (\S+) pid=(\d+) port=(\d+)")
BANNER_RE = re.compile(r"repro gateway listening on \S+:(\d+)")


@dataclass(slots=True)
class HotProgram:
    name: str
    source: str
    entry: str
    args: list[int]
    #: requests per block (its popularity)
    weight: int = 0
    #: the warm-up reply's repeatable fields, per function
    signature: list = field(default_factory=list)
    reply: dict = field(default_factory=dict)


def _generated(seed: int, n_functions: int, size: int) -> str:
    config = GeneratorConfig(
        n_functions=n_functions, body_statements=(size, size + 1),
        max_loop_nest=1, max_expr_depth=2,
    )
    return ProgramGenerator(seed, config).program_source()


def hot_set() -> list[HotProgram]:
    """Fixed hot programs, most popular first: single tiny functions
    interleaved with small ``bench.generator`` programs."""
    tiny = [
        HotProgram(f"tiny{i}",
                   f"int hot{i}(int a) {{ return a * {3 + 2 * i} "
                   f"+ (a >> {i + 1}); }}", f"hot{i}", [7 + i])
        for i in range(4)
    ]
    generated = [
        HotProgram(f"gen{seed}_{n}x{size}", _generated(seed, n, size),
                   "main", [5])
        for seed, n, size in ((1, 2, 2), (4, 2, 1), (3, 1, 2), (5, 2, 2),
                              (0, 2, 1), (1, 1, 1), (2, 1, 2), (4, 1, 1))
    ]
    ranked = [p for pair in zip(tiny, generated[:4]) for p in pair]
    ranked += generated[4:]
    # Zipf popularity, rounded to whole requests per block by largest
    # remainder so the block quota sums exactly.
    raw = [HOT_PER_BLOCK / (r + 1) for r in range(len(ranked))]
    scale = HOT_PER_BLOCK / sum(raw)
    quotas = [x * scale for x in raw]
    for program, quota in zip(ranked, quotas):
        program.weight = max(1, int(quota))
    spare = HOT_PER_BLOCK - sum(p.weight for p in ranked)
    by_remainder = sorted(range(len(ranked)),
                          key=lambda i: int(quotas[i]) - quotas[i])
    for i in by_remainder[:max(0, spare)]:
        ranked[i].weight += 1
    return ranked


#: shapes of the first-seen programs; each block has one of each
FRESH_SHAPES = (_generated(11, 2, 1), _generated(12, 2, 1))


def fresh_program(shape: int, tag: str) -> str:
    """A first-seen program: a fixed shape under unique names, so its
    solve costs the same in every run but always misses the cache."""
    return re.sub(r"\b(fn\d+|main)\b", lambda m: f"{m.group(1)}_{tag}",
                  FRESH_SHAPES[shape])


def block(rng: random.Random, hot: list[HotProgram], tag: str):
    """One shuffled block: ``(kind, program or None, source)`` items."""
    items = [("hot", p, p.source) for p in hot for _ in range(p.weight)]
    items += [
        ("fresh", None, fresh_program(k % len(FRESH_SHAPES), f"{tag}x{k}"))
        for k in range(FRESH_PER_BLOCK)
    ]
    rng.shuffle(items)
    return items


def repeatable(reply: dict) -> list:
    return [
        tuple(str(fn.get(k)) for k in REPEAT_FIELDS)
        for fn in (reply.get("result") or {}).get("functions", [])
    ]


def reply_problem(reply: dict) -> str:
    """Why a reply is unacceptable ('' when it is fine)."""
    if not reply.get("ok"):
        return f"error {(reply.get('error') or {}).get('code')}"
    functions = (reply.get("result") or {}).get("functions") or []
    if not functions:
        return "no functions in reply"
    for fn in functions:
        if fn.get("status") not in ("optimal", "feasible") \
                or fn.get("source") == "fallback" or fn.get("timed_out"):
            return (f"{fn.get('function')}: status={fn.get('status')} "
                    f"source={fn.get('source')}")
    return ""


class Fleet:
    """``repro gateway --spawn 2`` as a child process."""

    def __init__(self, cache_root: Path) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "gateway", "--port", "0",
             "--spawn", str(SHARDS), "--spawn-cache", str(cache_root),
             "--time-limit", str(TIME_LIMIT)],
            cwd=str(ROOT), env=clean_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        self.shards: dict[str, tuple[int, int]] = {}  # id -> (pid, port)
        self.port = 0
        deadline = time.monotonic() + 90.0
        while not self.port and time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            spawned = SPAWN_RE.search(line)
            if spawned:
                self.shards[spawned.group(1)] = (
                    int(spawned.group(2)), int(spawned.group(3)))
            banner = BANNER_RE.search(line)
            if banner:
                self.port = int(banner.group(1))
        if not self.port or len(self.shards) != SHARDS:
            self.stop()
            raise RuntimeError("gateway fleet did not start")
        # Keep draining stdout so the gateway never blocks on a full pipe.
        self._drain = threading.Thread(
            target=self.process.stdout.read, daemon=True)
        self._drain.start()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def pids(self) -> list[int]:
        return [self.process.pid] + [pid for pid, _ in self.shards.values()]

    def stop(self) -> None:
        """SIGTERM the gateway (it drains and stops its shards), then
        make sure no shard outlives it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        deadline = time.monotonic() + 20.0
        for pid, _ in self.shards.values():
            while Path(f"/proc/{pid}").exists() \
                    and time.monotonic() < deadline:
                try:
                    with open(f"/proc/{pid}/stat") as fh:
                        if fh.read().split(") ")[-1].startswith("Z"):
                            break  # exited; its parent reaps it
                except OSError:
                    break
                time.sleep(0.1)
            if Path(f"/proc/{pid}").exists():
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass


def warm_up(fleet: Fleet, hot: list[HotProgram]) -> None:
    """First request of every hot program, split across the
    connections; the replies become the repeat references."""

    def send(programs):
        with GatewayClient(fleet.url, timeout=120.0) as client:
            for p in programs:
                p.reply = client.allocate(source=p.source)
                p.signature = repeatable(p.reply)

    threads = [threading.Thread(target=send, args=(hot[i::CONNECTIONS],))
               for i in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for p in hot:
        problem = reply_problem(p.reply)
        if problem:
            raise RuntimeError(f"warm-up of {p.name} failed: {problem}")


@dataclass(slots=True)
class Sample:
    kind: str
    latency: float
    reply: dict
    tree: dict | None = None


def window(fleet: Fleet, hot, seed: int, seconds: float, label: str,
           traced: bool = False) -> tuple[Measurement, list[Sample]]:
    """Closed loop: each connection sends whole blocks until
    ``seconds`` have elapsed."""
    measurement = Measurement()
    samples: list[Sample] = []
    lock = threading.Lock()
    start = time.perf_counter()
    stop_at = start + seconds
    errors: list[BaseException] = []

    def connection(conn: int) -> None:
        rng = random.Random(f"{seed}:{label}:{conn}")
        n_block = 0
        try:
            with GatewayClient(fleet.url, timeout=120.0) as client:
                while n_block == 0 or time.perf_counter() < stop_at:
                    tag = f"{label}{seed}c{conn}b{n_block}"
                    block_start = time.perf_counter()
                    for kind, program, source in block(rng, hot, tag):
                        t0 = time.perf_counter()
                        try:
                            reply = client.allocate(source=source,
                                                    trace=traced or None)
                        except (OSError, ValueError) as exc:
                            reply = {"ok": False, "error": {
                                "code": type(exc).__name__}}
                        latency = time.perf_counter() - t0
                        tree = None
                        if traced and reply.get("ok"):
                            tree = (client.trace(reply.get("trace_id"))
                                    .get("result") or {}).get("trace")
                        problem = reply_problem(reply)
                        if not problem and program is not None \
                                and repeatable(reply) != program.signature:
                            problem = "repeat reply differs from the first"
                        with lock:
                            measurement.record(
                                latency, not problem,
                                f"{program.name if program else 'fresh'}: "
                                f"{problem}")
                            samples.append(Sample(kind, latency, reply, tree))
                    n_block += 1
                    # Both connections run at once: the fleet's rate is
                    # each block's rate times the connection count.
                    with lock:
                        measurement.close_pass(
                            BLOCK * CONNECTIONS,
                            time.perf_counter() - block_start)
        except BaseException as exc:  # surfaced to the caller below
            errors.append(exc)

    threads = [threading.Thread(target=connection, args=(c,))
               for c in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    measurement.seconds = time.perf_counter() - start
    if errors:
        raise errors[0]
    return measurement, samples


def run_allocated(hot: list[HotProgram], check: Measurement) -> Quality:
    """Check the served answers and sum their quality guards.

    Printed allocated code does not parse back into IR, so each hot
    program is allocated again in this process with the shards'
    configuration: every served function must carry exactly the local
    objective and register assignment, and the local allocations run
    in the interpreter against the program's symbolic run.
    """
    target = x86_target()
    engine = AllocationEngine(target, AllocatorConfig(time_limit=TIME_LIMIT))
    quality = Quality()
    for p in hot:
        module = compile_program(p.source, p.name)
        reference = Interpreter(module).run(p.entry, p.args).return_value
        served = {fn["function"]: fn for fn in p.reply["result"]["functions"]}
        allocations = {}
        for fn in module:
            local = engine.allocate(fn).final
            entry = served.get(fn.name, {})
            assignment = {v: r.name for v, r in local.assignment.items()}
            if entry.get("objective") != local.objective \
                    or entry.get("assignment") != assignment:
                check.fail(f"{p.name}/{fn.name}: served allocation differs "
                           "from the in-process one")
            quality.objective += entry.get("objective", 0.0)
            quality.code_bytes += entry.get("code_size", 0)
            allocations[fn.name] = AllocatedFunction(
                local.function, local.assignment)
        run = Interpreter(module, target=target,
                          allocations=allocations).run(p.entry, p.args)
        quality.cycles += run.cycles
        if run.return_value != reference:
            check.fail(f"{p.name}: allocated code returned "
                       f"{run.return_value}, reference {reference}")
    return quality


# -- traced-run analysis -----------------------------------------------------


def _walk(span: dict, parent: dict | None = None):
    yield span, parent
    for child in span.get("children", ()):
        yield from _walk(child, span)


#: stitched-trace span name -> per-layer metric (self seconds per block)
TREE_LAYERS = {
    "lower": "lowering.lower_s",
    "liveness": "analysis.liveness_s",
    "networks": "core.networks_s",
    "stitch-edges": "core.networks_s",
    "presolve": "presolve.reduce_s",
    "expand": "presolve.expand_s",
    "rewrite": "core.rewrite_s",
    "postpass": "postpass.merge_s",
    "validate": "allocation.validate_s",
    "cache-probe": "engine.cache_get_s",
}


def tree_metrics(samples: list[Sample], blocks: int) -> dict[str, float]:
    """Queue, batch and engine splits from the shards' stitched traces.

    ``solve`` names two spans there: the shard's lifecycle stage (under
    the shard's ``request``) and the pipeline phase under
    ``ip-allocate``, whose self time is the solver backend's.
    """
    queue, assembly, replay, solve = [], [], [], []
    layer_s: dict[str, float] = {}
    for s in samples:
        if s.tree is None:
            continue
        replay_s = 0.0
        for span, parent in _walk(s.tree):
            name, seconds = span.get("name"), span.get("seconds", 0.0)
            parent_name = (parent or {}).get("name")
            metric = TREE_LAYERS.get(name)
            if name == "queue":
                queue.append(seconds)
            elif name == "batch-assembly":
                assembly.append(seconds)
            elif name == "solve" and parent_name == "request":
                if s.kind == "fresh":
                    solve.append(seconds)
            elif name == "solve" and parent_name == "ip-allocate":
                metric = "solver.backend_s"
            elif name == "cache-replay":
                replay_s += seconds
            if metric:
                children = sum(c.get("seconds", 0.0)
                               for c in span.get("children", ()))
                layer_s[metric] = layer_s.get(metric, 0.0) \
                    + seconds - children
        if s.kind == "hot":
            replay.append(replay_s)
    metrics = {k: v / max(1, blocks) for k, v in layer_s.items()}
    metrics.update({
        "service.queue_wait_ms": percentile(queue, 50) * 1000.0,
        "service.batch_assembly_ms": percentile(assembly, 50) * 1000.0,
        "engine.replay_ms": percentile(replay, 50) * 1000.0,
        "engine.solve_ms": percentile(solve, 50) * 1000.0,
    })
    return metrics


def reply_metrics(samples: list[Sample]) -> dict[str, float]:
    """Hit/miss latency split, cache usefulness and gateway retries."""
    hits = [s.latency for s in samples if s.kind == "hot"]
    misses = [s.latency for s in samples if s.kind == "fresh"]
    probes = useful = retries = 0
    for s in samples:
        for fn in (s.reply.get("result") or {}).get("functions", ()):
            probes += 1
            useful += bool(fn.get("cache_hit"))
        retries += max(0, (s.reply.get("gateway") or {})
                       .get("attempts", 1) - 1)
    return {
        "service.hit_latency_p50_ms": percentile(hits, 50) * 1000.0,
        "service.miss_latency_p50_ms": percentile(misses, 50) * 1000.0,
        "engine.cache_hit_ratio": useful / probes if probes else 0.0,
        "gateway.retries": float(retries),
    }


def hop_ms(fleet: Fleet, hot: list[HotProgram], reps: int = 3) -> float:
    """Median latency of a hot request through the gateway minus the
    same request sent straight to its owning shard."""
    via_gateway, direct = [], []
    with GatewayClient(fleet.url, timeout=120.0) as gateway:
        for p in hot:
            shard = p.reply["gateway"]["shard"]
            _, port = fleet.shards[shard]
            with ServiceClient("127.0.0.1", port, timeout=120.0) as client:
                for _ in range(reps):
                    t0 = time.perf_counter()
                    gateway.allocate(source=p.source)
                    via_gateway.append(time.perf_counter() - t0)
                    t0 = time.perf_counter()
                    client.allocate(source=p.source)
                    direct.append(time.perf_counter() - t0)
    return (percentile(via_gateway, 50) - percentile(direct, 50)) * 1000.0
