"""Tests for the telemetry layer (repro.telemetry).

Covers the streaming histograms (bucketed percentiles against the
exact sorted-list oracle, associative cross-process merge, the
registry's one delta/merge path), Prometheus text rendering with correct
cumulative buckets, the request-lifecycle trace plumbing through the
service, per-tenant stats, trace_id on every reply path, and the
loss-proof counter/histogram merge-back under a real SIGKILL.
"""

import json
import os
import random
import subprocess
import sys
import threading
import urllib.request

import pytest

from repro.core import AllocatorConfig
from repro.engine import AllocationEngine, EngineConfig
from repro.lang import compile_program
from repro.obs import (
    BOUNDS,
    REGISTRY,
    TRACE_KEEP,
    Histogram,
    Span,
    TraceStore,
    counter,
    define_histogram,
    reset_stats,
    snapshot,
)
from repro.service import ServerThread, ServiceClient, ServiceConfig
from repro.service.protocol import E_PARSE, E_TOO_LARGE
from repro.service.scheduler import BatchScheduler
from repro.service.upgrades import UpgradeJob
from repro.target import x86_target
from repro.telemetry import percentile_of, render_prometheus

SOURCE = """
int helper(int a) { return a * 3; }
int main(int n) {
    int s = 0;
    for (int i = 0; i < n; i += 1) { s += helper(i); }
    return s;
}
"""


@pytest.fixture(autouse=True)
def clean_telemetry():
    reset_stats()
    yield
    reset_stats()


def client_for(handle: ServerThread, **kwargs) -> ServiceClient:
    return ServiceClient("127.0.0.1", handle.port, **kwargs)


def _spans(tree: dict):
    """Every span of a trace tree, depth first."""
    yield tree
    for child in tree.get("children", ()):
        yield from _spans(child)


# -- histograms -----------------------------------------------------------


class TestHistogram:
    def test_log_bounds_span_queue_waits_and_solve_budgets(self):
        assert len(BOUNDS) == 22
        assert BOUNDS[0] == pytest.approx(1e-4)
        assert BOUNDS[-1] == pytest.approx(1024.0, rel=0.5)
        assert list(BOUNDS) == sorted(BOUNDS)

    def test_observe_counts_and_sum(self):
        h = Histogram("t")
        for v in (0.0005, 0.005, 0.005, 5.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(5.0105)
        assert sum(h.counts) == 4

    def test_cumulative_ends_at_count(self):
        h = Histogram("t")
        for v in (1e-5, 0.01, 0.5, 2000.0):  # incl. under- & overflow
            h.observe(v)
        cum = h.cumulative()
        assert cum[-1] == h.count == 4
        assert cum == sorted(cum)

    def test_percentile_of_oracle_basics(self):
        assert percentile_of([], 50) == 0.0
        assert percentile_of([7.0], 99) == 7.0
        assert percentile_of([1.0, 3.0], 50) == pytest.approx(2.0)
        assert percentile_of([1, 2, 3, 4, 5], 0) == 1.0
        assert percentile_of([1, 2, 3, 4, 5], 100) == 5.0

    def test_merge_is_associative_and_exact(self):
        rng = random.Random(7)
        samples = [10 ** rng.uniform(-4, 3) for _ in range(300)]
        parts = [samples[0::3], samples[1::3], samples[2::3]]
        hists = []
        for part in parts:
            h = Histogram("t")
            for v in part:
                h.observe(v)
            hists.append(h)
        # (a+b)+c
        left = Histogram("t")
        left.merge(hists[0].snapshot())
        left.merge(hists[1].snapshot())
        left.merge(hists[2].snapshot())
        # a+(c+b)
        right = Histogram("t")
        tail = Histogram("t")
        tail.merge(hists[2].snapshot())
        tail.merge(hists[1].snapshot())
        right.merge(hists[0].snapshot())
        right.merge(tail.snapshot())
        # one histogram that saw everything
        whole = Histogram("t")
        for v in samples:
            whole.observe(v)
        assert left.counts == right.counts == whole.counts
        assert left.count == right.count == whole.count == len(samples)
        assert left.sum == pytest.approx(whole.sum)
        assert right.sum == pytest.approx(whole.sum)

    def test_merge_rejects_mismatched_bounds(self):
        a = Histogram("t")
        snap = Histogram("t").snapshot()
        snap["counts"] = snap["counts"][:-1]  # another bucket layout
        with pytest.raises(ValueError):
            a.merge(snap)

    def test_delta_roundtrip_reproduces_observations(self):
        h = define_histogram("delta.test")
        h.observe(0.01)
        counter("delta.hits").add(2)
        before = REGISTRY.delta()
        h.observe(0.5)
        h.observe(3.0)
        counter("delta.hits").add(5)
        delta = REGISTRY.delta(before)
        assert delta["histograms"]["delta.test"]["count"] == 2
        assert delta["histograms"]["delta.test"]["sum"] == \
            pytest.approx(3.5)
        assert delta["counters"] == {"delta.hits": 5}
        # merging the delta elsewhere reproduces exactly those counts
        reset_stats()
        REGISTRY.merge(delta)
        assert h.count == 2
        assert sum(h.counts) == 2
        assert snapshot()["delta.hits"] == 5

    def test_delta_skips_unchanged_histograms(self):
        h = define_histogram("idle.test")
        h.observe(1.0)
        before = REGISTRY.delta()
        delta = REGISTRY.delta(before)
        assert "idle.test" not in delta["histograms"]


# -- Prometheus rendering -------------------------------------------------


class TestPrometheus:
    def test_histogram_exposition_cumulative_buckets(self):
        h = define_histogram("probe.latency", "test probe")
        for v in (0.0005, 0.01, 0.01, 0.5, 2000.0):
            h.observe(v)
        text = render_prometheus()
        lines = [
            line for line in text.splitlines()
            if line.startswith("repro_probe_latency_seconds_bucket")
        ]
        assert lines, text
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == sorted(counts), "buckets must be cumulative"
        assert lines[-1].startswith(
            'repro_probe_latency_seconds_bucket{le="+Inf"}'
        )
        assert counts[-1] == 5
        assert "repro_probe_latency_seconds_count 5" in text
        assert "# TYPE repro_probe_latency_seconds histogram" in text

    def test_counter_and_labelled_gauge_rows(self):
        counter("ip.solved").add(3)
        text = render_prometheus(
            labelled={"tenant.queue_depth": {
                (("tenant", "acme"),): 2.0,
            }},
        )
        assert "repro_ip_solved_total 3" in text
        assert 'repro_tenant_queue_depth{tenant="acme"} 2' in text


# -- lifecycle primitives -------------------------------------------------


class TestLifecycle:
    def test_stages_abut_and_finish_seals_root(self):
        trace = Span("request", meta={"trace_id": "T-1", "tenant": "t"})
        admission = trace.stage("admission", queue_depth=0, none=None)
        queue = trace.stage("queue", seconds=0.25)
        reply = trace.stage("reply")
        tree = trace.finish("ok").to_dict()
        names = [c["name"] for c in tree["children"]]
        assert names == ["admission", "queue", "reply"]
        assert tree["meta"]["status"] == "ok"
        assert tree["meta"]["trace_id"] == "T-1"
        assert "start" not in tree
        assert tree["children"][0]["meta"] == {"queue_depth": 0}
        assert tree["children"][1]["seconds"] == pytest.approx(0.25)
        # a stage without explicit seconds starts where the previous
        # one ended (the first at the root's start); every stage ends
        # at the moment it was appended
        assert admission.start == trace.start
        assert reply.start == pytest.approx(
            queue.start + queue.seconds, abs=1e-9
        )
        assert queue.start + queue.seconds >= \
            admission.start + admission.seconds

    def test_store_is_bounded_and_keyed(self):
        store = TraceStore()
        n = TRACE_KEEP + 2
        for i in range(n):
            store.put(f"T-{i}", Span(f"t{i}"))
        assert len(store) == TRACE_KEEP
        assert store.get("T-0") is None
        assert store.get("T-1") is None
        assert store.get(f"T-{n - 1}") == {"name": f"t{n - 1}",
                                            "seconds": 0.0}
        assert store.last() == store.get(f"T-{n - 1}")
        assert store.ids() == [f"T-{i}" for i in range(2, n)]

    def test_store_appends_race_free_with_readers(self):
        """Stitch threads append under a stored root while readers
        serialise it: no append is lost, no read sees a torn tree."""
        store = TraceStore()
        store.put("T", Span("request"))
        errors: list[BaseException] = []

        def guarded(fn):
            def run():
                try:
                    fn()
                except BaseException as exc:  # reported below
                    errors.append(exc)
            return run

        def writer():
            for i in range(200):
                store.append("T", Span(f"s{i}"))

        def reader():
            for _ in range(200):
                tree = store.get("T")
                assert all(c["name"].startswith("s")
                           for c in tree.get("children", []))

        threads = [threading.Thread(target=guarded(writer))
                   for _ in range(4)]
        threads += [threading.Thread(target=guarded(reader))
                    for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(store.get("T")["children"]) == 800
        store.append("missing", Span("x"))
        assert store.ids() == ["T"]

    def test_upgrade_stitch_keeps_newest_trace_last(self):
        """A background upgrade landing on an older request's trace
        appends to that root in place: the no-ref ``trace`` still
        returns the newest request."""
        sched = BatchScheduler(ServiceConfig(), {"x86": x86_target})
        for ref in ("A", "B"):
            root = Span("request", meta={"trace_id": ref})
            root.stage("reply")
            sched.traces.put(ref, root.finish("ok"))
        sched.tiers.run_upgrade(UpgradeJob(
            trace_id="A", tenant="", target_name="x86",
            config=AllocatorConfig(time_limit=30.0),
            functions=list(compile_program(SOURCE, name="stitch")),
        ))
        assert sched.traces.last()["meta"]["trace_id"] == "B"
        assert sched.traces.ids() == ["A", "B"]
        upgrade = sched.traces.get("A")["children"][-1]
        assert upgrade["name"] == "upgrade"
        assert upgrade["meta"]["background"] is True
        assert upgrade["children"], "engine spans grafted under it"


# -- cross-process merge through the engine -------------------------------


class TestEngineMergeBack:
    def test_worker_histograms_merge_exactly(self):
        module = compile_program(SOURCE, name="merge")
        engine = AllocationEngine(
            x86_target(),
            AllocatorConfig(time_limit=30.0),
            EngineConfig(jobs=2),
        )
        outcomes = list(engine.allocate_module(list(module)))
        n = len(list(module))
        assert len(outcomes) == n
        assert REGISTRY.histograms["ip.solve_time"].count == n
        assert snapshot().get("ip.solved") == n
        # the backend ran once per function, in the workers
        assert snapshot().get("solver.highs.solves") == n


# -- the service: stitched traces, metrics, tenants -----------------------


@pytest.fixture()
def make_server():
    handles = []

    def factory(**kwargs) -> ServerThread:
        kwargs.setdefault("queue_capacity", 8)
        kwargs.setdefault("max_in_flight", 2)
        config = ServiceConfig(**kwargs)
        handle = ServerThread(config).start()
        handles.append(handle)
        return handle

    yield factory
    for handle in handles:
        try:
            handle.drain(timeout=60.0)
        except RuntimeError:
            pass


class TestServiceTelemetry:
    def test_traced_request_yields_one_stitched_tree(self, make_server,
                                                     tmp_path):
        handle = make_server(cache_dir=str(tmp_path))
        with client_for(handle) as client:
            resp = ServiceClient.check(client.allocate(
                source=SOURCE, trace_id="T-stitch", tenant="acme"
            ))
            assert resp["trace_id"] == "T-stitch"
            got = ServiceClient.check(client.trace("T-stitch"))
            # the same program again is a cache hit
            ServiceClient.check(client.allocate(
                source=SOURCE, trace_id="T-hit", tenant="acme"
            ))
            hit = ServiceClient.check(client.trace("T-hit"))
        tree = got["result"]["trace"]
        assert tree["name"] == "request"
        assert tree["meta"]["trace_id"] == "T-stitch"
        assert tree["meta"]["status"] == "ok"
        names = [c["name"] for c in tree["children"]]
        for stage in ("admission", "queue", "batch-assembly",
                      "solve", "reply"):
            assert stage in names, names
        solve = tree["children"][names.index("solve")]
        # engine spans are grafted under the solve stage
        sub = [c["name"] for c in solve.get("children", [])]
        assert "engine" in sub, sub
        assert "T-stitch" in got["result"]["ids"]
        # a hit's three costs are separate spans
        replays = [
            span for span in _spans(hit["result"]["trace"])
            if span["name"] == "cache-replay"
        ]
        assert replays, "no cache-replay span in the hit's tree"
        for replay in replays:
            assert [c["name"] for c in replay["children"]] == [
                "decode", "validate", "equivalence",
            ]

    def test_untraced_request_allocates_no_trace(self, make_server):
        handle = make_server()
        with client_for(handle) as client:
            ServiceClient.check(client.allocate(source=SOURCE))
            got = ServiceClient.check(client.trace())
        assert got["result"]["trace"] is None
        assert got["result"]["ids"] == []
        assert len(handle.server.scheduler.traces) == 0

    def test_latencies_land_in_histograms(self, make_server):
        handle = make_server()
        with client_for(handle) as client:
            ServiceClient.check(client.allocate(source=SOURCE))
        for name in ("service.queue_wait", "service.batch_assembly",
                     "service.batch_solve", "service.request_latency"):
            assert REGISTRY.histograms[name].count >= 1, name

    def test_metrics_verb_renders_prometheus_text(self, make_server):
        handle = make_server()
        with client_for(handle) as client:
            ServiceClient.check(client.allocate(source=SOURCE))
            got = ServiceClient.check(client.metrics())
        result = got["result"]
        assert result["content_type"].startswith("text/plain")
        text = result["text"]
        buckets = [
            line for line in text.splitlines()
            if line.startswith(
                "repro_service_request_latency_seconds_bucket"
            )
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
        assert counts and counts == sorted(counts)
        assert counts[-1] >= 1

    def test_metrics_http_sidecar(self, make_server):
        handle = make_server(metrics_port=0)
        port = handle.server.metrics_port
        assert port
        with client_for(handle) as client:
            ServiceClient.check(client.allocate(source=SOURCE))
        body = urllib.request.urlopen(
            f"http://127.0.0.1:{port}/metrics", timeout=10
        ).read().decode()
        assert "repro_service_queue_wait_seconds_count" in body
        health = urllib.request.urlopen(
            f"http://127.0.0.1:{port}/healthz", timeout=10
        ).read()
        assert health == b"ok\n"

    def test_trace_is_stored_before_the_reply(self, make_server):
        """The shard stores a request's trace before writing its reply,
        so a fetch on another connection right after the reply finds
        it — the reason the gateway fetches a shard's tree once."""
        handle = make_server()
        with client_for(handle) as client, \
                client_for(handle) as other:
            for i in range(3):
                ref = f"T-order-{i}"
                ServiceClient.check(client.allocate(
                    source=SOURCE, trace_id=ref
                ))
                got = ServiceClient.check(other.trace(ref))
                tree = got["result"]["trace"]
                assert tree is not None, ref
                assert tree["meta"]["trace_id"] == ref

    def test_stats_averages_are_histogram_means(self, make_server):
        handle = make_server()
        with client_for(handle) as client:
            for i in range(3):
                ServiceClient.check(client.allocate(
                    source=SOURCE + f"// {i}\n"
                ))
            got = ServiceClient.check(client.stats())
        wait = REGISTRY.histograms["service.queue_wait"]
        solve = REGISTRY.histograms["service.batch_solve"]
        assert wait.count == 3
        queue = got["result"]["queue"]
        assert queue["avg_queue_seconds"] == pytest.approx(
            wait.sum / wait.count
        )
        assert queue["avg_solve_seconds"] == pytest.approx(
            solve.sum / solve.count
        )
        counters = got["result"]["counters"]
        assert "service.queue_wait_seconds" not in counters
        assert "service.solve_seconds" not in counters

    def test_stats_verb_reports_tenants(self, make_server):
        handle = make_server()
        with client_for(handle) as client:
            ServiceClient.check(client.allocate(
                source=SOURCE, tenant="acme"
            ))
            got = ServiceClient.check(client.stats())
        tenants = got["result"]["tenants"]
        assert tenants["acme"]["admitted"] == 1
        assert tenants["acme"]["completed"] == 1
        assert tenants["acme"]["queue_depth"] == 0
        assert tenants["acme"]["cache_occupancy"] >= 1
        assert tenants["acme"]["functions"] >= 1

    def test_too_large_reply_carries_trace_id(self, make_server):
        handle = make_server(max_request_bytes=256)
        with client_for(handle) as client:
            resp = client.allocate(
                source=SOURCE + "// " + "x" * 512,
                trace_id="T-big",
            )
        assert not resp["ok"]
        assert resp["error"]["code"] == E_TOO_LARGE
        assert resp["trace_id"] == "T-big"

    def test_parse_error_reply_salvages_trace_id(self, make_server):
        handle = make_server()
        with client_for(handle) as client:
            client._file.write(
                b'{"verb": "allocate", "trace_id": "T-mangled", '
                b'NOT JSON\n'
            )
            client._file.flush()
            line = client._file.readline(1 << 20)
        resp = json.loads(line)
        assert not resp["ok"]
        assert resp["error"]["code"] == E_PARSE
        assert resp["trace_id"] == "T-mangled"


# -- loss-proof merge under a real SIGKILL (exact counts) -----------------

SIGKILL_EXACT_SCRIPT = r"""
import os, signal, sys, threading, time

from repro.core import AllocatorConfig
from repro.engine import AllocationEngine, EngineConfig
from repro.lang import compile_program
import repro.engine.engine as engine_module
from repro.obs import REGISTRY, snapshot
from repro.target import x86_target

# more pool resubmissions than kills, so no job runs out of them
engine_module.RETRIES = 8

SOURCE = """ + '"""' + """
int f0(int a) { return a * 3 + 1; }
int f1(int a, int b) { int t = a * b; return t + a - b; }
int f2(int a) { int s = 0; for (int i = 0; i < a; i += 1) { s += i; } return s; }
int f3(int a, int b) { return (a + b) * (a - b); }
int f4(int a) { return a * a + a; }
int main(int n) { return f0(n) + f1(n, 2) + f2(n) + f3(n, 1) + f4(n); }
""" + '"""' + r"""

module = compile_program(SOURCE, name="exact")
engine = AllocationEngine(
    x86_target(),
    AllocatorConfig(time_limit=30.0),
    EngineConfig(jobs=2),
)


def children():
    out = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as h:
                parts = h.read().split()
            if int(parts[3]) == os.getpid():
                out.append(int(pid))
        except (OSError, IndexError, ValueError):
            pass
    return out


def assassin():
    # SIGKILL a live pool worker twice, early in the run, then stop:
    # the engine must retry the lost jobs and end with EXACT counts.
    kills = 0
    deadline = time.monotonic() + 10.0
    while kills < 2 and time.monotonic() < deadline and not done.is_set():
        kids = children()
        if kids:
            try:
                os.kill(kids[0], signal.SIGKILL)
                kills += 1
            except (ProcessLookupError, PermissionError):
                pass
            time.sleep(0.2)
        else:
            time.sleep(0.005)


done = threading.Event()
killer = threading.Thread(target=assassin, daemon=True)
killer.start()
outcomes = list(engine.allocate_module(list(module)))
done.set()
killer.join(timeout=5.0)

n = len(list(module))
assert len(outcomes) == n, "functions dropped"
counters = snapshot()
solved = counters.get("ip.solved", 0)
fallbacks = counters.get("engine.fallbacks", 0)
# Every function either solved exactly once or degraded exactly once:
# a retried job must not double-merge its worker's counters, and a
# killed worker's lost job must re-merge on the retry (no loss).
assert solved + fallbacks == n, (solved, fallbacks, counters)
hist = REGISTRY.define_histogram("ip.solve_time")
assert hist.count == solved, (hist.count, solved)
crashes = counters.get("resilience.worker_crashes", 0)
print(f"SIGKILL-EXACT solved={solved:g} fallbacks={fallbacks:g} "
      f"hist={hist.count} crashes={crashes:g}")
"""


class TestExactCountsUnderWorkerDeath:
    def test_sigkill_retry_keeps_counts_exact(self, tmp_path):
        """SIGKILL pool workers mid-run: after the retries settle,
        solved+fallback == functions and the solve-time histogram
        count equals the solved count — no loss, no double-merge."""
        script = tmp_path / "sigkill_exact.py"
        script.write_text(SIGKILL_EXACT_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            os.path.join(os.path.dirname(__file__), "..", "src")
            + os.pathsep + env.get("PYTHONPATH", "")
        )
        env.pop("REPRO_FAULTS", None)
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, timeout=240, env=env,
        )
        assert proc.returncode == 0, (
            f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
        )
        assert "SIGKILL-EXACT" in proc.stdout
