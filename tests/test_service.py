"""Tests for the allocation service (repro.service).

Uses the in-process server form (:class:`ServerThread`) — a real
asyncio TCP server on an ephemeral port, driven over real sockets by
:class:`ServiceClient` — plus one subprocess test for the SIGTERM
drain path of ``python -m repro serve``.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.allocation import render_allocation
from repro.core import AllocatorConfig
from repro.engine import AllocationEngine, EngineConfig
from repro.ir import format_function
from repro.lang import compile_program
from repro.obs import reset_stats
from repro.service import (
    BatchScheduler,
    E_BAD_REQUEST,
    E_DRAINING,
    E_OVERLOADED,
    ServerThread,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.service.protocol import parse_allocate
from repro.service.scheduler import _Pending
from repro.target import x86_target
from tests.conftest import highs_presolve

SOURCE = """
int helper(int a) { return a * 3; }
int main(int n) {
    int s = 0;
    for (int i = 0; i < n; i += 1) { s += helper(i); }
    return s;
}
"""

OTHER_SOURCE = """
int twice(int a) { return a + a; }
"""

#: two different programs that both define ``main``
MAIN_A = "int main(int n) { return n * 7 + 2; }"
MAIN_B = """
int main(int n) {
    int s = 0;
    for (int i = 0; i < n; i += 1) { s += i * i; }
    return s;
}
"""


@pytest.fixture(autouse=True)
def stats():
    reset_stats()
    yield
    reset_stats()


@pytest.fixture()
def make_server():
    """Factory for started in-process servers; drains them on exit."""
    handles = []

    def factory(batch_hook=None, **kwargs) -> ServerThread:
        kwargs.setdefault("queue_capacity", 8)
        kwargs.setdefault("max_in_flight", 2)
        config = ServiceConfig(**kwargs)
        handle = ServerThread(config, batch_hook=batch_hook).start()
        handles.append(handle)
        return handle

    yield factory
    for handle in handles:
        try:
            handle.drain(timeout=60.0)
        except RuntimeError:
            pass


def client_for(handle: ServerThread, **kwargs) -> ServiceClient:
    return ServiceClient("127.0.0.1", handle.port, **kwargs)


@pytest.fixture()
def engine_calls(monkeypatch):
    """The function names of each ``AllocationEngine.allocate_module``
    call, in call order."""
    calls = []
    allocate_module = AllocationEngine.allocate_module

    def counting(engine, functions, *args, **kwargs):
        functions = list(functions)
        calls.append([fn.name for fn in functions])
        return allocate_module(engine, functions, *args, **kwargs)

    monkeypatch.setattr(AllocationEngine, "allocate_module", counting)
    return calls


def solve_one_batch(tmp_path, messages: list[dict]) -> list[dict]:
    """Solve ``messages`` as one batch of a scheduler with a result
    cache; returns each request's reply, in order."""
    targets = {"x86": x86_target}
    sched = BatchScheduler(
        ServiceConfig(cache_dir=str(tmp_path / "cache")), targets
    )
    batch = [
        _Pending(
            request=parse_allocate(
                message, "x86", AllocatorConfig(time_limit=64.0),
                message.get("trace_id", f"t{i}"), targets,
            ),
            future=None,
        )
        for i, message in enumerate(messages)
    ]
    responses = sched._solve_batch(batch)
    return [responses[id(p)] for p in batch]


def serial_reference(source: str, time_limit: float = 64.0):
    """{function: canonical rendering} from a serial local engine —
    what the `alloc` CLI prints (minus its timing header)."""
    target = x86_target()
    module = compile_program(source, name="request")
    engine = AllocationEngine(
        target,
        AllocatorConfig(time_limit=time_limit),
        EngineConfig(jobs=1, fallback=False),
    )
    return {
        o.function: render_allocation(o.final, target)
        for o in engine.allocate_module(list(module))
    }


class TestProtocolBasics:
    def test_ping_status_stats(self, make_server):
        handle = make_server()
        with client_for(handle) as client:
            assert client.ping()["result"]["protocol"] == 1
            status = client.status()["result"]
            assert status["state"] == "serving"
            assert status["queue_capacity"] == 8
            assert status["max_in_flight"] == 2
            stats = client.stats()["result"]
            assert "service.requests" in stats["counters"]
            assert stats["queue"]["depth"] == 0

    def test_unknown_verb(self, make_server):
        handle = make_server()
        with client_for(handle) as client:
            resp = client.request({"verb": "frobnicate"})
            assert not resp["ok"]
            assert resp["error"]["code"] == "unknown_verb"

    def test_parse_error(self, make_server):
        handle = make_server()
        with socket.create_connection(
            ("127.0.0.1", handle.port), timeout=30
        ) as sock:
            sock.sendall(b"this is not json\n")
            resp = json.loads(sock.makefile("rb").readline())
            assert not resp["ok"]
            assert resp["error"]["code"] == "parse_error"

    def test_bad_requests(self, make_server):
        handle = make_server()
        with client_for(handle) as client:
            for message in (
                {"verb": "allocate"},  # neither source nor ir
                {"verb": "allocate", "source": SOURCE, "ir": "x"},
                {"verb": "allocate", "source": SOURCE,
                 "target": "vax"},
                {"verb": "allocate", "source": SOURCE,
                 "function": "nope"},
                {"verb": "allocate", "source": SOURCE,
                 "config": {"bogus_knob": 1}},
                {"verb": "allocate", "source": SOURCE,
                 "config": {"backend": "not-a-backend"}},
                {"verb": "allocate", "source": SOURCE,
                 "config": {"presolve": "no"}},
                {"verb": "allocate", "source": SOURCE,
                 "deadline": -1},
                {"verb": "allocate", "source": "int ) broken {"},
            ):
                resp = client.request(message)
                assert not resp["ok"], message
                assert resp["error"]["code"] == E_BAD_REQUEST, message

    def test_trace_id_echo_and_generation(self, make_server):
        handle = make_server()
        with client_for(handle) as client:
            resp = client.allocate(
                source=OTHER_SOURCE, trace_id="my-trace"
            )
            assert resp["trace_id"] == "my-trace"
            resp = client.allocate(source=OTHER_SOURCE)
            assert resp["trace_id"].startswith("req-")


class TestAllocate:
    def test_matches_serial_alloc_byte_identical(self, make_server):
        expected = serial_reference(SOURCE)
        handle = make_server()
        with client_for(handle) as client:
            resp = ServiceClient.check(client.allocate(source=SOURCE))
        functions = resp["result"]["functions"]
        assert [f["function"] for f in functions] == \
            list(expected)
        for entry in functions:
            assert entry["source"] == "solver"
            assert entry["status"] == "optimal"
            assert entry["rendered"] == expected[entry["function"]]

    def test_single_function_filter(self, make_server):
        handle = make_server()
        with client_for(handle) as client:
            resp = ServiceClient.check(
                client.allocate(source=SOURCE, function="helper")
            )
        functions = resp["result"]["functions"]
        assert [f["function"] for f in functions] == ["helper"]

    def test_ir_text_input(self, make_server):
        module = compile_program(SOURCE, name="request")
        ir_text = "\n".join(format_function(fn) for fn in module)
        handle = make_server()
        with client_for(handle) as client:
            resp = ServiceClient.check(client.allocate(ir=ir_text))
        statuses = {
            f["function"]: f["status"]
            for f in resp["result"]["functions"]
        }
        assert statuses == {"helper": "optimal", "main": "optimal"}

    def test_per_request_config(self, make_server):
        handle = make_server()
        with client_for(handle) as client:
            resp = ServiceClient.check(
                client.allocate(
                    source=OTHER_SOURCE,
                    config={"backend": "branch-bound",
                            "size_only": True},
                )
            )
        assert resp["result"]["functions"][0]["status"] == "optimal"

    def test_per_request_presolve_toggle(self, make_server, highs,
                                         tmp_path):
        # the in-process server (jobs=1) solves in this process
        handle = make_server(cache_dir=str(tmp_path / "cache"))
        with client_for(handle) as client:
            on = ServiceClient.check(
                client.allocate(source=OTHER_SOURCE, report=True)
            )
            seen_on = highs_presolve(highs)
            highs.calls.clear()
            off = ServiceClient.check(
                client.allocate(
                    source=OTHER_SOURCE, report=True,
                    config={"presolve": False},
                )
            )
        on_fn = on["result"]["functions"][0]
        off_fn = off["result"]["functions"][0]
        assert on_fn["status"] == off_fn["status"] == "optimal"
        # the toggle reaches the solve: its own cache key, and HiGHS's
        # MIP run (twice's root LP is fractional) has presolve on,
        # then off
        assert not off_fn["cache_hit"]
        assert on_fn["fingerprint"] != off_fn["fingerprint"]
        assert (seen_on, highs_presolve(highs)) == ({True}, {False})
        assert on_fn["report"]["solver"]["presolve"] is None
        assert off_fn["report"]["solver"]["presolve"] is None
        # presolve must not change what the service hands back
        assert on_fn["report"]["solver"]["objective"] == pytest.approx(
            off_fn["report"]["solver"]["objective"]
        )

    def test_report_carries_trace_id(self, make_server):
        handle = make_server()
        with client_for(handle) as client:
            resp = ServiceClient.check(
                client.allocate(
                    source=OTHER_SOURCE, report=True,
                    trace_id="attribute-me",
                )
            )
        entry = resp["result"]["functions"][0]
        assert entry["report"]["trace_id"] == "attribute-me"
        assert entry["report"]["function"] == "twice"
        assert entry["report"]["model"]["n_variables"] > 0


class TestCacheSharing:
    def test_clients_share_cache_hits(self, make_server, tmp_path):
        handle = make_server(cache_dir=str(tmp_path / "cache"))
        with client_for(handle) as first:
            resp = ServiceClient.check(first.allocate(source=SOURCE))
            assert all(
                not f["cache_hit"]
                for f in resp["result"]["functions"]
            )
        with client_for(handle) as second:
            resp = ServiceClient.check(second.allocate(source=SOURCE))
        functions = resp["result"]["functions"]
        assert all(f["cache_hit"] for f in functions)
        assert all(f["source"] == "cache" for f in functions)
        # Cached results render identically to solved ones.
        expected = serial_reference(SOURCE)
        for entry in functions:
            assert entry["rendered"] == expected[entry["function"]]

    def test_identical_requests_in_one_batch_dedupe(
        self, make_server, tmp_path
    ):
        started = threading.Event()
        release = threading.Event()

        def hook(batch):
            # Hold the first (blocker) batch until the two identical
            # requests are queued behind it; with max_in_flight=1 the
            # scheduler then dequeues both into one batch.
            if not started.is_set():
                started.set()
                release.wait(timeout=30)

        handle = make_server(
            batch_hook=hook,
            cache_dir=str(tmp_path / "cache"),
            max_in_flight=1, max_batch=4, queue_capacity=8,
        )

        def submit(results, index, source):
            with client_for(handle) as client:
                results[index] = client.allocate(source=source)

        blocker_results = {}
        blocker = threading.Thread(
            target=submit,
            args=(blocker_results, "blocker", OTHER_SOURCE),
        )
        blocker.start()
        assert started.wait(timeout=30)  # blocker batch is in-flight
        results = {}
        threads = [
            threading.Thread(
                target=submit, args=(results, i, SOURCE)
            )
            for i in range(2)
        ]
        for t in threads:
            t.start()
        # Wait for both twins to be queued before releasing.
        deadline = time.monotonic() + 30
        with client_for(handle) as client:
            while time.monotonic() < deadline:
                if client.status()["result"]["queue_depth"] >= 2:
                    break
                time.sleep(0.01)
        release.set()
        blocker.join(60)
        for t in threads:
            t.join(60)
        assert blocker_results["blocker"]["ok"]
        assert all(results[i]["ok"] for i in range(2))
        hits = [
            f["cache_hit"]
            for r in results.values()
            for f in r["result"]["functions"]
        ]
        # The duplicate request replays the twin's fresh solve.
        assert any(hits)
        renders = [
            tuple(
                f["rendered"] for f in r["result"]["functions"]
            )
            for r in results.values()
        ]
        assert renders[0] == renders[1]


    def test_same_name_programs_share_one_engine_call(
        self, tmp_path, engine_calls
    ):
        """Two different programs that both define ``main`` and a twin
        of the first, solved as one batch, go through one engine call;
        each request gets its own allocation, the twin a replay."""
        replies = solve_one_batch(
            tmp_path,
            [{"source": source} for source in (MAIN_A, MAIN_B, MAIN_A)],
        )
        assert engine_calls == [["main", "main", "main"]]
        entries = [
            ServiceClient.check(reply)["result"]["functions"]
            for reply in replies
        ]
        assert [len(e) for e in entries] == [1, 1, 1]
        assert [e[0]["cache_hit"] for e in entries] == [False, False, True]
        expected = [
            serial_reference(source)["main"]
            for source in (MAIN_A, MAIN_B, MAIN_A)
        ]
        assert [e[0]["rendered"] for e in entries] == expected
        assert expected[0] != expected[1]

    def test_report_request_shares_the_batch_engine_call(
        self, tmp_path, engine_calls
    ):
        """A ``"report": true`` allocate with its own trace ID and plain
        allocates of the same config, in one batch, go through one
        engine call.  Only the report request's reply carries a report,
        naming its own requester; it is solved fresh even though a
        plain twin of its program came first."""
        replies = solve_one_batch(tmp_path, [
            {"source": MAIN_A},
            {"source": MAIN_A, "report": True, "trace_id": "mine"},
            {"source": MAIN_B},
        ])
        assert engine_calls == [["main", "main", "main"]]
        twin, mine, other = (
            ServiceClient.check(reply)["result"]["functions"][0]
            for reply in replies
        )
        assert mine["report"]["trace_id"] == "mine"
        assert mine["report"]["function"] == "main"
        assert mine["report"]["solver"]["status"] == mine["status"]
        assert not mine["cache_hit"] and twin["cache_hit"]
        assert "report" not in twin and "report" not in other
        assert other["status"] == "optimal"


class TestTenantTally:
    def test_anonymous_connections_share_one_row(
        self, make_server, tmp_path
    ):
        """A shard keeps one tally row for anonymous traffic, however
        many connections carried it: no row, and no /metrics series,
        per connection."""
        handle = make_server(cache_dir=str(tmp_path / "cache"))
        for _ in range(24):
            with client_for(handle) as client:
                ServiceClient.check(client.allocate(source=OTHER_SOURCE))
        with client_for(handle) as client:
            ServiceClient.check(
                client.allocate(source=OTHER_SOURCE, tenant="acme")
            )
            tenants = client.stats()["result"]["tenants"]
            text = client.metrics()["result"]["text"]
        assert set(tenants) == {"anon", "acme"}
        assert tenants["anon"]["admitted"] == 24
        assert tenants["anon"]["completed"] == 24
        assert tenants["anon"]["functions"] == 24
        assert tenants["anon"]["queue_depth"] == 0
        assert 'tenant="conn-' not in text
        assert 'tenant="anon"' in text

    def test_queued_anonymous_requests_count_under_anon(
        self, make_server
    ):
        """Fair queueing still keys anonymous requests by connection;
        only the tally folds them into ``anon``."""
        release = threading.Event()
        handle = make_server(
            batch_hook=lambda batch: release.wait(timeout=30),
            max_in_flight=1, max_batch=1,
        )
        threads = [
            threading.Thread(
                target=lambda: client_for(handle).allocate(
                    source=OTHER_SOURCE
                )
            )
            for _ in range(3)
        ]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 30
        with client_for(handle) as client:
            # One request held in flight by the hook, two queued: the
            # state stays put until the release.
            while time.monotonic() < deadline:
                status = client.status()["result"]
                if (status["in_flight"], status["queue_depth"]) == (1, 2):
                    break
                time.sleep(0.01)
            tenants = client.stats()["result"]["tenants"]
            per_client = client.health()["result"]["queue"]["per_client"]
        release.set()
        for t in threads:
            t.join(60)
        assert set(tenants) == {"anon"}
        assert tenants["anon"]["queue_depth"] == 2
        assert len(per_client) == 2
        assert all(key.startswith("conn-") for key in per_client)


    def test_status_requests_are_the_tally_sums(self, make_server):
        """The status verb's request counts are the tenant rows
        summed: admitted, queue-full rejected and cancelled alike."""
        release = threading.Event()
        handle = make_server(
            batch_hook=lambda batch: release.wait(timeout=30),
            queue_capacity=2, max_in_flight=1, max_batch=1,
        )
        results = {}

        def submit(tag, tenant):
            with client_for(handle) as client:
                results[tag] = client.allocate(
                    source=OTHER_SOURCE, trace_id=tag, tenant=tenant
                )

        threads = [
            threading.Thread(target=submit, args=(f"T-{i}", tenant))
            for i, tenant in enumerate(("acme", "acme", "beta"))
        ]
        with client_for(handle) as client:

            def wait_for(in_flight, depth):
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    status = client.status()["result"]
                    if (status["in_flight"],
                            status["queue_depth"]) == (in_flight, depth):
                        return
                    time.sleep(0.01)
                pytest.fail(f"never reached {in_flight}/{depth}")

            threads[0].start()
            wait_for(1, 0)
            threads[1].start()
            threads[2].start()
            wait_for(1, 2)
            full = client.allocate(source=OTHER_SOURCE, tenant="beta")
            assert full["error"]["code"] == E_OVERLOADED
            assert client.cancel("T-1")["result"]["cancelled"]
            release.set()
            for t in threads:
                t.join(60)
            requests = client.status()["result"]["requests"]
            tenants = client.stats()["result"]["tenants"]
        assert requests == {
            "admitted": 3, "completed": 2, "rejected": 1, "cancelled": 1,
        }
        assert requests == {
            event: sum(row[event] for row in tenants.values())
            for event in requests
        }
        assert tenants["acme"]["cancelled"] == 1
        assert tenants["beta"]["rejected"] == 1
        assert results["T-0"]["ok"] and results["T-2"]["ok"]


class TestAdmissionControl:
    def test_queue_full_is_rejected_overloaded(self, make_server):
        release = threading.Event()
        handle = make_server(
            batch_hook=lambda batch: release.wait(timeout=30),
            queue_capacity=2, max_in_flight=1, max_batch=1,
        )
        results = {}

        def submit(index):
            with client_for(handle) as client:
                results[index] = client.allocate(source=OTHER_SOURCE)

        threads = []

        def spawn(index):
            t = threading.Thread(target=submit, args=(index,))
            t.start()
            threads.append(t)

        # One request occupies the solver; wait until it is in flight.
        spawn(0)
        with client_for(handle) as client:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if client.status()["result"]["in_flight"] >= 1:
                    break
                time.sleep(0.01)
            # Fill the queue (capacity 2).
            spawn(1)
            spawn(2)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if client.status()["result"]["queue_depth"] >= 2:
                    break
                time.sleep(0.01)
            # The queue is full: the next request must be rejected.
            rejected = client.allocate(source=OTHER_SOURCE)
        assert not rejected["ok"]
        assert rejected["error"]["code"] == E_OVERLOADED
        release.set()
        for t in threads:
            t.join(60)
        assert all(results[i]["ok"] for i in range(3))

    def test_deadline_expired_falls_back_to_baseline(
        self, make_server
    ):
        handle = make_server(
            batch_hook=lambda batch: time.sleep(0.1),
        )
        with client_for(handle) as client:
            resp = ServiceClient.check(
                client.allocate(source=OTHER_SOURCE, deadline=0.01)
            )
        result = resp["result"]
        assert result["deadline_expired"] is True
        entry = result["functions"][0]
        assert entry["source"] == "fallback"
        assert entry["timed_out"] is True
        assert entry["status"] == "feasible"
        assert entry["allocator"] == "graph-coloring"
        assert "rendered" in entry  # the baseline result is usable


class TestBurstAndDrain:
    """The acceptance scenario: queue capacity 4, 16 concurrent
    allocates, drain mid-burst — every request terminal, accepted
    results byte-identical to serial alloc, nothing dropped."""

    def run_burst(self, handle, n=16, source=SOURCE):
        results: dict[int, dict] = {}
        errors: dict[int, Exception] = {}

        def submit(index):
            try:
                with client_for(handle) as client:
                    results[index] = client.allocate(source=source)
            except Exception as exc:
                errors[index] = exc

        threads = [
            threading.Thread(target=submit, args=(i,))
            for i in range(n)
        ]
        for t in threads:
            t.start()
        return threads, results, errors

    def test_burst_every_request_terminal(self, make_server, tmp_path):
        handle = make_server(
            batch_hook=lambda batch: time.sleep(0.15),
            queue_capacity=4, max_in_flight=2, max_batch=2,
            cache_dir=str(tmp_path / "cache"),
        )
        threads, results, errors = self.run_burst(handle, n=16)
        for t in threads:
            t.join(120)
        assert not errors
        assert len(results) == 16
        expected = serial_reference(SOURCE)
        accepted = rejected = 0
        for resp in results.values():
            if resp["ok"]:
                accepted += 1
                for entry in resp["result"]["functions"]:
                    assert entry["rendered"] == \
                        expected[entry["function"]]
            else:
                rejected += 1
                assert resp["error"]["code"] == E_OVERLOADED
        assert accepted >= 1
        assert rejected >= 1  # capacity 4+2 cannot absorb 16 at once
        assert accepted + rejected == 16

    def test_drain_mid_burst_drops_nothing(self, make_server):
        handle = make_server(
            batch_hook=lambda batch: time.sleep(0.1),
            queue_capacity=8, max_in_flight=2, max_batch=2,
        )
        threads, results, errors = self.run_burst(handle, n=6)
        # Wait until the whole burst is admitted (so no thread is
        # still connecting when the listener closes), then drain —
        # most of the queue is still unsolved at this point.
        with client_for(handle) as client:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                status = client.status()["result"]
                if status["requests"]["admitted"] >= 6:
                    break
                time.sleep(0.01)
            drained = client.drain()
        assert drained["ok"]
        assert drained["result"]["state"] == "drained"
        for t in threads:
            t.join(120)
        handle.join(60)
        assert not errors
        terminal_ok = sum(1 for r in results.values() if r["ok"])
        late = [
            r for r in results.values()
            if not r["ok"]
            and r["error"]["code"] not in (E_OVERLOADED, E_DRAINING)
        ]
        assert not late  # only terminal outcomes, nothing dropped
        # Every accepted request was answered with a result.
        assert terminal_ok == drained["result"]["completed"]
        # After drain the server is gone.
        with pytest.raises(OSError):
            socket.create_connection(
                ("127.0.0.1", handle.port), timeout=2
            )

    def test_stats_verb_reports_queue_and_engine(
        self, make_server, tmp_path
    ):
        handle = make_server(cache_dir=str(tmp_path / "cache"))
        with client_for(handle) as client:
            ServiceClient.check(client.allocate(source=OTHER_SOURCE))
            ServiceClient.check(client.allocate(source=OTHER_SOURCE))
            stats = client.stats()["result"]
        counters = stats["counters"]
        assert counters["service.requests"] == 2
        assert counters["service.completed"] == 2
        assert counters["engine.cache_hits"] >= 1
        assert stats["queue"]["capacity"] == 8
        assert stats["queue"]["avg_queue_seconds"] >= 0.0
        assert stats["cache"]["entries"] == 1


class TestServeCLISigterm:
    def test_sigterm_drains_gracefully(self):
        root = os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        ))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src") + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--queue-capacity", "8", "--max-in-flight", "2"],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "listening on" in banner, banner
            port = int(
                banner.split("listening on ")[1]
                .split()[0].rsplit(":", 1)[1]
            )
            results = {}

            def submit(index):
                try:
                    with ServiceClient(
                        "127.0.0.1", port, timeout=120,
                    ) as client:
                        results[index] = client.allocate(
                            source=SOURCE
                        )
                except Exception as exc:
                    results[index] = exc

            threads = [
                threading.Thread(target=submit, args=(i,))
                for i in range(6)
            ]
            for t in threads:
                t.start()
            time.sleep(0.2)  # let the burst land, then SIGTERM
            proc.send_signal(signal.SIGTERM)
            for t in threads:
                t.join(120)
            assert proc.wait(timeout=120) == 0
            # Every admitted request still got its full result.
            oks = [
                r for r in results.values()
                if isinstance(r, dict) and r.get("ok")
            ]
            assert oks, results
            for resp in oks:
                statuses = [
                    f["status"]
                    for f in resp["result"]["functions"]
                ]
                assert statuses == ["optimal", "optimal"]
            for r in results.values():
                if isinstance(r, dict) and not r.get("ok"):
                    assert r["error"]["code"] in (
                        E_OVERLOADED, E_DRAINING,
                    )
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
