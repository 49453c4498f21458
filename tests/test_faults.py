"""Chaos suite: the fault-injection harness and every recovery path.

Each injection site is driven end to end through its real layer — a
worker crash actually kills a pool process, a corrupt cache record is
actually quarantined from disk, a garbled service line is answered on
a live socket — and every test asserts both the survival behaviour
(the run completes, the connection stays up) and the accounting
(``faults.*`` / ``resilience.*`` counters).
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.allocation import render_allocation
from repro.core import AllocatorConfig
from repro.engine import AllocationEngine, EngineConfig, ResultCache
from repro.faults import (
    SITE_CACHE_CORRUPT,
    SITE_WORKER_CRASH,
    SITES,
    CircuitBreaker,
    CircuitOpenError,
    FaultPlan,
    InjectedFault,
    RetryPolicy,
    breaker_for,
    get_injector,
    reset_breakers,
    set_injector,
)
from repro.lang import compile_program
from repro.obs import reset_stats, snapshot
from repro.service import (
    E_CANCELLED,
    E_TOO_LARGE,
    ServerThread,
    ServiceClient,
    ServiceConfig,
)
from repro.solver import IPModel, Sense, SolveStatus, solve
from repro.target import x86_target

from tests.conftest import build_loop_sum


@pytest.fixture(autouse=True)
def clean_slate():
    """Zeroed stats, no fault plan, no breaker state — per test."""
    reset_stats()
    set_injector(None)
    reset_breakers()
    yield
    set_injector(None)
    reset_breakers()
    reset_stats()


def small_model() -> IPModel:
    model = IPModel()
    x = model.add_var("x", -1.0)
    y = model.add_var("y", -1.0)
    model.add_constraint([(1.0, x), (1.0, y)], Sense.LE, 1.0, "pick")
    return model


# -- the plan: grammar and determinism ------------------------------------

class TestFaultPlan:
    def test_parse_full_grammar(self):
        plan = FaultPlan.parse(
            "seed=7;worker_crash=0.25;cache_corrupt=1.0:2;"
            "hang_seconds=0.5"
        )
        assert plan.seed == 7
        assert plan.hang_seconds == 0.5
        assert plan.rule("worker_crash").rate == 0.25
        assert plan.rule("cache_corrupt").max_fires == 2
        assert bool(plan)

    def test_empty_spec_is_inert(self):
        assert not FaultPlan.parse(None)
        assert not FaultPlan.parse("")
        assert not FaultPlan.parse("seed=9")

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            FaultPlan.parse("warp_core_breach=0.5")

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("worker_crash=maybe")

    def test_decisions_are_deterministic(self):
        plan = FaultPlan.parse("seed=7;worker_crash=0.25")
        again = FaultPlan.parse("seed=7;worker_crash=0.25")
        keys = [f"fn-{i}" for i in range(200)]
        first = [plan.decide(SITE_WORKER_CRASH, k) for k in keys]
        second = [again.decide(SITE_WORKER_CRASH, k) for k in keys]
        assert first == second
        hits = sum(first)
        assert 0 < hits < len(keys)  # the rate is neither 0 nor 1

    def test_seed_changes_decisions(self):
        a = FaultPlan.parse("seed=1;worker_crash=0.5")
        b = FaultPlan.parse("seed=2;worker_crash=0.5")
        keys = [f"fn-{i}" for i in range(64)]
        assert [a.decide(SITE_WORKER_CRASH, k) for k in keys] != \
               [b.decide(SITE_WORKER_CRASH, k) for k in keys]

    def test_rate_extremes(self):
        plan = FaultPlan.parse("worker_crash=1.0;cache_corrupt=0.0")
        assert plan.decide(SITE_WORKER_CRASH, "anything")
        assert not plan.decide(SITE_CACHE_CORRUPT, "anything")

    def test_max_fires_budget(self):
        inj = set_injector("cache_corrupt=1.0:2")
        fires = [
            inj.should_fire(SITE_CACHE_CORRUPT, f"k{i}")
            for i in range(4)
        ]
        assert fires == [True, True, False, False]
        assert snapshot().get("faults.cache_corrupt") == 2

    def test_every_site_has_a_name(self):
        spec = ";".join(f"{site}=0.5" for site in SITES)
        plan = FaultPlan.parse(spec)
        for site in SITES:
            assert plan.rule(site).rate == 0.5


class TestRetryPolicy:
    def test_delays_grow_and_cap(self):
        policy = RetryPolicy(
            max_retries=5, base_delay=0.1, max_delay=0.5, jitter=0.0
        )
        delays = [policy.delay(a, salt="s") for a in range(5)]
        assert delays == sorted(delays)
        assert delays[0] == pytest.approx(0.1)
        assert max(delays) <= 0.5

    def test_jitter_is_deterministic_per_salt(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5)
        assert policy.delay(1, salt="a") == policy.delay(1, salt="a")
        assert policy.delay(1, salt="a") != policy.delay(1, salt="b")

    def test_sleep_counts_resilience(self):
        policy = RetryPolicy(base_delay=0.001, max_delay=0.002)
        policy.sleep(0, salt="x")
        counters = snapshot()
        assert counters.get("resilience.retries") == 1
        assert counters.get("resilience.backoff_seconds", 0) > 0


# -- circuit breaker ------------------------------------------------------

class TestCircuitBreaker:
    def test_trips_after_threshold_and_recovers(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            "unit", failure_threshold=3, reset_timeout=10.0,
            clock=lambda: clock[0],
        )
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()  # third consecutive failure trips it
        assert breaker.state == "open"
        assert not breaker.allow()
        clock[0] = 11.0  # past the reset timeout: half-open
        assert breaker.state == "half-open"
        assert breaker.allow()       # one probe admitted
        assert not breaker.allow()   # but only one
        breaker.record_success()
        assert breaker.state == "closed"
        assert snapshot().get("resilience.breaker_trips") == 1
        assert snapshot().get("resilience.breaker_closes") == 1

    def test_failed_probe_reopens(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            "unit", failure_threshold=1, reset_timeout=5.0,
            clock=lambda: clock[0],
        )
        breaker.record_failure()
        clock[0] = 6.0
        assert breaker.allow()
        breaker.record_failure()  # the probe failed: open again
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_the_failure_run(self):
        breaker = CircuitBreaker("unit", failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # never two consecutive

    def test_solver_dispatch_trips_and_short_circuits(self):
        breaker_for("scipy").failure_threshold = 2
        set_injector("solver_error=1.0")
        for _ in range(2):
            with pytest.raises(InjectedFault):
                solve(small_model(), backend="scipy")
        with pytest.raises(CircuitOpenError):
            solve(small_model(), backend="scipy")
        counters = snapshot()
        assert counters.get("resilience.breaker_trips") == 1
        assert counters.get("resilience.breaker_short_circuits") == 1
        # Clear the fault and let the reset window lapse: the
        # half-open probe solves cleanly and closes the breaker.
        set_injector(None)
        breaker_for("scipy").reset_timeout = 0.0
        result = solve(small_model(), backend="scipy")
        assert result.status == SolveStatus.OPTIMAL
        assert breaker_for("scipy").state == "closed"

    def test_injected_solver_timeout(self):
        set_injector("solver_timeout=1.0")
        result = solve(small_model(), backend="scipy", time_limit=3.0)
        assert result.status == SolveStatus.UNSOLVED
        assert result.timed_out
        assert snapshot().get("faults.solver_timeout") == 1
        # A timeout is not a backend fault: the breaker stays closed.
        assert breaker_for("scipy").state == "closed"


# -- engine: crash retry, recovery, degradation ---------------------------

class TestEngineChaos:
    def engine(self, tmp_path=None, jobs=2):
        return AllocationEngine(
            x86_target(),
            AllocatorConfig(time_limit=30.0),
            EngineConfig(
                jobs=jobs,
                cache_dir=str(tmp_path) if tmp_path else None,
            ),
        )

    def test_worker_crash_retries_then_counted_degradation(self):
        """Every worker's first solve dies; retries burn down; the
        in-process final attempt recovers all but the one function
        whose own fault decision still fires."""
        module = build_loop_sum()
        clean = {
            o.function: render_allocation(o.final, x86_target())
            for o in self.engine().allocate_module(list(module))
        }
        reset_stats()
        set_injector("worker_crash=1.0:1")
        outcomes = {
            o.function: o
            for o in self.engine().allocate_module(list(module))
        }
        assert set(outcomes) == set(clean)  # nothing dropped
        counters = snapshot()
        assert counters.get("resilience.worker_crashes", 0) >= 1
        assert counters.get("resilience.pool_respawns", 0) >= 1
        assert counters.get("resilience.retries", 0) >= 1
        # The parent-process injector budget (1 fire) degrades exactly
        # one function at the final attempt; the rest recover to the
        # clean run's allocation, byte for byte.
        assert counters.get("engine.degradations.InjectedFault") == 1
        recovered = [
            name for name, o in outcomes.items()
            if o.final.allocator == "ip"
        ]
        assert len(recovered) == len(clean) - 1
        for name in recovered:
            assert render_allocation(
                outcomes[name].final, x86_target()
            ) == clean[name]

    def test_moderate_crash_rate_is_bit_identical(self):
        """A rate-based plan whose fires all land within the retry
        budget reproduces the clean allocations exactly."""
        module = build_loop_sum()
        clean = {
            o.function: render_allocation(o.final, x86_target())
            for o in self.engine().allocate_module(list(module))
        }
        reset_stats()
        set_injector("seed=3;worker_crash=0.25")
        faulted = {
            o.function: render_allocation(o.final, x86_target())
            for o in self.engine().allocate_module(list(module))
        }
        assert faulted == clean

    def test_worker_hang_site_fires_and_run_completes(self):
        set_injector("worker_hang=1.0:1;hang_seconds=0.1")
        module = build_loop_sum()
        outcomes = list(self.engine().allocate_module(list(module)))
        assert len(outcomes) == len(list(module))
        assert all(o.final.succeeded for o in outcomes)
        assert snapshot().get("faults.worker_hang", 0) >= 1

    def test_cache_corruption_quarantines_and_recovers(self, tmp_path):
        module = build_loop_sum()
        # Warm the cache cleanly, then read it back under a plan that
        # garbles the first record read.
        list(self.engine(tmp_path, jobs=1).allocate_module(list(module)))
        cache = ResultCache(str(tmp_path))
        assert len(cache) == len(list(module))
        reset_stats()
        set_injector("cache_corrupt=1.0:1")
        outcomes = list(
            self.engine(tmp_path, jobs=1).allocate_module(list(module))
        )
        assert all(o.final.succeeded for o in outcomes)
        counters = snapshot()
        assert counters.get("faults.cache_corrupt") == 1
        assert counters.get("engine.cache_corrupt") == 1
        quarantined = list((tmp_path / "quarantine").glob("*.bad"))
        assert len(quarantined) == 1

    def test_cache_io_faults_are_misses_not_errors(self, tmp_path):
        set_injector("cache_io=1.0")
        module = build_loop_sum()
        outcomes = list(
            self.engine(tmp_path, jobs=1).allocate_module(list(module))
        )
        assert all(o.final.succeeded for o in outcomes)
        assert snapshot().get("faults.cache_io", 0) >= 1
        # Every write was eaten by the injected I/O error.
        assert len(ResultCache(str(tmp_path))) == 0

    def test_strict_mode_reraises_unexpected(self, monkeypatch):
        monkeypatch.setenv("REPRO_STRICT", "1")

        class Boom(Exception):
            pass

        engine = self.engine(jobs=1)

        def explode(*a, **k):
            raise Boom("not a degradable failure")

        monkeypatch.setattr(
            "repro.core.allocator.IPAllocator.allocate", explode
        )
        with pytest.raises(Boom):
            list(engine.allocate_module(list(build_loop_sum())))


# -- service hardening ----------------------------------------------------

SOURCE = "int f(int n) { return n + 1; }"


@pytest.fixture()
def make_server():
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


class TestServiceChaos:
    def test_oversized_request_gets_too_large(self, make_server):
        handle = make_server(max_request_bytes=2000)
        with client_for(handle) as client:
            resp = client.allocate(source=SOURCE + " // " + "x" * 3000)
            assert resp["ok"] is False
            assert resp["error"]["code"] == E_TOO_LARGE
            # The connection survives an oversized line.
            assert client.ping()["ok"]

    def test_injected_malformed_line_is_answered(self, make_server):
        handle = make_server(faults="service_malformed=1.0:1")
        with client_for(handle) as client:
            first = client.allocate(source=SOURCE)
            assert first["ok"] is False  # garbled in flight
            assert first["error"]["code"] in ("parse_error",
                                              "bad_request")
            second = client.allocate(source=SOURCE)
            assert second["ok"] is True  # budget spent; line intact

    def test_cancel_queued_request(self, make_server):
        release = threading.Event()
        entered = threading.Event()

        def hook(batch):
            entered.set()
            release.wait(timeout=30.0)

        handle = make_server(
            batch_hook=hook, max_in_flight=1, max_batch=1
        )
        results = {}

        def submit(tag):
            with client_for(handle) as client:
                results[tag] = client.allocate(
                    source=SOURCE, trace_id=tag
                )

        first = threading.Thread(target=submit, args=("first",))
        first.start()
        assert entered.wait(timeout=30.0)
        second = threading.Thread(target=submit, args=("second",))
        second.start()
        with client_for(handle) as control:
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                cancel = control.cancel("second")
                if cancel["result"]["cancelled"]:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("never saw the queued request to cancel")
            # A second cancel for the same ref finds nothing.
            assert control.cancel("second")["result"]["cancelled"] \
                is False
        release.set()
        first.join(timeout=60.0)
        second.join(timeout=60.0)
        assert results["first"]["ok"] is True
        assert results["second"]["ok"] is False
        assert results["second"]["error"]["code"] == E_CANCELLED

    def test_round_robin_across_tenants(self, make_server):
        """A burst from one tenant cannot starve another: the queue
        drains one request per tenant per turn."""
        release = threading.Event()
        entered = threading.Event()
        order = []

        def hook(batch):
            for pending in batch:
                order.append(pending.request.trace_id)
            if not entered.is_set():
                entered.set()
                release.wait(timeout=30.0)

        handle = make_server(
            batch_hook=hook, max_in_flight=1, max_batch=1
        )
        threads = []

        def submit(tag, tenant):
            with client_for(handle) as client:
                client.allocate(
                    source=SOURCE, trace_id=tag, tenant=tenant
                )

        def spawn(tag, tenant):
            t = threading.Thread(target=submit, args=(tag, tenant))
            t.start()
            threads.append(t)

        spawn("a1", "alpha")
        assert entered.wait(timeout=30.0)  # a1 holds the engine
        # Queue a burst from alpha, then one request each from beta
        # and gamma behind it.
        for tag in ("a2", "a3", "a4"):
            spawn(tag, "alpha")
            time.sleep(0.05)
        spawn("b1", "beta")
        time.sleep(0.05)
        spawn("c1", "gamma")
        time.sleep(0.2)  # let everything enqueue
        release.set()
        for t in threads:
            t.join(timeout=60.0)
        assert sorted(order) == ["a1", "a2", "a3", "a4", "b1", "c1"]
        # Fairness: beta's and gamma's single requests are served
        # before alpha's burst finishes.
        assert order.index("b1") < order.index("a4")
        assert order.index("c1") < order.index("a4")

    def test_health_reports_breakers_and_degradations(
        self, make_server
    ):
        handle = make_server(faults="seed=5;cache_corrupt=0.5")
        with client_for(handle) as client:
            resp = client.health()
            assert resp["ok"]
            vitals = resp["result"]
            assert vitals["state"] == "serving"
            assert vitals["fault_plan"] == "seed=5;cache_corrupt=0.5"
            assert "breakers" in vitals
            assert set(vitals["degraded"]) >= {
                "fallbacks", "timeouts", "cache_corrupt",
                "too_large", "cancelled",
            }
            assert vitals["queue"]["depth"] == 0


# -- a real SIGKILL, not an injected one ----------------------------------

SIGKILL_SCRIPT = r"""
import os, signal, sys, threading, time

from repro.core import AllocatorConfig
from repro.engine import AllocationEngine, EngineConfig
from repro.lang import compile_program
from repro.obs import snapshot
from repro.target import x86_target

SOURCE = """ + '"""' + """
int helper(int a) { return a * 3; }
int mix(int a, int b) { int t = a * b; return t + a - b; }
int main(int n) {
    int s = 0;
    for (int i = 0; i < n; i += 1) { s += helper(i) + mix(i, n); }
    return s;
}
""" + '"""' + r"""

module = compile_program(SOURCE, name="sigkill")
engine = AllocationEngine(
    x86_target(),
    AllocatorConfig(time_limit=30.0),
    EngineConfig(jobs=2),
)


def assassin():
    # Kill live pool workers until the allocation finishes: whatever
    # is mid-solve dies with a real SIGKILL, repeatedly.  The test sets
    # REPRO_FAULTS so that each worker process stalls in its first task:
    # the first sweep after the pool starts always finds a task to
    # kill, however fast the solves are.
    deadline = time.monotonic() + 20.0
    while not done.is_set() and time.monotonic() < deadline:
        for child in list(children()):
            try:
                os.kill(child, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        time.sleep(0.05)


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


done = threading.Event()
killer = threading.Thread(target=assassin, daemon=True)
killer.start()
outcomes = list(engine.allocate_module(list(module)))
done.set()
killer.join(timeout=5.0)

assert len(outcomes) == len(list(module)), "functions dropped"
for o in outcomes:
    assert o.final is not None, f"{o.function} has no allocation"
counters = snapshot()
crashes = counters.get("resilience.worker_crashes", 0)
assert crashes >= 1, f"no crash observed: {counters}"
print(f"SIGKILL-SURVIVED crashes={crashes:g} "
      f"functions={len(outcomes)}")
"""


class TestRealWorkerDeath:
    def test_sigkilled_workers_do_not_kill_the_module(self, tmp_path):
        """SIGKILL pool workers from outside while a module allocates:
        the run must complete every function (solved or degraded,
        never dropped) and count the crashes.  A worker stalls in its
        first task, so a kill always lands mid-task."""
        script = tmp_path / "sigkill_chaos.py"
        script.write_text(SIGKILL_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            os.path.join(os.path.dirname(__file__), "..", "src")
            + os.pathsep + env.get("PYTHONPATH", "")
        )
        env["REPRO_FAULTS"] = "worker_hang=1.0:1;hang_seconds=30"
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, timeout=240, env=env,
        )
        assert proc.returncode == 0, (
            f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
        )
        assert "SIGKILL-SURVIVED" in proc.stdout
