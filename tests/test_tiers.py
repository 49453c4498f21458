"""Tests for the tiered allocation subsystem (repro.tiers).

Covers the linear-scan fast tier (parity with the exact IP on the
figure workloads, conservative §5 spill/refuse behaviour), the tier
policy's degradation ordering, the background upgrade queue (tenant
fairness, bounds, drain), the cache upgrade-in-place vs. LRU
interaction, and the service wiring end to end (fast reply within the
SLO, background optimal upgrade, SIGTERM drain).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.allocation import validate_allocation
from repro.baseline import GraphColoringAllocator
from repro.bench.workloads import load_all
from repro.core import AllocatorConfig
from repro.engine import AllocationEngine, EngineConfig
from repro.engine.cache import CacheRecord, ResultCache
from repro.ir import I8, I32, IRBuilder, Module, SlotKind
from repro.obs import reset_stats, snapshot
from repro.service import ServerThread, ServiceClient, ServiceConfig
from repro.service.upgrades import UpgradeJob, UpgradeQueue
from repro.sim import AllocatedFunction, Interpreter
from repro.target import x86_target
from repro.tiers import (
    TIER_BASELINE,
    TIER_FAST,
    TIER_IP,
    LinearScanAllocator,
    LinearScanFailure,
    TierPolicy,
    fast_allocate,
    optimality_gap,
    tier_cost,
)
from tests.test_pricing import assert_priced_exactly

SOURCE = """
int helper(int a) { return a * 3; }
int main(int n) {
    int s = 0;
    for (int i = 0; i < n; i += 1) { s += helper(i); }
    return s;
}
"""


@pytest.fixture(autouse=True)
def stats():
    reset_stats()
    yield
    reset_stats()


#: where the coloring baseline's code prices below the proven IP
#: optimum under static frequencies, as (coloring, optimum) in IP
#: objective units.  The model cannot copy a value out of a definition
#: register (DESIGN §5a); ROADMAP's lower-bound item must shrink this
#: to empty (the profiled set is in test_pricing.py).
COLORING_BELOW_STATIC_OPTIMUM = {
    ("compress", "main"): (10005.0, 12005.0),
    ("eqntott", "compare_rows"): (5003.0, 7003.0),
    ("xlisp", "build_expr"): (16009.0, 20009.0),
}


class TestLinearScanParity:
    """Fast tier vs. exact IP on the figure workloads."""

    def test_fig_set_parity(self, x86):
        """Every fast answer is validator-clean and never beats the
        optimum under the shared eq. (1) price (gap >= 0); each
        optimum is the price delta of its code; coloring beats the
        optimum exactly where pinned."""
        config = AllocatorConfig(time_limit=16.0)
        coloring = GraphColoringAllocator(x86)
        checked = 0
        below = {}
        for bench, module in load_all():
            engine = AllocationEngine(
                x86, config, EngineConfig(jobs=1)
            )
            outcomes = engine.allocate_module(list(module))
            for fn in module:
                alloc, tier, fast_cost = fast_allocate(
                    fn, x86, config=config
                )
                assert tier in (TIER_FAST, TIER_BASELINE)
                validate_allocation(alloc, x86)
                final = outcomes.outcome(fn.name).final
                if not final.succeeded:
                    continue
                if outcomes.outcome(fn.name).attempt.status != "optimal":
                    continue  # no optimum to compare against
                assert_priced_exactly(fn, final, x86, config)
                optimal_cost = tier_cost(final, x86, config=config)
                # A heuristic must never price below the proven
                # optimum (tiny float slack for rounding).
                assert fast_cost >= optimal_cost - 1e-6, (
                    bench.name, fn.name, fast_cost, optimal_cost
                )
                assert optimality_gap(fast_cost, optimal_cost) >= 0.0
                gc = coloring.allocate(fn)
                gap = optimality_gap(
                    tier_cost(gc, x86, config=config), optimal_cost
                )
                if gap < 0:
                    below[bench.name, fn.name] = (
                        final.objective + gap, final.objective
                    )
                checked += 1
        assert checked == 47
        assert below == COLORING_BELOW_STATIC_OPTIMUM
        assert snapshot()["tiers.negative_gaps"] == len(below)

    def test_fast_allocations_run_correctly(self, x86):
        """Fast-tier code computes the same results as unallocated IR
        on a real workload (not just structural validity)."""
        for bench, module in load_all():
            ref = Interpreter(module).run(bench.entry, list(bench.args))
            allocs = {}
            for fn in module:
                a, _, _ = fast_allocate(fn, x86)
                allocs[fn.name] = AllocatedFunction(
                    a.function, a.assignment
                )
            got = Interpreter(
                module, target=x86, allocations=allocs
            ).run(bench.entry, list(bench.args))
            assert got.return_value == ref.return_value, bench.name


class TestConservativeIrregularity:
    """§5 cases the scan must survive by spilling — never by emitting
    an invalid assignment."""

    @staticmethod
    def build_div_pressure() -> Module:
        """DIV/MOD (EAX/EDX implicit pair) under full register
        pressure: the scan must keep the pair free or spill."""
        m = Module("t")
        b = IRBuilder("f")
        pn = b.slot("n", kind=SlotKind.PARAM)
        pm = b.slot("m", kind=SlotKind.PARAM)
        b.block("entry")
        n = b.load(pn)
        d = b.load(pm)
        live = [b.add(n, b.imm(k), hint=f"v{k}") for k in range(6)]
        q = b.div(n, d)
        r = b.mod(n, d)
        acc = b.add(q, r)
        for v in live:
            acc = b.add(acc, v)
        b.ret(acc)
        m.add_function(b.done())
        return m

    @staticmethod
    def build_byte_overlap() -> Module:
        """Eight i8 values live at once: only legal through AL/AH-style
        sub-register packing or spilling — never double occupancy."""
        m = Module("t")
        b = IRBuilder("f")
        pn = b.slot("n", I8, kind=SlotKind.PARAM)
        b.block("entry")
        n = b.load(pn)
        vals = [b.add(n, b.imm(k, I8), hint=f"c{k}") for k in range(7)]
        acc = vals[0]
        for v in vals[1:]:
            acc = b.add(acc, v)
        b.ret(b.sext(acc, I32))
        m.add_function(b.done())
        return m

    def _check(self, module, args, x86):
        fn = module.functions["f"]
        try:
            alloc = LinearScanAllocator(x86).allocate(fn)
        except LinearScanFailure:
            return None  # refusal is an allowed conservative outcome
        validate_allocation(alloc, x86)
        ref = Interpreter(module).run("f", args).return_value
        got = Interpreter(
            module, target=x86,
            allocations={"f": AllocatedFunction(
                alloc.function, alloc.assignment
            )},
        ).run("f", args).return_value
        assert got == ref, (got, ref)
        return alloc

    def test_div_pair_under_pressure(self, x86):
        alloc = self._check(self.build_div_pressure(), [100, 7], x86)
        if alloc is not None:
            names = {r.name for r in alloc.assignment.values()}
            assert "EAX" in names and "EDX" in names

    def test_shift_count_family(self, x86):
        m = Module("t")
        b = IRBuilder("f")
        pn = b.slot("n", kind=SlotKind.PARAM)
        pc = b.slot("c", kind=SlotKind.PARAM)
        b.block("entry")
        n = b.load(pn)
        c = b.load(pc)
        b.ret(b.shl(n, c))
        m.add_function(b.done())
        alloc = self._check(m, [3, 4], x86)
        if alloc is not None:
            assert "ECX" in {r.name for r in alloc.assignment.values()}

    def test_sub_register_overlap(self, x86):
        self._check(self.build_byte_overlap(), [3], x86)


class TestDegradationOrdering:
    """SLO-miss ordering: the fast tier degrades to coloring, never
    straight past it to the IP."""

    def test_policy_orders_fast_before_coloring(self):
        decision = TierPolicy(fast_slo_ms=50.0).decide()
        assert decision.tier == TIER_FAST
        assert decision.upgrade

    def test_disabled_policy_goes_straight_to_ip(self):
        decision = TierPolicy(fast_slo_ms=0.0).decide()
        assert decision.tier == TIER_IP
        assert not decision.upgrade

    def test_report_requests_bypass_the_fast_tier(self):
        decision = TierPolicy(fast_slo_ms=50.0).decide(
            wants_report=True
        )
        assert decision.tier == TIER_IP
        assert not decision.upgrade

    def test_refusal_degrades_to_coloring(
        self, x86, loop_sum_module, monkeypatch
    ):
        def refuse(self, fn, freq=None):
            raise LinearScanFailure("forced refusal")

        monkeypatch.setattr(LinearScanAllocator, "allocate", refuse)
        fn = loop_sum_module.functions["sum"]
        alloc, tier, cost = fast_allocate(fn, x86)
        assert tier == TIER_BASELINE
        validate_allocation(alloc, x86)
        assert cost > 0
        assert snapshot()["tiers.fast_fallbacks"] == 1


class TestUpgradeQueue:
    @staticmethod
    def job(tag: str, tenant: str) -> UpgradeJob:
        return UpgradeJob(
            trace_id=tag, tenant=tenant, target_name="x86",
            config=None, functions=[],
            fast={"f": {"tier": TIER_FAST, "cost": 1.0}},
            fast_cost=1.0, request_id=f"id-{tag}",
        )

    def test_tenant_fairness_under_mixed_burst(self):
        """Round-robin across tenants: a chatty tenant's backlog does
        not starve single jobs from other tenants."""
        order: list[str] = []
        queue = UpgradeQueue(
            runner=lambda job: order.append(job.trace_id) or {},
            capacity=16,
        )
        # Mixed burst lands before the worker starts: tenant a floods,
        # b and c each submit one.
        for tag, tenant in (
            ("a1", "a"), ("a2", "a"), ("a3", "a"),
            ("b1", "b"), ("c1", "c"), ("a4", "a"),
        ):
            assert queue.submit(self.job(tag, tenant))
        queue.start()
        assert queue.wait_idle(timeout=10.0)
        queue.stop()
        assert order == ["a1", "b1", "c1", "a2", "a3", "a4"]

    def test_bounded_queue_drops_with_terminal_status(self):
        queue = UpgradeQueue(runner=lambda job: {}, capacity=2)
        assert queue.submit(self.job("q1", "t"))
        assert queue.submit(self.job("q2", "t"))
        assert not queue.submit(self.job("q3", "t"))
        dropped = queue.status("q3")
        assert dropped["state"] == "dropped"
        assert "full" in dropped["reason"]
        assert queue.snapshot()["dropped"] == 1
        assert queue.status("id-q2")["state"] == "queued"  # by req id

    def test_failed_job_does_not_kill_the_worker(self):
        def runner(job):
            if job.trace_id == "bad":
                raise RuntimeError("boom")
            return {"gap": 0.0}

        queue = UpgradeQueue(runner=runner, capacity=8)
        queue.start()
        assert queue.submit(self.job("bad", "t"))
        assert queue.submit(self.job("good", "t"))
        assert queue.wait_idle(timeout=10.0)
        queue.stop()
        assert queue.status("bad")["state"] == "failed"
        assert "boom" in queue.status("bad")["error"]
        assert queue.status("good")["state"] == "done"
        assert queue.status("good")["gap"] == 0.0

    def test_stopped_queue_refuses_new_work(self):
        queue = UpgradeQueue(runner=lambda job: {}, capacity=8)
        queue.start()
        queue.stop()
        assert not queue.submit(self.job("late", "t"))
        assert queue.status("late")["state"] == "dropped"

    def test_settle_callback_fires_per_terminal_job(self):
        settled = threading.Event()
        queue = UpgradeQueue(
            runner=lambda job: {}, capacity=8,
            on_settle=settled.set,
        )
        queue.start()
        queue.submit(self.job("s1", "t"))
        assert settled.wait(timeout=10.0)
        queue.stop()


class TestCacheUpgradeVsLRU:
    """The background upgrade overwrites a cache entry in place; that
    write must not double-count occupancy or churn the LRU."""

    @staticmethod
    def record(tag: str, objective: float = 1.0) -> CacheRecord:
        return CacheRecord(
            fingerprint=tag * 32, function=f"f{tag}",
            status="optimal", objective=objective,
        )

    @staticmethod
    def age(cache, record, mtime) -> None:
        os.utime(cache.path_for(record.fingerprint), (mtime, mtime))

    def test_upgrade_in_place_keeps_occupancy(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        a, b = self.record("a"), self.record("b")
        assert cache.put(a) == "inserted"
        assert cache.put(b) == "inserted"
        # The upgrade lands: same fingerprint, better record.
        upgraded = self.record("a", objective=0.5)
        assert cache.put(upgraded) == "replaced"
        assert len(cache) == 2  # occupancy did not grow
        assert cache.evictions == 0  # ...so nothing was pruned
        assert snapshot().get("engine.cache_evictions", 0) == 0
        assert cache.get(a.fingerprint).objective == 0.5

    def test_upgrade_does_not_reset_eviction_counters(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        a, b, c = (self.record(t) for t in "abc")
        cache.put(a)
        self.age(cache, a, 1_000_000.0)
        cache.put(b)
        self.age(cache, b, 1_000_001.0)
        cache.put(c)  # evicts a
        assert cache.evictions == 1
        assert cache.put(self.record("b", objective=0.25)) == "replaced"
        assert cache.evictions == 1  # upgrade never touches the count
        assert snapshot()["engine.cache_evictions"] == 1
        assert len(cache) == 2

    def test_entry_evicted_mid_upgrade_reinserts_cleanly(self, tmp_path):
        """The upgrade raced the LRU and lost its entry: the landing
        write is a plain insert, not an error."""
        cache = ResultCache(tmp_path, max_entries=2)
        a, b, c = (self.record(t) for t in "abc")
        cache.put(a)
        self.age(cache, a, 1_000_000.0)
        cache.put(b)
        self.age(cache, b, 1_000_001.0)
        cache.put(c)  # a's entry is gone while its upgrade still runs
        assert cache.get(a.fingerprint) is None
        landed = self.record("a", objective=0.125)
        assert cache.put(landed) == "inserted"
        assert cache.get(a.fingerprint).objective == 0.125
        assert len(cache) == 2  # the bound still holds afterwards


class TestTieredService:
    """End-to-end service wiring: fast reply, background upgrade,
    cache-served optimal on the repeat submit."""

    @pytest.fixture()
    def server(self, tmp_path):
        config = ServiceConfig(
            queue_capacity=8, max_in_flight=2,
            fast_slo_ms=5000.0,  # generous: CI boxes are slow
            cache_dir=str(tmp_path / "cache"),
        )
        handle = ServerThread(config).start()
        yield handle
        try:
            handle.drain(timeout=120.0)
        except RuntimeError:
            pass

    def test_fast_reply_then_upgrade_then_cached_optimal(self, server):
        with ServiceClient("127.0.0.1", server.port, timeout=120) as c:
            first = c.allocate(source=SOURCE, trace=True)
            assert first["ok"], first
            result = first["result"]
            assert result["tier"] in (TIER_FAST, TIER_BASELINE, "mixed")
            assert result["fast_cost"] > 0
            upgrade = result["upgrade"]
            assert upgrade["state"] == "queued"
            final = c.wait_optimal(first["trace_id"], timeout=120.0)
            record = final["result"]["upgrade"]
            assert record["state"] == "done", record
            assert record["gap"] >= 0.0
            assert record["optimal_cost"] <= result["fast_cost"] + 1e-6
            # The repeat submit replays the upgraded cache entry.
            second = c.allocate(source=SOURCE)
            assert second["ok"]
            assert second["result"]["tier"] == TIER_IP
            assert all(
                f["cache_hit"]
                for f in second["result"]["functions"]
            )

    def test_size_only_requests_are_priced_by_size(self, server):
        """A size-only request's fast and optimal costs carry no cycle
        term: each is B x the code bytes, as the IP it is compared
        against is."""
        weight = AllocatorConfig().code_size_weight
        config = {"size_only": True}
        with ServiceClient("127.0.0.1", server.port, timeout=120) as c:
            first = c.check(c.allocate(source=SOURCE, config=config))
            fast = first["result"]
            for entry in fast["functions"]:
                assert entry["fast_cost"] == weight * entry["code_size"]
            final = c.wait_optimal(first["trace_id"], timeout=120.0)
            record = final["result"]["upgrade"]
            assert record["state"] == "done", record
            second = c.check(c.allocate(source=SOURCE, config=config))
            assert second["result"]["tier"] == TIER_IP
            assert record["optimal_cost"] == weight * sum(
                f["code_size"] for f in second["result"]["functions"]
            )
            assert record["gap"] == \
                fast["fast_cost"] - record["optimal_cost"] >= 0.0

    def test_status_and_stats_expose_tier_vitals(self, server):
        with ServiceClient("127.0.0.1", server.port, timeout=60) as c:
            tiers = c.status()["result"]["tiers"]
            assert tiers["fast_enabled"]
            assert tiers["fast_slo_ms"] == 5000.0
            assert tiers["upgrades"]["capacity"] == 64
            body = c.stats()["result"]["tiers"]
            assert "fast_replies" in body and "slo_misses" in body

    def test_report_requests_still_get_exact_answers(self, server):
        with ServiceClient("127.0.0.1", server.port, timeout=120) as c:
            resp = c.allocate(source=SOURCE, report=True)
            assert resp["ok"]
            assert resp["result"]["tier"] == TIER_IP
            assert "upgrade" not in resp["result"]


class TestTieredSigtermDrain:
    def test_sigterm_waits_for_upgrades(self, tmp_path):
        """SIGTERM after a fast-answered burst: the server must finish
        every queued background upgrade before exiting 0."""
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
             "--fast-slo-ms", "5000",
             "--cache", str(tmp_path / "cache")],
            cwd=root, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "listening on" in banner, banner
            assert "fast-slo=5000" in banner, banner
            port = int(
                banner.split("listening on ")[1]
                .split()[0].rsplit(":", 1)[1]
            )
            replies = []
            with ServiceClient("127.0.0.1", port, timeout=120) as c:
                for _ in range(3):
                    replies.append(c.allocate(source=SOURCE))
            # Fast answers are back; their upgrades are (at most)
            # still in the background queue when SIGTERM lands.
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert "drained" in err
            for resp in replies:
                assert resp["ok"], resp
                upgrade = resp["result"].get("upgrade")
                if upgrade is not None:
                    assert upgrade["state"] in ("queued", "dropped")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
