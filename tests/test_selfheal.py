"""Self-healing fleet tests: shard supervision, successor cache
replication, and the crash-durable upgrade journal.

Three failure-recovery layers, each tested at its own level:

* the :class:`UpgradeJournal` as a unit (append/replay/compact, torn
  final line);
* journal recovery end-to-end across a server restart (both the
  already-upgraded-cache fast path and the genuine re-solve path);
* the gateway pieces with real traffic — successor replication
  producing warm cache hits after the owner leaves the ring, the
  supervisor respawning a SIGKILL'd subprocess shard, the restart
  budget abandoning a shard that cannot come back, 503 +
  ``Retry-After`` when the whole fleet is gone, and ring-membership
  checkpoint restore.
"""

from __future__ import annotations

import http.client
import json
import time
from pathlib import Path

import pytest

from repro.__main__ import EXIT_UNAVAILABLE, main as repro_main
from repro.core import CONFIG_KNOBS, AllocatorConfig
from repro.engine import AllocationEngine, ResultCache, config_signature
from repro.faults import FaultPlan, RetryPolicy, set_injector
from repro.gateway import (
    GatewayClient,
    GatewayConfig,
    GatewayThread,
    LocalShardFleet,
    ShardManager,
    ShardSupervisor,
)
from repro.lang import compile_program
from repro.obs import TraceStore, reset_stats, snapshot
from repro.service import (
    ServerThread,
    ServiceClient,
    ServiceConfig,
    UpgradeJournal,
)
from repro.service.tenancy import TenantTally
from repro.service.upgrades import (
    JOURNAL_NAME,
    FastTier,
    UpgradeJob,
    serialize_job,
)
from repro.target import x86_target
from repro.tiers import TierPolicy

SOURCE = """
int scale(int a) { return a * 5 + 1; }
"""

#: distinct cheap programs for replication / fail-over traffic
VARIANTS = [
    f"int heal{i}(int a) {{ return a * {i + 2}; }}" for i in range(6)
]


@pytest.fixture(autouse=True)
def stats():
    reset_stats()
    yield
    set_injector(None)
    reset_stats()


# -- fault plan knows the new sites ---------------------------------------


def test_fault_plan_parses_selfheal_sites():
    plan = FaultPlan.parse(
        "seed=7;replica_drop=0.5;supervisor_respawn_fail=1.0:2;"
        "journal_torn_write=0.25"
    )
    assert plan.rules["replica_drop"].rate == 0.5
    assert plan.rules["supervisor_respawn_fail"].max_fires == 2
    assert plan.rules["journal_torn_write"].rate == 0.25
    with pytest.raises(ValueError):
        FaultPlan.parse("replica_dorp=1.0")


# -- the journal as a unit ------------------------------------------------


def _queued(trace_id: str) -> dict:
    return {"event": "queued", "trace_id": trace_id,
            "tenant": "", "target": "t", "ir": "x"}


def test_journal_append_replay_compact(tmp_path):
    journal = UpgradeJournal(tmp_path / "j.jsonl")
    journal.append(_queued("t1"))
    journal.append(_queued("t2"))
    journal.append({"event": "done", "trace_id": "t1"})
    incomplete, stats = journal.replay()
    assert list(incomplete) == ["t2"]
    assert stats == {"entries": 3, "skipped": 0}
    # undecodable junk is skipped, never raised
    with open(journal.path, "a", encoding="utf-8") as handle:
        handle.write("{not json\n")
    incomplete, stats = journal.replay()
    assert list(incomplete) == ["t2"]
    assert stats["skipped"] == 1
    # compaction rewrites to just the open entries
    journal.compact(incomplete)
    incomplete, stats = journal.replay()
    assert list(incomplete) == ["t2"]
    assert stats == {"entries": 1, "skipped": 0}


def test_journal_torn_write_is_skipped_on_replay(tmp_path):
    journal = UpgradeJournal(tmp_path / "j.jsonl")
    journal.append(_queued("good"))
    set_injector("journal_torn_write=1.0")
    journal.append(_queued("torn"))
    set_injector(None)
    assert journal.torn_writes == 1
    # the file ends mid-line, exactly like a SIGKILL mid-append...
    text = journal.path.read_text(encoding="utf-8")
    assert not text.endswith("\n")
    # ...and the journal considers itself dead: nothing more lands
    journal.append(_queued("after-death"))
    assert "after-death" not in journal.path.read_text(encoding="utf-8")
    # replay keeps the good entry and counts the torn line as skipped
    incomplete, stats = journal.replay()
    assert list(incomplete) == ["good"]
    assert stats["skipped"] == 1


# -- journal lines <-> jobs -----------------------------------------------

#: a ``queued`` journal line as an earlier release wrote it, with every
#: request config knob away from its default
JOURNAL_FIXTURE = (
    Path(__file__).resolve().parent / "data" / "upgrade_journal_queued.jsonl"
)

FIXTURE_SOURCE = (
    "int main(int n) { int s = 0; "
    "for (int i = 0; i < n; i += 1) { s += i * 3; } return s; }"
)


def _fast_tier(tmp_path) -> FastTier:
    targets = {"x86": x86_target}
    return FastTier(
        lambda name, config, tenant: AllocationEngine(
            targets[name](), config, cache=ResultCache(tmp_path / "c")
        ),
        lambda name: targets[name](),
        TraceStore(), TenantTally(),
        policy=TierPolicy(fast_slo_ms=50.0),
        cache_dir=str(tmp_path / "c"),
        capacity=64,
    )


def _fixture_job() -> UpgradeJob:
    """The job the fixture line was written for."""
    config = AllocatorConfig(
        backend="branch-bound", time_limit=7.5, presolve=False,
        optimize_size_only=True, code_size_weight=250.0,
        data_size_weight=2.0,
    )
    return UpgradeJob(
        trace_id="journal-fixture-1", tenant="acme", target_name="x86",
        config=config,
        functions=list(compile_program(FIXTURE_SOURCE, name="fixture")),
        fast={"main": {"tier": "linear-scan", "cost": 1234.0}},
        fast_cost=1234.0, request_id=7,
    )


def test_serialize_job_round_trip_keeps_every_config_field(tmp_path):
    job = _fixture_job()
    default = AllocatorConfig()
    # The round trip below would be vacuous for a field left at its
    # default, so every wire field is set away from it.
    for knob in CONFIG_KNOBS:
        field = knob.field
        assert getattr(job.config, field) != getattr(default, field), field
    entry = json.loads(json.dumps(serialize_job(job)))
    rebuilt = _fast_tier(tmp_path)._job_from_journal(entry)
    assert rebuilt is not None and rebuilt.recovered
    assert config_signature(rebuilt.config) == config_signature(job.config)
    assert rebuilt.trace_id == job.trace_id
    assert [fn.name for fn in rebuilt.functions] == ["main"]


def test_journal_line_of_earlier_release_is_byte_compatible(tmp_path):
    line = JOURNAL_FIXTURE.read_text(encoding="utf-8").strip()
    # Today's writer emits the same bytes for the same job...
    assert json.dumps(
        serialize_job(_fixture_job()), sort_keys=True,
        separators=(",", ":"),
    ) == line
    # ...and today's recovery rebuilds the job from the old line.
    tier = _fast_tier(tmp_path)
    (tmp_path / "c").mkdir()
    (tmp_path / "c" / JOURNAL_NAME).write_text(line + "\n")
    tier.recover()
    assert tier.queue.recovered == 1
    snap = tier.queue.snapshot()
    assert snap["depth"] == 1 and snap["per_tenant"] == {"acme": 1}
    status = tier.queue.status("journal-fixture-1")
    assert status["state"] == "queued" and status["recovered"] is True
    assert status["request_id"] == 7
    job = tier._job_from_journal(json.loads(line))
    assert config_signature(job.config) == config_signature(
        _fixture_job().config
    )


# -- journal recovery across a restart ------------------------------------


def _serve_config(tmp_path, name: str, **kw) -> ServiceConfig:
    return ServiceConfig(
        port=0, queue_capacity=16, max_in_flight=2,
        cache_dir=str(tmp_path / name), shard_id=name,
        fast_slo_ms=250.0, **kw,
    )


def _seed_solved_journal(tmp_path) -> tuple[Path, str, str]:
    """Run a fast-tier server, land one background upgrade, and
    return (cache_dir, the journal's queued line, trace_id)."""
    trace_id = "selfheal-seed-1"
    handle = ServerThread(_serve_config(tmp_path, "seed")).start()
    try:
        with ServiceClient("127.0.0.1", handle.port) as client:
            resp = client.check(
                client.allocate(source=SOURCE, trace_id=trace_id))
            assert resp["result"].get("upgrade"), (
                "expected a fast-tier reply with a queued upgrade")
            status = client.wait_optimal(trace_id, timeout=120.0)
            record = status["result"]["upgrade"]
            assert record["state"] == "done", record
    finally:
        handle.drain(timeout=60.0)
    journal_path = tmp_path / "seed" / JOURNAL_NAME
    lines = journal_path.read_text(encoding="utf-8").splitlines()
    queued = [line for line in lines
              if '"queued"' in line and trace_id in line]
    assert queued, lines
    return tmp_path / "seed", queued[0], trace_id


def test_recovery_completes_from_upgraded_cache(tmp_path):
    """A replayed upgrade whose optimal records already hit the cache
    (crash after the put, before the journal's terminal event)
    settles immediately — the idempotent recovery path."""
    cache_dir, queued_line, trace_id = _seed_solved_journal(tmp_path)
    # simulate the crash: the journal says queued, the cache says done
    (cache_dir / JOURNAL_NAME).write_text(
        queued_line + "\n", encoding="utf-8")
    handle = ServerThread(ServiceConfig(
        port=0, queue_capacity=16, max_in_flight=2,
        cache_dir=str(cache_dir), shard_id="reborn",
        fast_slo_ms=250.0,
    )).start()
    try:
        with ServiceClient("127.0.0.1", handle.port) as client:
            stats = client.check(client.stats())["result"]
            journal = stats["tiers"]["upgrades"]["journal"]
            assert journal["enabled"]
            assert journal["recovered"] == 1
            assert journal["recovered_cached"] == 1
            record = client.check(
                client.upgrade_status(trace_id))["result"]["upgrade"]
            assert record["state"] == "done"
            assert record["recovered"] is True
            assert record["optimal_cost"] > 0
            # the promised optimal answer is served, gap closed
            resp = client.check(client.allocate(source=SOURCE))
            assert resp["result"]["tier"] == "ip"
            assert resp["result"]["optimality_gap"] == 0.0
    finally:
        handle.drain(timeout=60.0)


def test_recovery_resolves_unsolved_journal_entry(tmp_path):
    """A replayed upgrade with no cache entry re-queues and solves:
    the crashed shard's promised optimal still lands."""
    _, queued_line, trace_id = _seed_solved_journal(tmp_path)
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    (fresh / JOURNAL_NAME).write_text(
        queued_line + "\n", encoding="utf-8")
    handle = ServerThread(ServiceConfig(
        port=0, queue_capacity=16, max_in_flight=2,
        cache_dir=str(fresh), shard_id="fresh",
        fast_slo_ms=250.0,
    )).start()
    try:
        with ServiceClient("127.0.0.1", handle.port) as client:
            # one long-poll round parks until the recovered solve lands
            record = client.check(client.upgrade_status(
                trace_id, wait_ms=60_000))["result"]["upgrade"]
            assert record["state"] == "done"
            assert record["recovered"] is True
            stats = client.check(client.stats())["result"]
            journal = stats["tiers"]["upgrades"]["journal"]
            assert journal["recovered"] == 1
            assert journal["recovered_cached"] == 0
            resp = client.check(client.allocate(source=SOURCE))
            assert resp["result"]["tier"] == "ip"
            assert resp["result"]["optimality_gap"] == 0.0
    finally:
        handle.drain(timeout=60.0)


def test_upgrade_status_long_poll(tmp_path):
    handle = ServerThread(_serve_config(tmp_path, "lp")).start()
    try:
        with ServiceClient("127.0.0.1", handle.port) as client:
            resp = client.check(client.allocate(
                source=SOURCE, trace_id="lp-1"))
            assert resp["result"].get("upgrade")
            # a single parked round trip returns the terminal record
            record = client.check(client.upgrade_status(
                "lp-1", wait_ms=30_000))["result"]["upgrade"]
            assert record["state"] in ("done", "failed")
            # unknown refs return immediately — nothing is coming
            t0 = time.monotonic()
            missing = client.check(
                client.upgrade_status("no-such", wait_ms=5_000))
            assert missing["result"]["upgrade"] is None
            assert time.monotonic() - t0 < 2.0
            # wait_ms must be numeric
            bad = client.request({
                "verb": "upgrade_status", "request": "lp-1",
                "wait_ms": "soon",
            })
            assert not bad["ok"]
            assert bad["error"]["code"] == "bad_request"
    finally:
        handle.drain(timeout=60.0)


# -- successor cache replication ------------------------------------------


def gw_client(gwt: GatewayThread, **kw) -> GatewayClient:
    return GatewayClient(f"http://127.0.0.1:{gwt.port}", **kw)


def _metric_value(text: str, name: str) -> float:
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    return 0.0


def test_replication_warm_hit_on_successor(tmp_path):
    """Acceptance core: after the owner replies, its cache record
    reaches ring successors; when the owner leaves, the re-submitted
    request is a warm replica hit on a successor."""
    shards = []
    for i in range(3):
        config = ServiceConfig(
            port=0, queue_capacity=16, max_in_flight=2,
            cache_dir=str(tmp_path / f"shard-{i}"),
            shard_id=f"shard-{i}",
        )
        shards.append(ServerThread(config).start())
    gwt = GatewayThread(GatewayConfig(
        port=0, probe_interval=0.2, breaker_reset=0.5, replicate=2,
    ))
    for i, shard in enumerate(shards):
        gwt.gateway.register_shard(f"shard-{i}", "127.0.0.1", shard.port)
    gwt.start()
    try:
        with gw_client(gwt) as client:
            resp = client.allocate(source=VARIANTS[0], tenant="acme")
            assert resp["ok"], resp
            owner = resp["gateway"]["shard"]
            # exact-tier replies carry fingerprints; replication is
            # asynchronous, so poll the gateway's counter
            deadline = time.monotonic() + 15.0
            replicated = 0.0
            while time.monotonic() < deadline:
                replicated = _metric_value(
                    client.metrics(), "repro_gateway_replicated_total")
                if replicated >= 1:
                    break
                time.sleep(0.1)
            assert replicated >= 1
            # the owner leaves; its keyspace remaps to the successors
            gwt.gateway.manager.leave(owner)
            again = client.allocate(source=VARIANTS[0], tenant="acme")
            assert again["ok"], again
            assert again["gateway"]["shard"] != owner
            assert all(fn.get("cache_hit")
                       for fn in again["result"]["functions"])
        stats = snapshot()
        assert stats.get("engine.cache_replica_hits", 0) >= 1
        assert stats.get("engine.cache_replicas_stored", 0) >= 1
        assert stats.get("gateway.replicated", 0) >= 1
    finally:
        gwt.stop()
        for shard in shards:
            try:
                shard.drain(timeout=60.0)
            except RuntimeError:
                pass


def test_replica_drop_fault_site_counts(tmp_path):
    """With replica_drop at 1.0 nothing replicates — but serving is
    unaffected (replication is strictly best-effort)."""
    shards = []
    for i in range(2):
        config = ServiceConfig(
            port=0, queue_capacity=16, max_in_flight=2,
            cache_dir=str(tmp_path / f"shard-{i}"),
            shard_id=f"shard-{i}",
        )
        shards.append(ServerThread(config).start())
    gwt = GatewayThread(GatewayConfig(
        port=0, probe_interval=0.2, replicate=1,
    ))
    for i, shard in enumerate(shards):
        gwt.gateway.register_shard(f"shard-{i}", "127.0.0.1", shard.port)
    gwt.start()
    set_injector("replica_drop=1.0")
    try:
        with gw_client(gwt) as client:
            resp = client.allocate(source=VARIANTS[1])
            assert resp["ok"], resp
            deadline = time.monotonic() + 10.0
            dropped = 0.0
            while time.monotonic() < deadline:
                dropped = snapshot().get("gateway.replica_dropped", 0)
                if dropped >= 1:
                    break
                time.sleep(0.1)
        assert dropped >= 1
        assert snapshot().get("gateway.replicated", 0) == 0
    finally:
        set_injector(None)
        gwt.stop()
        for shard in shards:
            try:
                shard.drain(timeout=60.0)
            except RuntimeError:
                pass


# -- shard supervision (subprocess fleet) ---------------------------------


def test_supervisor_respawns_sigkilled_shard(tmp_path):
    """Acceptance core: SIGKILL a spawned shard; the supervisor
    respawns it with its original id, port, and cache dir, and it
    rejoins the ring through the normal probe path."""
    fleet = LocalShardFleet(
        count=2, cache_root=str(tmp_path), time_limit=8.0, fast_slo_ms=0.0)
    fleet.start()
    gwt = GatewayThread(GatewayConfig(
        port=0, probe_interval=0.2, probe_timeout=5.0,
        breaker_threshold=1, breaker_reset=0.3,
    ))
    supervisor = ShardSupervisor(
        fleet, gwt.gateway.manager, restart_budget=3,
        poll_interval=0.1,
        policy=RetryPolicy(base_delay=0.01, max_delay=0.05),
    )
    gwt.gateway.supervisor = supervisor
    for shard in fleet.shards:
        gwt.gateway.register_shard(
            shard.shard_id, "127.0.0.1", shard.port)
    gwt.start()
    try:
        with gw_client(gwt, timeout=120.0) as client:
            assert client.allocate(source=VARIANTS[2])["ok"]
            victim = fleet.shards[0]
            old_pid = victim.process.pid
            old_port = victim.port
            assert fleet.kill(victim.shard_id)
            # one supervision pass reaps and respawns
            assert supervisor.check() == [victim.shard_id]
            fresh = fleet.shards[0]
            assert fresh.process.pid != old_pid
            assert fresh.port == old_port
            assert fresh.cache_dir == victim.cache_dir
            # the shard is (or becomes) ring-routable within the
            # probe budget
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                shard = gwt.gateway.manager.get(victim.shard_id)
                if shard is not None and shard.state == "up":
                    break
                time.sleep(0.1)
            assert gwt.gateway.manager.get(victim.shard_id).state == "up"
            assert victim.shard_id in gwt.gateway.manager.ring.nodes()
            # traffic still flows, and status reports the restart
            assert client.allocate(source=VARIANTS[3])["ok"]
            status = client.status()["result"]
            assert status["supervisor"]["restarts"] == {
                victim.shard_id: 1}
    finally:
        gwt.stop()
        fleet.stop()


def test_supervisor_budget_exhaustion_keeps_gateway_up(tmp_path):
    """A shard that cannot respawn is abandoned — off the ring, with
    the gateway and the rest of the fleet unharmed."""
    fleet = LocalShardFleet(
        count=1, cache_root=str(tmp_path / "fleet"), time_limit=8.0,
        fast_slo_ms=0.0)
    fleet.start()
    survivor = ServerThread(ServiceConfig(
        port=0, queue_capacity=16, max_in_flight=2,
        cache_dir=str(tmp_path / "live"), shard_id="live-0",
    )).start()
    gwt = GatewayThread(GatewayConfig(
        port=0, probe_interval=0.2, breaker_threshold=1,
        breaker_reset=0.3,
    ))
    supervisor = ShardSupervisor(
        fleet, gwt.gateway.manager, restart_budget=2,
        poll_interval=0.1,
        policy=RetryPolicy(base_delay=0.01, max_delay=0.02),
    )
    gwt.gateway.supervisor = supervisor
    for shard in fleet.shards:
        gwt.gateway.register_shard(
            shard.shard_id, "127.0.0.1", shard.port)
    gwt.gateway.register_shard("live-0", "127.0.0.1", survivor.port)
    gwt.start()
    set_injector("supervisor_respawn_fail=1.0")
    try:
        assert fleet.kill("shard-0")
        assert supervisor.check() == []
        snap = supervisor.snapshot()
        assert snap["exhausted"] == ["shard-0"]
        assert snap["restarts"] == {}
        # abandoned: administratively off the ring, prober ignores it
        assert gwt.gateway.manager.get("shard-0").state == "left"
        assert "shard-0" not in gwt.gateway.manager.ring.nodes()
        # a later pass does not retry an exhausted shard
        assert supervisor.check() == []
        # the gateway keeps serving on the survivor
        with gw_client(gwt) as client:
            assert client.healthz()["ok"]
            resp = client.allocate(source=VARIANTS[4])
            assert resp["ok"], resp
            assert resp["gateway"]["shard"] == "live-0"
        assert snapshot().get("gateway.shards_abandoned", 0) == 1
    finally:
        set_injector(None)
        gwt.stop()
        fleet.stop()
        try:
            survivor.drain(timeout=60.0)
        except RuntimeError:
            pass


# -- 503 + Retry-After when the whole fleet is gone -----------------------


def test_gateway_unavailable_sets_retry_after_header(tmp_path):
    gwt = GatewayThread(GatewayConfig(port=0, probe_interval=2.0))
    gwt.start()
    try:
        conn = http.client.HTTPConnection("127.0.0.1", gwt.port,
                                          timeout=30.0)
        body = json.dumps({"source": SOURCE})
        conn.request("POST", "/v1/allocate", body,
                     {"Content-Type": "application/json"})
        reply = conn.getresponse()
        payload = json.loads(reply.read())
        conn.close()
        assert reply.status == 503
        assert int(reply.headers["Retry-After"]) >= 1
        assert payload["error"]["code"] == "unavailable"
        assert payload["gateway"]["retry_after"] >= 1
    finally:
        gwt.stop()


def test_submit_gateway_unavailable_exit_code(tmp_path, capsys):
    program = tmp_path / "p.c"
    program.write_text(SOURCE)
    gwt = GatewayThread(GatewayConfig(port=0)).start()
    try:
        code = repro_main([
            "submit", str(program),
            "--gateway", f"http://127.0.0.1:{gwt.port}",
        ])
    finally:
        gwt.stop()
    assert code == EXIT_UNAVAILABLE
    assert "unavailable" in capsys.readouterr().err


# -- ring-membership checkpoint -------------------------------------------


def test_gateway_checkpoint_restore(tmp_path):
    state = tmp_path / "gateway-state.json"
    shard = ServerThread(ServiceConfig(
        port=0, queue_capacity=16, max_in_flight=2,
        cache_dir=str(tmp_path / "alpha"), shard_id="alpha",
    )).start()
    try:
        first = GatewayThread(GatewayConfig(
            port=0, probe_interval=0.2, state_file=str(state)))
        first.gateway.register_shard("alpha", "127.0.0.1", shard.port)
        # a shard that left stays left across the restart
        first.gateway.manager.add("ghost", "127.0.0.1", 1)
        first.gateway.manager.leave("ghost")
        first.start()
        first.stop()
        saved = json.loads(state.read_text(encoding="utf-8"))
        states = {s["id"]: s["state"] for s in saved["shards"]}
        assert states == {"alpha": "up", "ghost": "left"}
        # a fresh gateway with only the state file re-fronts the fleet
        second = GatewayThread(GatewayConfig(
            port=0, probe_interval=0.2, state_file=str(state)))
        second.start()
        try:
            assert second.gateway.manager.ring.nodes() == ["alpha"]
            assert second.gateway.manager.get("ghost").state == "left"
            with gw_client(second) as client:
                resp = client.allocate(source=VARIANTS[5])
                assert resp["ok"], resp
                assert resp["gateway"]["shard"] == "alpha"
        finally:
            second.stop()
        assert snapshot().get("gateway.checkpoint_restored", 0) >= 2
    finally:
        try:
            shard.drain(timeout=60.0)
        except RuntimeError:
            pass


def test_manager_add_adopts_new_address():
    """Re-registering a known shard id under a new port swaps in a
    fresh pool and breaker — a checkpoint restore must not pin a
    respawned fleet to its predecessor's dead ephemeral ports."""
    manager = ShardManager(GatewayConfig())
    shard = manager.add("shard-0", "127.0.0.1", 1111)
    old_pool = shard.pool
    shard.breaker.record_failure()
    assert manager.add("shard-0", "127.0.0.1", 2222) is shard
    assert (shard.host, shard.port) == ("127.0.0.1", 2222)
    assert shard.pool is not old_pool
    assert shard.pool.port == 2222
    assert shard.breaker.snapshot()["consecutive_failures"] == 0
    assert shard.state == "up"
    # same id + same address stays idempotent
    assert manager.add("shard-0", "127.0.0.1", 2222) is shard
    assert shard.pool.port == 2222
    # a left shard re-added on a new port rejoins the ring too
    manager.leave("shard-0")
    manager.add("shard-0", "127.0.0.1", 3333)
    assert shard.state == "up"
    assert shard.port == 3333
    assert "shard-0" in manager.ring.nodes()
    manager.stop()


def test_checkpoint_restore_then_respawned_fleet_is_reachable(
        tmp_path):
    """Regression: gateway restart with --state-file + a freshly
    spawned fleet.  The restore re-registers shard ids at their old
    (now dead) ports; the spawn's register_shard must displace them,
    or every request 503s against the stale ports."""
    state = tmp_path / "gateway-state.json"
    state.write_text(json.dumps({"shards": [
        {"id": "alpha", "host": "127.0.0.1", "port": 1,
         "state": "up"},
    ]}), encoding="utf-8")
    shard = ServerThread(ServiceConfig(
        port=0, queue_capacity=16, max_in_flight=2,
        cache_dir=str(tmp_path / "alpha"), shard_id="alpha",
    )).start()
    gwt = GatewayThread(GatewayConfig(
        port=0, probe_interval=0.2, state_file=str(state)))
    try:
        # restore happened at construction: stale port 1 is in place
        assert gwt.gateway.manager.get("alpha").port == 1
        # the spawned fleet re-registers on its live port
        gwt.gateway.register_shard("alpha", "127.0.0.1", shard.port)
        assert gwt.gateway.manager.get("alpha").port == shard.port
        gwt.start()
        with gw_client(gwt) as client:
            resp = client.allocate(source=VARIANTS[0])
            assert resp["ok"], resp
            assert resp["gateway"]["shard"] == "alpha"
    finally:
        gwt.stop()
        try:
            shard.drain(timeout=60.0)
        except RuntimeError:
            pass
