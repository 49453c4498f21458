"""Tests for the HTTP gateway + consistent-hash sharded tier
(repro.gateway) and the multi-tenant cache namespaces that ride on it.

The hash ring is exercised as a pure data structure; the serving
tests run real shards — in-process :class:`ServerThread` instances
for the happy paths, a ``python -m repro serve`` subprocess for the
kill-one-shard-mid-burst fail-over test (in the style of the
``test_faults.py`` SIGKILL tests).
"""

from __future__ import annotations

import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter

import pytest

from repro.__main__ import EXIT_CONNECT, main as repro_main
from repro.engine import NAMESPACE_DIR, ResultCache, namespace_dirname
from repro.engine.cache import CacheRecord
from repro.gateway import (
    ConsistentHashRing,
    GatewayClient,
    GatewayConfig,
    GatewayThread,
    routing_fingerprint,
)
from repro.obs import reset_stats, snapshot
from repro.service import ServerThread, ServiceClient, ServiceConfig

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

#: cheap distinct programs for burst workloads
VARIANTS = [
    f"int f{i}(int a) {{ return a + {i}; }}" for i in range(8)
]


@pytest.fixture(autouse=True)
def stats():
    reset_stats()
    yield
    reset_stats()


# -- the hash ring as a data structure ------------------------------------


def test_ring_deterministic_across_insertion_order():
    a = ConsistentHashRing(["s0", "s1", "s2"])
    b = ConsistentHashRing(["s2", "s0", "s1"])
    keys = [f"key-{i}" for i in range(200)]
    assert [a.owner(k) for k in keys] == [b.owner(k) for k in keys]


def test_ring_balance_within_tolerance():
    ring = ConsistentHashRing(["s0", "s1", "s2"])
    keys = [routing_fingerprint({"source": f"fn{i}"})
            for i in range(1000)]
    load = Counter(ring.owner(k) for k in keys)
    assert set(load) == {"s0", "s1", "s2"}
    fair = 1000 / 3
    for shard, count in load.items():
        assert 0.5 * fair <= count <= 1.7 * fair, (shard, count)


def test_ring_minimal_remap_on_leave():
    ring = ConsistentHashRing(["s0", "s1", "s2"])
    keys = [f"key-{i}" for i in range(1000)]
    before = {k: ring.owner(k) for k in keys}
    ring.remove("s1")
    after = {k: ring.owner(k) for k in keys}
    for k in keys:
        if before[k] != "s1":
            # only keys owned by the leaver may move
            assert after[k] == before[k], k
        else:
            assert after[k] in ("s0", "s2")


def test_ring_minimal_remap_on_join():
    ring = ConsistentHashRing(["s0", "s1"])
    keys = [f"key-{i}" for i in range(1000)]
    before = {k: ring.owner(k) for k in keys}
    ring.add("s2")
    after = {k: ring.owner(k) for k in keys}
    moved = [k for k in keys if after[k] != before[k]]
    # every moved key moved *to* the joiner, and roughly 1/3 moved
    assert all(after[k] == "s2" for k in moved)
    assert 100 <= len(moved) <= 600


def test_ring_preference_distinct_and_owner_first():
    ring = ConsistentHashRing(["s0", "s1", "s2", "s3"])
    for i in range(50):
        key = f"key-{i}"
        pref = ring.preference(key)
        assert pref[0] == ring.owner(key)
        assert sorted(pref) == ["s0", "s1", "s2", "s3"]
    assert ring.preference("x", count=2).__len__() == 2
    assert ConsistentHashRing().preference("x") == []
    assert ConsistentHashRing().owner("x") is None


def test_routing_fingerprint_stable_and_tenant_blind():
    body = {"source": "int f(){}", "target": "x86",
            "tenant": "acme", "deadline": 5.0}
    again = {"tenant": "zeta", "target": "x86",
             "source": "int f(){}"}
    assert routing_fingerprint(body) == routing_fingerprint(again)
    assert routing_fingerprint(body) != routing_fingerprint(
        {"source": "int g(){}", "target": "x86"})


# -- multi-tenant cache namespaces ----------------------------------------


def _record(fp: str) -> CacheRecord:
    return CacheRecord(fingerprint=fp, function="f", status="optimal")


def test_cache_namespace_isolation(tmp_path):
    root = ResultCache(tmp_path)
    acme = ResultCache(tmp_path, namespace="acme")
    zeta = ResultCache(tmp_path, namespace="zeta")
    fp = "ab" + "0" * 62
    acme.put(_record(fp))
    assert acme.get(fp) is not None
    assert zeta.get(fp) is None
    assert root.get(fp) is None
    assert acme.root == (
        tmp_path / NAMESPACE_DIR / namespace_dirname("acme"))
    # the root cache's census never sees namespaced records
    assert len(root) == 0


def test_cache_namespace_lru_and_evictions(tmp_path):
    ns = ResultCache(tmp_path, max_entries=3, namespace="acme")
    fps = [f"{i:02x}" + "1" * 62 for i in range(5)]
    for i, fp in enumerate(fps):
        ns.put(_record(fp))
        # age each record below anything written later so the LRU
        # prune always evicts the earliest puts
        stamp = time.time() - 100 + i
        os.utime(ns.path_for(fp), (stamp, stamp))
    assert len(ns) == 3
    assert ns.evictions == 2
    # oldest two gone, newest three retained
    assert ns.get(fps[0]) is None and ns.get(fps[1]) is None
    assert all(ns.get(fp) is not None for fp in fps[2:])


def test_namespace_dirname_safe_and_collision_free():
    assert namespace_dirname("acme-prod") == "acme-prod"
    hostile = namespace_dirname("../../etc")
    assert "/" not in hostile and hostile != "../../etc"
    assert namespace_dirname("a/b") != namespace_dirname("a_b")


def test_stats_verb_surfaces_namespaces(tmp_path):
    config = ServiceConfig(
        port=0, queue_capacity=8, max_in_flight=2,
        cache_dir=str(tmp_path / "cache"), shard_id="shard-x",
    )
    handle = ServerThread(config).start()
    try:
        with ServiceClient("127.0.0.1", handle.port) as client:
            client.check(client.allocate(
                source=OTHER_SOURCE, tenant="acme"))
            client.check(client.allocate(source=OTHER_SOURCE))
            stats = client.check(client.stats())["result"]
            status = client.check(client.status())["result"]
        assert status["shard_id"] == "shard-x"
        assert stats["shard_id"] == "shard-x"
        spaces = stats["cache"]["namespaces"]
        assert "acme" in spaces
        assert spaces["acme"]["entries"] >= 1
        assert "evictions" in spaces["acme"]
        # the anonymous request stayed in the shared root tree
        assert stats["cache"]["entries"] >= 1
    finally:
        handle.drain(timeout=60.0)


# -- gateway end-to-end ---------------------------------------------------


@pytest.fixture()
def fleet(tmp_path):
    """3 in-process shards behind an in-process gateway."""
    shards = []
    for i in range(3):
        config = ServiceConfig(
            port=0, queue_capacity=16, max_in_flight=2,
            cache_dir=str(tmp_path / f"shard-{i}"),
            shard_id=f"shard-{i}",
        )
        shards.append(ServerThread(config).start())
    gwt = GatewayThread(GatewayConfig(port=0, probe_interval=0.2,
                                      breaker_reset=0.5))
    for i, shard in enumerate(shards):
        gwt.gateway.register_shard(
            f"shard-{i}", "127.0.0.1", shard.port)
    gwt.start()
    yield gwt, shards
    gwt.stop()
    for shard in shards:
        try:
            shard.drain(timeout=60.0)
        except RuntimeError:
            pass


def gw_client(gwt: GatewayThread, **kw) -> GatewayClient:
    return GatewayClient(f"http://127.0.0.1:{gwt.port}", **kw)


def test_gateway_affinity_and_cache_hits(fleet):
    """Acceptance: repeated-function traffic lands on one warm shard
    and replays from its cache (hit rate > 0 on repeats)."""
    gwt, _ = fleet
    with gw_client(gwt) as client:
        first = {}
        for i, src in enumerate(VARIANTS[:4]):
            resp = client.allocate(source=src, tenant=f"t{i % 2}")
            assert resp["ok"], resp
            assert not any(f.get("cache_hit")
                           for f in resp["result"]["functions"])
            first[src] = resp["gateway"]["shard"]
        # ≥2 distinct shards should own a 4-program workload
        assert len(set(first.values())) >= 2
        hits = 0
        for i, src in enumerate(VARIANTS[:4]):
            resp = client.allocate(source=src, tenant=f"t{i % 2}")
            assert resp["ok"], resp
            assert resp["gateway"]["shard"] == first[src]
            hits += sum(bool(f.get("cache_hit"))
                        for f in resp["result"]["functions"])
        assert hits > 0
        # and the routing metrics recorded the traffic
        text = client.metrics()
        assert "repro_gateway_route" in text
        assert "repro_gateway_shard_latency" in text
        assert 'repro_gateway_shard_state{shard="shard-0"}' in text


def test_gateway_status_shards_healthz(fleet):
    gwt, _ = fleet
    with gw_client(gwt) as client:
        hz = client.healthz()
        assert hz["ok"] and hz["shards_up"]
        status = client.status()["result"]
        assert status["shards_up"] == 3
        assert status["ring"]["nodes"] == [
            "shard-0", "shard-1", "shard-2"]
        snaps = client.shards()["result"]["shards"]
        assert [s["state"] for s in snaps] == ["up"] * 3
        assert all(s["breaker"]["state"] == "closed" for s in snaps)


def test_gateway_admin_remove_and_rejoin(fleet):
    gwt, _ = fleet
    with gw_client(gwt) as client:
        removed = client.remove_shard("shard-1")
        assert removed["ok"]
        assert removed["result"]["ring"] == ["shard-0", "shard-2"]
        # traffic still flows, remapped to the remaining shards
        resp = client.allocate(source=OTHER_SOURCE)
        assert resp["ok"]
        assert resp["gateway"]["shard"] in ("shard-0", "shard-2")
        # a left shard 404s on double-remove
        again = client.remove_shard("shard-ghost")
        assert not again["ok"]
        # re-join through POST /v1/shards
        shard1 = gwt.gateway.manager.get("shard-1")
        back = client.add_shard("shard-1", "127.0.0.1", shard1.port)
        assert back["ok"]
        assert "shard-1" in back["result"]["ring"]


def test_gateway_upgrade_ring_affinity(tmp_path):
    """GET /v1/upgrade reuses the allocate's ring walk: a known ref
    goes straight to the owning shard; only unknown refs fan out."""
    shards = []
    for i in range(3):
        config = ServiceConfig(
            port=0, queue_capacity=16, max_in_flight=2,
            cache_dir=str(tmp_path / f"shard-{i}"),
            shard_id=f"shard-{i}", fast_slo_ms=200.0,
        )
        shards.append(ServerThread(config).start())
    gwt = GatewayThread(GatewayConfig(port=0, probe_interval=0.2))
    for i, shard in enumerate(shards):
        gwt.gateway.register_shard(
            f"shard-{i}", "127.0.0.1", shard.port)
    gwt.start()
    try:
        with gw_client(gwt) as client:
            resp = client.allocate(
                source=OTHER_SOURCE, trace_id="up-affinity-1"
            )
            assert resp["ok"], resp
            owner = resp["gateway"]["shard"]
            assert resp["result"].get("upgrade"), (
                "fast tier did not queue a background upgrade"
            )
            # known ref: served by the owning shard, no fan-out
            up = client.upgrade("up-affinity-1")
            assert up["ok"], up
            assert up["result"]["shard"] == owner
            assert up["result"]["affinity"] is True
            # unknown ref: falls back to the full fan-out and misses
            missing = client.upgrade("no-such-request")
            assert not missing["ok"]
            assert missing["result"]["affinity"] is False
            # a wiped key store (gateway restart) still finds the
            # record — by asking every shard instead of one
            gwt.gateway._upgrade_keys.clear()
            again = client.upgrade("up-affinity-1")
            assert again["ok"], again
            assert again["result"]["shard"] == owner
            assert again["result"]["affinity"] is False
            text = client.metrics()
            assert "repro_gateway_upgrade_affinity_total 1" in text
            assert "repro_gateway_upgrade_fanout_total 2" in text
    finally:
        gwt.stop()
        for shard in shards:
            try:
                shard.drain(timeout=60.0)
            except RuntimeError:
                pass


def test_gateway_trace_stitches_shard_tree(fleet):
    """Satellite: one end-to-end span tree across the gateway hop."""
    gwt, _ = fleet
    with gw_client(gwt) as client:
        resp = client.allocate(source=OTHER_SOURCE, trace=True)
        assert resp["ok"]
        trace_id = resp["trace_id"]
        tree = client.trace(trace_id)["result"]["trace"]
    assert tree["meta"]["trace_id"] == trace_id
    stages = [c["name"] for c in tree["children"]]
    assert stages == ["admission", "route", "proxy", "reply"]
    proxy = tree["children"][stages.index("proxy")]
    # the shard's own lifecycle tree hangs under the proxy span
    shard_roots = [c["name"] for c in proxy.get("children", [])]
    assert "request" in shard_roots
    shard_tree = proxy["children"][shard_roots.index("request")]
    shard_stages = {c["name"] for c in shard_tree["children"]}
    assert "solve" in shard_stages or "reply" in shard_stages


def test_gateway_no_shards_is_503(tmp_path):
    gwt = GatewayThread(GatewayConfig(port=0)).start()
    try:
        with gw_client(gwt) as client:
            hz = client.healthz()
            assert not hz["ok"]
            resp = client.allocate(source=OTHER_SOURCE)
            assert not resp["ok"]
            assert resp["error"]["code"] == "unavailable"
            assert resp["gateway"]["shard"] is None
            assert resp["gateway"]["retry_after"] >= 1
    finally:
        gwt.stop()


def test_gateway_keepalive_replies_do_not_stall():
    """A reply whose headers and body leave in two sends, without
    TCP_NODELAY, waits ~40 ms for the client's delayed ACK (Nagle).
    Each gateway reply must leave in one unstalled write: GETs and
    the 503 path with its Retry-After header alike."""
    gwt = GatewayThread(GatewayConfig(port=0)).start()
    try:
        with gw_client(gwt) as client:
            for name, call in (
                ("status", client.status),
                ("allocate", lambda: client.allocate(
                    source=OTHER_SOURCE)),
            ):
                samples = []
                for _ in range(30):
                    start = time.perf_counter()
                    call()
                    samples.append(time.perf_counter() - start)
                median_ms = statistics.median(samples) * 1e3
                assert median_ms < 10, (name, median_ms)
    finally:
        gwt.stop()


def test_gateway_answers_expect_100_continue():
    """The interim 100 Continue is sent before the body is read, not
    held in the reply buffer until the final response."""
    gwt = GatewayThread(GatewayConfig(port=0)).start()
    body = json.dumps({"source": OTHER_SOURCE}).encode("utf-8")
    try:
        with socket.create_connection(("127.0.0.1", gwt.port),
                                      timeout=5.0) as sock:
            sock.sendall(
                b"POST /v1/allocate HTTP/1.1\r\nHost: gateway\r\n"
                b"Expect: 100-continue\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body))
            assert sock.recv(64).startswith(b"HTTP/1.1 100")
            sock.sendall(body)
            assert sock.recv(64).startswith(b"HTTP/1.1 503")
    finally:
        gwt.stop()


@pytest.mark.parametrize("length", [b"abc", b"-1"])
def test_gateway_refuses_a_bad_content_length(length):
    """A length that is no non-negative integer gets a 400 JSON reply,
    not a dropped socket or a read that waits for the client to hang
    up."""
    gwt = GatewayThread(GatewayConfig(port=0)).start()
    try:
        with socket.create_connection(("127.0.0.1", gwt.port),
                                      timeout=5.0) as sock:
            sock.sendall(
                b"POST /v1/allocate HTTP/1.1\r\nHost: gateway\r\n"
                b"Content-Length: " + length + b"\r\n\r\n{}")
            reply = sock.makefile("rb").read()
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400"), reply
        assert json.loads(body)["error"]["code"] == "bad_request"
        assert snapshot()["gateway.rejected"] == 1
    finally:
        gwt.stop()


class _StubHTTP:
    """A bare HTTP/1.1 server that counts requests by method.  It
    answers each after ``delay`` seconds and, with ``one_shot``, closes
    the connection after the reply without saying so, as a server does
    with an idle keep-alive connection."""

    def __init__(self, delay: float = 0.0, one_shot: bool = False):
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        seen = self.seen = Counter()

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, fmt, *args):
                pass

            def _answer(self):
                seen[self.command] += 1
                self.rfile.read(int(self.headers.get("Content-Length")
                                    or 0))
                time.sleep(delay)
                data = b'{"ok": true}'
                self.send_response(200)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)
                self.close_connection = one_shot

            do_GET = do_POST = _answer

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"
        threading.Thread(target=self.server.serve_forever,
                         daemon=True).start()

    def __enter__(self) -> "_StubHTTP":
        return self

    def __exit__(self, *exc) -> None:
        self.server.shutdown()
        self.server.server_close()


def test_gateway_client_does_not_resend_after_a_read_timeout():
    """A read timeout is no closed connection: the server may be
    working on the request, so sending it again could allocate twice
    and doubles the caller's wait."""
    timeout = 0.5
    with _StubHTTP(delay=1.5) as stub:
        with GatewayClient(stub.url, timeout=timeout) as client:
            start = time.perf_counter()
            with pytest.raises(TimeoutError):
                client.allocate(source=OTHER_SOURCE)
            elapsed = time.perf_counter() - start
        assert stub.seen["POST"] == 1
        assert elapsed < 2 * timeout


def test_gateway_client_reopens_a_closed_keepalive_connection():
    """Requests and /metrics alike survive a server that closed the
    kept-alive connection between two calls, and nothing runs
    twice."""
    with _StubHTTP(one_shot=True) as stub:
        with GatewayClient(stub.url, timeout=5.0) as client:
            for _ in range(2):
                assert client.status()["ok"]
                assert client.metrics() == '{"ok": true}'
        assert stub.seen["GET"] == 4


def test_gateway_breaker_down_and_half_open_revival(tmp_path):
    """A shard that stops answering probes goes down (off the ring);
    once it answers again the breaker's half-open probe revives it."""
    flaky = _FakeShard()
    flaky.start()
    gwt = GatewayThread(GatewayConfig(
        port=0, probe_interval=0.1, probe_timeout=1.0,
        breaker_threshold=2, breaker_reset=0.3,
    ))
    gwt.gateway.manager.add("flaky", "127.0.0.1", flaky.port)
    gwt.start()
    try:
        manager = gwt.gateway.manager
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            shard = manager.get("flaky")
            if shard.state == "up" and shard.last_ok:
                break
            time.sleep(0.05)
        assert manager.get("flaky").state == "up"

        flaky.go_dark()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if manager.get("flaky").state == "down":
                break
            time.sleep(0.05)
        assert manager.get("flaky").state == "down"
        assert "flaky" not in manager.ring.nodes()

        flaky.relight()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if manager.get("flaky").state == "up":
                break
            time.sleep(0.05)
        assert manager.get("flaky").state == "up"
        assert "flaky" in manager.ring.nodes()
    finally:
        gwt.stop()
        flaky.stop()


class _FakeShard:
    """A minimal NDJSON shard: answers health/status, can go dark."""

    def __init__(self) -> None:
        self._listener = socket.socket()
        self._listener.setsockopt(
            socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._dark = threading.Event()
        self._stopped = threading.Event()
        self._thread = threading.Thread(
            target=self._serve, daemon=True)

    def start(self) -> None:
        self._listener.listen(8)
        self._thread.start()

    def go_dark(self) -> None:
        self._dark.set()

    def relight(self) -> None:
        self._dark.clear()

    def stop(self) -> None:
        self._stopped.set()
        self._listener.close()
        self._thread.join(timeout=2.0)

    def _serve(self) -> None:
        while not self._stopped.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            with conn:
                if self._dark.is_set():
                    continue  # slam the door: connection, no reply
                try:
                    handle = conn.makefile("rwb")
                    line = handle.readline()
                    if not line:
                        continue
                    message = json.loads(line)
                    reply = {
                        "id": message.get("id"), "trace_id": "",
                        "verb": message.get("verb"), "ok": True,
                        "result": {"state": "serving",
                                   "shard_id": "flaky"},
                    }
                    handle.write(json.dumps(reply).encode() + b"\n")
                    handle.flush()
                except (OSError, ValueError):
                    continue


# -- kill-one-shard-mid-burst fail-over (subprocess victim) ---------------


def _spawn_serve(tmp_path, shard_id: str):
    """A real `repro serve` subprocess; returns (process, port)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src"), env.get("PYTHONPATH", "")])
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--shard-id", shard_id, "--time-limit", "8",
         "--cache", str(tmp_path / shard_id)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, env=env,
    )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if "listening on" in line:
            addr = line.split("listening on ", 1)[1].split()[0]
            return process, int(addr.rsplit(":", 1)[1])
        if process.poll() is not None:
            raise RuntimeError(f"{shard_id} died during startup")
    process.kill()
    raise RuntimeError(f"{shard_id} never printed its banner")


def test_gateway_failover_on_shard_sigkill(tmp_path):
    """Acceptance: killing one shard mid-burst loses zero accepted
    requests — survivors absorb the victim's keyspace."""
    victim_proc, victim_port = _spawn_serve(tmp_path, "victim")
    survivors = []
    for i in range(2):
        config = ServiceConfig(
            port=0, queue_capacity=32, max_in_flight=2,
            cache_dir=str(tmp_path / f"live-{i}"),
            shard_id=f"live-{i}",
        )
        survivors.append(ServerThread(config).start())
    gwt = GatewayThread(GatewayConfig(
        port=0, probe_interval=0.2,
        breaker_threshold=1, breaker_reset=30.0,
    ))
    gwt.gateway.manager.add("victim", "127.0.0.1", victim_port)
    for i, shard in enumerate(survivors):
        gwt.gateway.manager.add(
            f"live-{i}", "127.0.0.1", shard.port)
    gwt.start()

    results: dict[int, dict] = {}
    errors: list[Exception] = []

    def submit(idx: int) -> None:
        try:
            with gw_client(gwt, timeout=120.0) as client:
                results[idx] = client.allocate(
                    source=VARIANTS[idx % len(VARIANTS)],
                    tenant=f"tenant-{idx % 3}",
                )
        except Exception as exc:  # pragma: no cover - fail loudly
            errors.append(exc)

    try:
        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(12)]
        for i, thread in enumerate(threads):
            thread.start()
            if i == 4:
                os.kill(victim_proc.pid, signal.SIGKILL)
        for thread in threads:
            thread.join(timeout=120.0)
        assert not errors, errors
        assert len(results) == 12
        # zero dropped accepted requests: every submit got a verdict,
        # and every verdict is a success (fail-over retried the
        # victim's keys on ring successors)
        for idx, resp in results.items():
            assert resp["ok"], (idx, resp)
            assert resp["gateway"]["shard"] is not None
        routed = {r["gateway"]["shard"] for r in results.values()}
        assert routed <= {"victim", "live-0", "live-1"}
        assert routed & {"live-0", "live-1"}
    finally:
        gwt.stop()
        victim_proc.poll() or victim_proc.kill()
        victim_proc.wait(timeout=10)
        for shard in survivors:
            try:
                shard.drain(timeout=60.0)
            except RuntimeError:
                pass


# -- submit CLI: clean connection errors + gateway transport --------------


def _free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def test_submit_connection_refused_exit_code(tmp_path, capsys):
    program = tmp_path / "p.c"
    program.write_text(OTHER_SOURCE)
    code = repro_main([
        "submit", str(program), "--port", str(_free_port()),
    ])
    assert code == EXIT_CONNECT
    err = capsys.readouterr().err
    assert "cannot connect" in err
    assert "Traceback" not in err


def test_submit_midstream_disconnect_exit_code(tmp_path, capsys):
    """A server that accepts and hangs up mid-request must surface as
    the clean connection exit code, not a traceback."""
    listener = socket.socket()
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]

    def hang_up():
        conn, _ = listener.accept()
        conn.recv(64)
        conn.close()

    thread = threading.Thread(target=hang_up, daemon=True)
    thread.start()
    program = tmp_path / "p.c"
    program.write_text(OTHER_SOURCE)
    try:
        code = repro_main([
            "submit", str(program), "--port", str(port),
        ])
    finally:
        listener.close()
    assert code == EXIT_CONNECT
    err = capsys.readouterr().err
    assert "lost connection" in err
    assert "Traceback" not in err


def test_submit_gateway_transport(fleet, tmp_path, capsys):
    gwt, _ = fleet
    program = tmp_path / "p.c"
    program.write_text(OTHER_SOURCE)
    url = f"http://127.0.0.1:{gwt.port}"
    assert repro_main([
        "submit", str(program), "--gateway", url,
        "--tenant", "acme", "--json",
    ]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["ok"]
    assert payload["gateway"]["shard"].startswith("shard-")
    # the shards verb works over the gateway (and only there)
    assert repro_main([
        "submit", "--verb", "shards", "--gateway", url, "--json",
    ]) == 0
    assert repro_main(["submit", "--verb", "shards"]) == 2


def test_submit_gateway_unreachable_exit_code(tmp_path, capsys):
    program = tmp_path / "p.c"
    program.write_text(OTHER_SOURCE)
    code = repro_main([
        "submit", str(program),
        "--gateway", f"http://127.0.0.1:{_free_port()}",
    ])
    assert code == EXIT_CONNECT
    err = capsys.readouterr().err
    assert "cannot reach gateway" in err
    assert "Traceback" not in err
