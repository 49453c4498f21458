#!/usr/bin/env python3
"""CI chaos smoke for the self-healing fleet.

Drives the real CLI path end to end under an aggressive fault plan::

    REPRO_FAULTS=... python -m repro gateway --spawn 3 --replicate 2
        --state-file ... --restart-budget 3 --fast-slo-ms 150

then SIGKILLs a shard mid-burst and asserts the acceptance
properties of the self-healing layer:

* **zero dropped requests** — every submit across every phase gets a
  terminal, successful response (ring fail-over + supervisor absorb
  the kill);
* **successor replication works** — the gateway pushed solved records
  to ring successors (``repro_gateway_replicated_total``), and while
  the victim is down its re-submitted keys are served *warm* from a
  successor's replicated cache (``engine.cache_replica_hits``);
* **the supervisor respawns the victim** — same shard id and port,
  back ``up`` on the ring within the probe budget, after the
  injected ``supervisor_respawn_fail`` attempts were retried;
* **the upgrade journal survives the crash** — the victim died with
  a queued background upgrade; the respawned process replays its
  journal, recovers the upgrade, and a re-submit of the same program
  answers ``tier: "ip"`` with ``optimality_gap == 0``.

Writes the gateway's + every shard's Prometheus snapshot to
``fleet-metrics.txt`` (or the METRICS argument) for upload as a CI
artifact.  ``--seed N`` seeds the fault plan (default 11), so runs
over several seeds sweep different fault draws::

    python tools/chaos_fleet_smoke.py [METRICS] [--seed N]

Exits non-zero on any violated assertion.
"""

import argparse
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
)

from repro.gateway import GatewayClient  # noqa: E402
from repro.service import ServiceClient  # noqa: E402

#: aggressive-but-bounded plan: worker crashes exercise solve retry
#: waves, replica_drop exercises best-effort replication accounting,
#: and the respawn-fail site forces the supervisor through two failed
#: attempts (and their backoff) before the third succeeds.
FAULT_PLAN = (
    "seed={seed};worker_crash=0.2:2;replica_drop=0.3:2;"
    "supervisor_respawn_fail=1.0:2"
)

WARM = [
    f"int warm{i}(int a) {{ return a * {i + 2} + 1; }}"
    for i in range(16)
]
BURST = [
    f"int burst{i}(int a, int b) {{ return a * {i + 3} - b; }}"
    for i in range(6)
]
#: the journal-recovery target: fast-tier reply, background IP solve
#: still in flight when its shard is killed moments later
HEAVY = """
int chaos_heavy(int a, int b, int c) {
    int d = a * 3 + b;
    int e = b * 5 - c;
    int f = d * 2 + e;
    if (f > c) { d = d + e; } else { e = e - d; }
    return d * f + e + a * b + c;
}
"""
HEAVY_TRACE = "chaos-heavy-1"

SPAWN_RE = re.compile(r"spawned (\S+) pid=(\d+) port=(\d+)")
BANNER_RE = re.compile(r"repro gateway listening on \S+:(\d+)")


def fail(msg: str) -> None:
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def metric_value(text: str, name: str) -> float:
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name + " ") or line.startswith(name + "{"):
            total += float(line.rsplit(None, 1)[-1])
    return total


def shard_metrics(port: int) -> str:
    with ServiceClient("127.0.0.1", port, timeout=30.0) as client:
        return client.check(client.metrics())["result"]["text"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("metrics", nargs="?", default="fleet-metrics.txt")
    parser.add_argument("--seed", type=int, default=11,
                        help="fault-plan seed (default: 11)")
    cli = parser.parse_args()
    metrics_path = cli.metrics
    tmp = tempfile.mkdtemp(prefix="chaos-fleet-smoke-")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(os.path.join(
            os.path.dirname(__file__), os.pardir, "src")),
         env.get("PYTHONPATH", "")])
    env["REPRO_FAULTS"] = FAULT_PLAN.format(seed=cli.seed)
    gateway = subprocess.Popen(
        [sys.executable, "-m", "repro", "gateway",
         "--port", "0", "--spawn", "3",
         "--spawn-cache", os.path.join(tmp, "caches"),
         "--replicate", "2",
         "--state-file", os.path.join(tmp, "gateway-state.json"),
         "--restart-budget", "3",
         "--breaker-threshold", "1",
         "--probe-interval", "0.5",
         "--fast-slo-ms", "150",
         "--time-limit", "16"],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    shard_pids: dict[str, int] = {}
    shard_ports: dict[str, int] = {}
    port = None
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline and port is None:
        line = gateway.stdout.readline()
        if not line:
            if gateway.poll() is not None:
                fail(f"gateway exited {gateway.returncode} "
                     "during startup")
            time.sleep(0.05)
            continue
        print(f"[gateway] {line.rstrip()}")
        spawned = SPAWN_RE.search(line)
        if spawned:
            shard_pids[spawned.group(1)] = int(spawned.group(2))
            shard_ports[spawned.group(1)] = int(spawned.group(3))
        banner = BANNER_RE.search(line)
        if banner:
            port = int(banner.group(1))
    if port is None:
        gateway.kill()
        fail("gateway never printed its banner")
    if len(shard_pids) != 3:
        fail(f"expected 3 spawned shards, saw {sorted(shard_pids)}")

    dropped: list = []
    try:
        with GatewayClient(f"http://127.0.0.1:{port}",
                           timeout=120.0) as client:
            # -- phase 1: warm the fleet.  Fast-tier replies carry no
            # cache fingerprints (nothing is cached until the
            # background upgrade lands), so replication is driven by
            # the *second* round: once every upgrade is done, warm
            # re-submits reply tier=ip with fingerprints and the
            # gateway pushes those records to 2 ring successors.
            routed: dict[int, str] = {}
            for i, source in enumerate(WARM):
                resp = client.allocate(
                    source=source, trace_id=f"chaos-warm-{i}")
                if not resp.get("ok"):
                    dropped.append(("warm", i, resp))
                else:
                    routed[i] = resp["gateway"]["shard"]
            if dropped:
                fail(f"dropped warm requests: {dropped}")
            deadline = time.monotonic() + 180.0
            waiting = {f"chaos-warm-{i}" for i in range(len(WARM))}
            while waiting and time.monotonic() < deadline:
                for ref in sorted(waiting):
                    record = (client.upgrade(ref)
                              .get("result", {}).get("upgrade"))
                    if record and record.get("state") in (
                            "done", "failed", "dropped"):
                        waiting.discard(ref)
                time.sleep(0.25)
            if waiting:
                fail(f"warm upgrades never settled: {sorted(waiting)}")
            for i, source in enumerate(WARM):
                resp = client.allocate(source=source)
                if not resp.get("ok"):
                    dropped.append(("rewarm", i, resp))
            if dropped:
                fail(f"dropped re-warm requests: {dropped}")
            # every (fingerprint, successor) pair minus the <=2 the
            # replica_drop site is armed to eat
            want = 2 * len(WARM) - 2
            deadline = time.monotonic() + 120.0
            replicated = 0.0
            while time.monotonic() < deadline:
                replicated = metric_value(
                    client.metrics(), "repro_gateway_replicated_total")
                if replicated >= want:
                    break
                time.sleep(0.5)
            if replicated < 1:
                fail("gateway never replicated a record "
                     f"(repro_gateway_replicated_total={replicated})")
            print(f"replicated pushes: {replicated:g} "
                  f"(wanted >= {want})")

            # -- phase 2: SIGKILL mid-burst.  The heavy program's
            # fast-tier reply queues a background upgrade; its shard
            # dies milliseconds later, so the journal holds a queued
            # entry with no terminal event.
            for i, source in enumerate(BURST[:2]):
                resp = client.allocate(source=source)
                if not resp.get("ok"):
                    dropped.append(("burst", i, resp))
            resp = client.allocate(source=HEAVY, trace_id=HEAVY_TRACE)
            if not resp.get("ok"):
                fail(f"heavy allocate failed: {resp}")
            if resp["result"].get("tier") == "ip":
                fail("heavy program solved inside the fast SLO; "
                     "no upgrade to journal — raise its size")
            victim = resp["gateway"]["shard"]
            print(f"killing {victim} (pid {shard_pids[victim]}) "
                  "mid-burst, upgrade in flight")
            os.kill(shard_pids[victim], signal.SIGKILL)
            for i, source in enumerate(BURST[2:], start=2):
                resp = client.allocate(source=source)
                if not resp.get("ok"):
                    dropped.append(("burst", i, resp))
            if dropped:
                fail(f"dropped burst requests: {dropped}")

            # -- phase 3: while the victim is down (the injected
            # respawn failures hold it down through two backoff
            # rounds), its warm keys must fail over to successors and
            # hit the *replicated* cache
            victim_keys = [i for i, s in routed.items() if s == victim]
            if not victim_keys:
                fail(f"no warm program routed to victim {victim}; "
                     "cannot exercise replica fail-over")
            cold = []
            for i in victim_keys:
                resp = client.allocate(source=WARM[i])
                if not resp.get("ok"):
                    dropped.append(("failover", i, resp))
                    continue
                hit = all(bool(fn.get("cache_hit"))
                          for fn in resp["result"]["functions"])
                if not hit:
                    cold.append(i)
                print(f"failover warm{i}: {victim} -> "
                      f"{resp['gateway']['shard']} cache_hit={hit}")
            if dropped:
                fail(f"dropped fail-over requests: {dropped}")
            if len(cold) == len(victim_keys):
                fail("no fail-over request hit a replicated record")
            replica_hits = sum(
                metric_value(shard_metrics(p),
                             "repro_engine_cache_replica_hits_total")
                for sid, p in shard_ports.items() if sid != victim)
            if replica_hits < 1:
                fail("no shard served a replica-warmed cache hit "
                     f"(replica_hits={replica_hits})")
            print(f"replica-warmed cache hits: {replica_hits:g}")

            # -- phase 4: the supervisor respawns the victim (same id,
            # same port) and it rejoins the ring via half-open probe
            deadline = time.monotonic() + 90.0
            state = None
            while time.monotonic() < deadline:
                snaps = client.shards()["result"]["shards"]
                state = {s["id"]: s["state"] for s in snaps}
                if state.get(victim) == "up":
                    break
                time.sleep(0.5)
            if state.get(victim) != "up":
                fail(f"victim {victim} never rejoined: {state}")
            sup = client.status()["result"].get("supervisor") or {}
            if sup.get("restarts", {}).get(victim, 0) < 1:
                fail(f"supervisor records no respawn: {sup}")
            if sup.get("attempts", {}).get(victim, 0) < 3:
                fail("injected respawn failures were not retried: "
                     f"{sup}")
            print(f"supervisor after kill: {sup}")

            # -- phase 5: the respawned victim replayed its journal
            # and the recovered upgrade completes at the exact tier
            with ServiceClient("127.0.0.1", shard_ports[victim],
                               timeout=60.0) as shard:
                stats = shard.check(shard.stats())["result"]
                journal = stats["tiers"]["upgrades"]["journal"]
                if journal.get("recovered", 0) < 1:
                    fail(f"victim replayed no journal entry: {journal}")
                print(f"victim journal after respawn: {journal}")
            record = None
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                record = (client.upgrade(HEAVY_TRACE)
                          .get("result", {}).get("upgrade"))
                if record and record.get("state") in (
                        "done", "failed", "dropped"):
                    break
                time.sleep(0.5)
            if not record or record.get("state") != "done":
                fail(f"recovered upgrade never completed: {record}")
            if not record.get("recovered"):
                fail(f"upgrade completed but not via recovery: "
                     f"{record}")
            resp = client.allocate(source=HEAVY, trace_id=HEAVY_TRACE)
            if not resp.get("ok"):
                fail(f"post-recovery heavy re-submit failed: {resp}")
            if resp["result"]["tier"] != "ip":
                fail("journal-recovered program did not answer at "
                     f"tier ip: {resp['result']['tier']}")
            if resp["result"]["optimality_gap"] != 0.0:
                fail("journal-recovered program kept a gap: "
                     f"{resp['result']['optimality_gap']}")
            print("journal-recovered upgrade: tier=ip gap=0")

            texts = [("gateway", client.metrics())]
            for sid, p in sorted(shard_ports.items()):
                texts.append((sid, shard_metrics(p)))
    finally:
        gateway.send_signal(signal.SIGTERM)
        try:
            gateway.wait(timeout=30)
        except subprocess.TimeoutExpired:
            gateway.kill()

    gw_text = texts[0][1]
    for needle in ("repro_gateway_replicated_total",
                   "repro_gateway_shard_respawns_total",
                   "repro_gateway_shard_deaths_total"):
        if needle not in gw_text:
            fail(f"gateway metrics snapshot missing {needle}")
    with open(metrics_path, "w") as handle:
        for name, text in texts:
            handle.write(f"# ==== {name} ====\n")
            handle.write(text)
            if not text.endswith("\n"):
                handle.write("\n")
    print(f"fleet metrics snapshot written to {metrics_path}")
    print("chaos fleet smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
