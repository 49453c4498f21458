#!/usr/bin/env python3
"""CI smoke for tiered serving: fast replies, background upgrades.

Drives the real CLI path end to end::

    python -m repro serve --fast-slo-ms <tight> ...

then fires a mixed-tenant burst and asserts the acceptance properties
of the tiered serving path:

* every reply in the burst is answered from the fast tier within the
  SLO (the reply's measured ``fast_seconds``, not queue wait);
* every background upgrade reaches ``done`` with a non-negative
  optimality gap (``optimal_cost <= fast_cost``), for the default
  weights and, on one program submitted ``size_only``, for the
  size-only weighting of the same eq. (1) price;
* resubmitting the same programs is served from the upgraded cache
  entries as ``tier: "ip"`` — the optimal answer, not the fast one;
* graceful drain exits 0 only after the upgrade queue is empty.

Writes the server's Prometheus snapshot to ``tiered-metrics.txt`` (or
``argv[1]``) for upload as a CI artifact.  Exits non-zero on any
violated assertion.
"""

import os
import subprocess
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
)

from repro.service import ServiceClient  # noqa: E402

FAST_SLO_MS = 250.0  # tight vs. multi-second IP solves, CI-box safe

PROGRAMS = [
    f"int f{i}(int a) {{ return a * {i + 2} + {i}; }}"
    for i in range(6)
]
TENANTS = ["acme", "zeta", ""]
#: per-program request config: one program is priced size-only
CONFIGS = [None, None, None, {"size_only": True}, None, None]


def fail(msg: str) -> None:
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main() -> int:
    metrics_path = sys.argv[1] if len(sys.argv) > 1 \
        else "tiered-metrics.txt"
    cache_root = tempfile.mkdtemp(prefix="tiered-smoke-cache-")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(os.path.join(
            os.path.dirname(__file__), os.pardir, "src")),
         env.get("PYTHONPATH", "")])
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--fast-slo-ms", str(FAST_SLO_MS),
         "--cache", cache_root,
         "--time-limit", "16"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env,
    )
    try:
        banner = server.stdout.readline()
        if "listening on" not in banner:
            fail(f"unexpected banner: {banner!r}")
        if f"fast-slo={FAST_SLO_MS:g}ms" not in banner:
            fail(f"banner does not announce the fast SLO: {banner!r}")
        port = int(
            banner.split("listening on ")[1]
            .split()[0].rsplit(":", 1)[1]
        )

        # -- burst: every reply beats the SLO on the fast tier --------
        fast = {}
        with ServiceClient(
            "127.0.0.1", port, timeout=120, connect_retries=20,
        ) as client:
            for i, source in enumerate(PROGRAMS):
                resp = client.check(client.allocate(
                    source=source, tenant=TENANTS[i % len(TENANTS)],
                    config=CONFIGS[i],
                ))
                result = resp["result"]
                if result.get("tier") not in (
                    "linear-scan", "coloring", "mixed"
                ):
                    fail(f"burst reply {i} not fast-tier: "
                         f"{result.get('tier')!r}")
                took_ms = result["fast_seconds"] * 1000.0
                if took_ms > FAST_SLO_MS:
                    fail(f"burst reply {i} missed the SLO: "
                         f"{took_ms:.1f}ms > {FAST_SLO_MS}ms")
                if result["upgrade"]["state"] != "queued":
                    fail(f"burst reply {i} upgrade not queued: "
                         f"{result['upgrade']}")
                fast[result["upgrade"]["trace_id"]] = result
            print(f"burst ok: {len(fast)} fast replies, "
                  f"max {max(r['fast_seconds'] for r in fast.values()) * 1e3:.1f}ms")

            # -- poll until every upgrade lands -----------------------
            deadline = time.monotonic() + 300.0
            for trace_id, reply in fast.items():
                final = client.wait_optimal(
                    trace_id,
                    timeout=max(1.0, deadline - time.monotonic()),
                )
                record = (final.get("result") or {}).get("upgrade")
                if not record or record.get("state") != "done":
                    fail(f"upgrade {trace_id} did not land: {record}")
                if record["gap"] < 0:
                    fail(f"negative gap on {trace_id}: {record}")
                if record["optimal_cost"] > reply["fast_cost"] + 1e-6:
                    fail(f"optimal beat by fast on {trace_id}: "
                         f"{record['optimal_cost']} > "
                         f"{reply['fast_cost']}")
            print(f"upgrades ok: {len(fast)} landed, gaps "
                  + ", ".join(
                      f"{client.wait_optimal(t)['result']['upgrade']['gap']:g}"
                      for t in list(fast)[:3]) + ", ...")

            # -- repeat submits serve the upgraded optimal ------------
            for i, source in enumerate(PROGRAMS):
                resp = client.check(client.allocate(
                    source=source, tenant=TENANTS[i % len(TENANTS)],
                    config=CONFIGS[i],
                ))
                result = resp["result"]
                if result.get("tier") != "ip":
                    fail(f"repeat {i} not served optimal: "
                         f"{result.get('tier')!r}")
                if not all(
                    f["cache_hit"] for f in result["functions"]
                ):
                    fail(f"repeat {i} missed the upgraded cache entry")
            print(f"repeats ok: {len(PROGRAMS)} served tier=ip "
                  "from the upgraded cache")

            # -- metrics artifact -------------------------------------
            metrics = client.check(
                client.metrics())["result"]["text"]
            for needle in (
                "repro_service_fast_reply_seconds",
                "repro_service_upgrade_latency_seconds",
                "repro_tiers_fast_replies",
                "repro_tiers_upgrades_completed",
            ):
                if needle not in metrics:
                    fail(f"metrics snapshot missing {needle}")
            with open(metrics_path, "w") as handle:
                handle.write(metrics)
            print(f"metrics snapshot -> {metrics_path}")

            client.check(client.drain())
        if server.wait(timeout=120) != 0:
            fail(f"server exited {server.returncode} after drain")
        print("tiered smoke passed")
        return 0
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()


if __name__ == "__main__":
    sys.exit(main())
