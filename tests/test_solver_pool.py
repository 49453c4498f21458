"""The solver process pool behind a service with ``jobs > 1``: forked
workers must not share the server's signal state, and a pool broken by
worker crashes is replaced while the server keeps serving."""

from __future__ import annotations

import os
import subprocess
import sys

from repro.service import ServiceClient

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SOURCE = """
int helper(int a) { return a * 3; }
int main(int n) {
    int s = 0;
    for (int i = 0; i < n; i += 1) { s += helper(i); }
    return s;
}
"""

#: An asyncio server with its SIGTERM/SIGINT handlers installed forks
#: two pool workers, then one worker gets SIGTERM.  The worker must
#: die of it, and the server must not take it for its own SIGTERM.
SIGNAL_SCRIPT = r'''
import asyncio, multiprocessing, os, signal, sys, time

from repro.service import AllocationServer, ServiceClient, ServiceConfig

SOURCE = sys.argv[1]


async def main():
    server = AllocationServer(ServiceConfig(port=0, jobs=2))
    await server.start()
    loop = asyncio.get_running_loop()

    def allocate():
        with ServiceClient("127.0.0.1", server.port, timeout=120) as c:
            return c.allocate(source=SOURCE)

    reply = await loop.run_in_executor(None, allocate)
    assert reply["ok"], reply
    workers = multiprocessing.active_children()
    assert workers, "no pool worker was forked"
    victim = workers[0]
    os.kill(victim.pid, signal.SIGTERM)
    deadline = time.monotonic() + 10.0
    while victim.exitcode is None and time.monotonic() < deadline:
        await asyncio.sleep(0.05)
    await asyncio.sleep(0.5)  # room for a stray wakeup to reach the loop
    print(f"draining={server.scheduler.draining} "
          f"exitcode={victim.exitcode}", flush=True)
    await server.drain()
    await server.stop()


asyncio.run(main())
'''


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    for name in ("REPRO_FAULTS", "REPRO_JOBS", "REPRO_TRACE"):
        env.pop(name, None)
    return env


def test_sigterm_to_a_worker_kills_it_and_not_the_server(tmp_path):
    script = tmp_path / "signal_probe.py"
    script.write_text(SIGNAL_SCRIPT)
    proc = subprocess.run(
        [sys.executable, str(script), SOURCE],
        capture_output=True, text=True, timeout=240, env=_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "draining=False exitcode=-15" in proc.stdout, (
        proc.stdout, proc.stderr
    )


def test_serve_jobs2_survives_worker_crashes_until_drain():
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--jobs", "2", "--faults", "seed=5;worker_crash=1.0:1"],
        cwd=ROOT, env=_env(), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        banner = proc.stdout.readline()
        assert "listening on" in banner, banner
        port = int(banner.split("listening on ")[1].split()[0]
                   .rsplit(":", 1)[1])
        for tenant in (None, None, "crash-test"):
            with ServiceClient("127.0.0.1", port, timeout=120) as client:
                reply = ServiceClient.check(
                    client.allocate(source=SOURCE, tenant=tenant)
                )
            assert [f["function"] for f in reply["result"]["functions"]] \
                == ["helper", "main"]
        with ServiceClient("127.0.0.1", port, timeout=60) as client:
            health = ServiceClient.check(client.health())["result"]
        assert health["state"] == "serving"
        assert health["resilience"].get("resilience.pool_respawns", 0) >= 1
        assert proc.poll() is None, "the server exited before drain"
        with ServiceClient("127.0.0.1", port, timeout=60) as client:
            ServiceClient.check(client.drain())
        assert proc.wait(timeout=120) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        proc.stdout.close()
        proc.stderr.close()
