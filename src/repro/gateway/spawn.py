"""Single-machine scale-out: fork local engine-server shards.

``repro gateway --spawn N`` uses :class:`LocalShardFleet` to start N
``python -m repro serve`` subprocesses on ephemeral ports, each with
its own shard id and its own cache directory (cache affinity only
means anything when shards do not share one cache tree), parse the
listening banner for the bound port, and register each with the
gateway's shard manager.  After the banner a thread reads each shard's
standard output to its end: HiGHS writes some messages to it from C,
and a pipe nobody reads blocks the shard's next write once 64 KiB of
them pile up.

Shutdown is drain-shaped: SIGTERM first (the server's signal handler
starts a graceful drain and exits once accepted work finishes), then
SIGKILL after a grace period for anything still alive.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

#: printed by ``repro serve`` once the socket is bound; the fleet
#: parses the port out of "... listening on host:port (..."
BANNER_MARK = "listening on "

#: seconds a spawned shard may take to print its banner
STARTUP_TIMEOUT = 30.0


@dataclass
class LocalShard:
    shard_id: str
    port: int
    process: subprocess.Popen
    cache_dir: str = ""


@dataclass
class LocalShardFleet:
    """N spawned ``repro serve`` shards with per-shard caches.

    Every shard gets the same ``--time-limit`` and ``--fast-slo-ms``
    (the gateway's own flags of those names).
    """

    count: int
    cache_root: str | None
    time_limit: float
    fast_slo_ms: float
    shards: list[LocalShard] = field(default_factory=list)

    def start(self) -> "LocalShardFleet":
        for i in range(self.count):
            self.shards.append(self._spawn(f"shard-{i}"))
        return self

    def command(self, shard_id: str, port: int, cache_dir: str) -> list[str]:
        """The ``repro serve`` command line of one shard."""
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--port", str(port),
            "--shard-id", shard_id,
            "--time-limit", str(self.time_limit),
            "--fast-slo-ms", str(self.fast_slo_ms),
        ]
        if cache_dir:
            cmd += ["--cache", cache_dir]
        return cmd

    def _spawn(self, shard_id: str, port: int = 0) -> LocalShard:
        cache_dir = ""
        if self.cache_root:
            cache_dir = str(Path(self.cache_root) / shard_id)
        process = subprocess.Popen(
            self.command(shard_id, port, cache_dir),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=dict(os.environ),
        )
        port = self._await_banner(process, shard_id)
        threading.Thread(
            target=_drain, args=(process.stdout,),
            name=f"{shard_id}-stdout", daemon=True,
        ).start()
        return LocalShard(
            shard_id=shard_id, port=port,
            process=process, cache_dir=cache_dir,
        )

    def _await_banner(
        self, process: subprocess.Popen, shard_id: str
    ) -> int:
        """Block until the serve banner reports the bound port."""
        deadline = time.monotonic() + STARTUP_TIMEOUT
        assert process.stdout is not None
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            if not line:
                if process.poll() is not None:
                    raise RuntimeError(
                        f"{shard_id} exited with "
                        f"{process.returncode} before binding"
                    )
                time.sleep(0.05)
                continue
            if BANNER_MARK in line:
                addr = line.split(BANNER_MARK, 1)[1].split()[0]
                return int(addr.rsplit(":", 1)[1])
        process.kill()
        raise RuntimeError(f"{shard_id} never printed its banner")

    def pids(self) -> dict[str, int]:
        return {s.shard_id: s.process.pid for s in self.shards}

    def poll(self) -> dict[str, int | None]:
        """Reap exit statuses: shard id -> returncode (None = alive)."""
        return {s.shard_id: s.process.poll() for s in self.shards}

    def respawn(self, shard_id: str) -> LocalShard:
        """Restart a dead shard on its original port, shard id, and
        cache directory (so its persistent cache and upgrade journal
        survive the crash).  Raises if the shard is unknown or still
        running — supervision reaps before it respawns.
        """
        for i, shard in enumerate(self.shards):
            if shard.shard_id != shard_id:
                continue
            if shard.process.poll() is None:
                raise RuntimeError(f"{shard_id} is still running")
            fresh = self._spawn(shard_id, port=shard.port)
            self.shards[i] = fresh
            return fresh
        raise KeyError(f"no shard {shard_id!r}")

    def kill(self, shard_id: str) -> bool:
        """SIGKILL one shard (fail-over tests); returns False if
        unknown or already dead."""
        for shard in self.shards:
            if shard.shard_id == shard_id:
                if shard.process.poll() is not None:
                    return False
                shard.process.kill()
                shard.process.wait(timeout=10)
                return True
        return False

    def stop(self, grace: float = 10.0) -> None:
        """SIGTERM everyone (graceful drain), SIGKILL stragglers."""
        for shard in self.shards:
            if shard.process.poll() is None:
                try:
                    shard.process.send_signal(signal.SIGTERM)
                except OSError:
                    pass
        deadline = time.monotonic() + grace
        for shard in self.shards:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                shard.process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                shard.process.kill()
                shard.process.wait(timeout=10)
        self.shards.clear()

    def __enter__(self) -> "LocalShardFleet":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def _drain(stream) -> None:
    """Read a shard's standard output to its end, then close it."""
    with stream:
        for _ in stream:
            pass


__all__ = ["BANNER_MARK", "STARTUP_TIMEOUT", "LocalShard", "LocalShardFleet"]
