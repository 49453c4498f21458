"""Shard supervision: reap dead engine shards and respawn them.

The gateway's probe/breaker machinery already *detects* a dead shard
(its breaker opens, it leaves the ring, traffic remaps to ring
successors), but nothing brings the process back.  The
:class:`ShardSupervisor` closes that loop for spawned fleets
(``repro gateway --spawn N``): a background thread reaps each shard
subprocess's exit status and, when one has died, respawns it with its
original ``--shard-id``, cache directory, and port — so the revived
process owns exactly the ring segment, persistent cache, and upgrade
journal its predecessor did.

Respawning is budgeted *cumulatively*: a shard gets at most
``restart_budget`` respawn attempts within a sliding
:data:`BUDGET_WINDOW` seconds — counting both failed attempts and
successful respawns — paced by deterministic exponential backoff
(:class:`~repro.faults.retry.RetryPolicy` salted with the shard id).
A shard that respawns cleanly but keeps dying therefore burns its
budget across deaths, not per death, and once the window's budget is
spent it is administratively removed from the ring
(``manager.leave``) and the gateway keeps serving on the survivors —
a crash loop must not take the fleet down with it.  A rare
legitimate death (one crash per window) never exhausts the budget
because older attempts age out of the window.  Attempts can be made
to fail deterministically via the ``supervisor_respawn_fail`` fault
site for chaos drills.

Rejoin rides the existing half-open breaker path: the respawned
process listens on the original port, so the prober's next half-open
health probe succeeds and revives the shard onto the ring — no
special re-admission protocol.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from ..faults import SITE_SUPERVISOR_RESPAWN_FAIL, should_fire
from ..faults.retry import RetryPolicy
from ..obs import define_counter
from .shards import LEFT, ShardManager
from .spawn import LocalShardFleet

#: seconds of the sliding window a shard's restart budget covers
BUDGET_WINDOW = 60.0

STAT_DEATHS = define_counter(
    "gateway.shard_deaths",
    "shard processes the supervisor found dead",
)
STAT_RESPAWNS = define_counter(
    "gateway.shard_respawns",
    "dead shards respawned onto their original port",
)
STAT_RESPAWN_FAILURES = define_counter(
    "gateway.shard_respawn_failures",
    "respawn attempts that failed (budget was consumed)",
)
STAT_ABANDONED = define_counter(
    "gateway.shards_abandoned",
    "shards left off the ring after exhausting the restart budget",
)


class ShardSupervisor:
    """Reap + respawn loop over a :class:`LocalShardFleet`.

    One instance per gateway process.  ``start()`` launches the
    daemon poll thread; ``check()`` runs a single supervision pass
    synchronously (what the thread calls — and what tests call to
    avoid timing dependence).
    """

    def __init__(
        self,
        fleet: LocalShardFleet,
        manager: ShardManager,
        restart_budget: int,
        poll_interval: float,
        policy: RetryPolicy | None = None,
    ) -> None:
        self.fleet = fleet
        self.manager = manager
        self.restart_budget = max(1, restart_budget)
        self.poll_interval = poll_interval
        self.policy = policy or RetryPolicy(
            max_retries=self.restart_budget,
            base_delay=0.1,
            max_delay=2.0,
        )
        #: successful respawns per shard, over the supervisor lifetime
        self.restarts: dict[str, int] = {}
        #: shards abandoned after exhausting their restart budget
        self.exhausted: set[str] = set()
        #: monotonic respawn-attempt counter per shard — the fault
        #: site's attempt number, so injected failures replay exactly
        #: under a fixed REPRO_FAULTS seed
        self._attempts: dict[str, int] = {}
        #: attempt timestamps per shard inside the sliding budget
        #: window — the cumulative crash-loop budget
        self._recent: dict[str, deque[float]] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- supervision pass ------------------------------------------------

    def check(self) -> list[str]:
        """One pass: reap exits, respawn the dead.  Returns the shard
        ids respawned this pass."""
        revived: list[str] = []
        for shard_id, code in self.fleet.poll().items():
            if code is None:
                continue
            with self._lock:
                if shard_id in self.exhausted:
                    continue
            shard = self.manager.get(shard_id)
            if shard is not None and shard.state == LEFT:
                continue  # administratively removed; stay dead
            if self._handle_death(shard_id):
                revived.append(shard_id)
        return revived

    def _take_budget(self, shard_id: str) -> tuple[int, int] | None:
        """Consume one unit of the shard's windowed restart budget.

        Returns ``(burst, n)`` — attempts currently inside the window
        (the backoff index) and the lifetime attempt number (the
        fault site's replay key) — or ``None`` when the window's
        budget is already spent.
        """
        with self._lock:
            now = time.monotonic()
            recent = self._recent.setdefault(shard_id, deque())
            while recent and now - recent[0] > BUDGET_WINDOW:
                recent.popleft()
            if len(recent) >= self.restart_budget:
                return None
            recent.append(now)
            self._attempts[shard_id] = (
                self._attempts.get(shard_id, 0) + 1
            )
            return len(recent), self._attempts[shard_id]

    def _handle_death(self, shard_id: str) -> bool:
        STAT_DEATHS.incr()
        while True:
            # The budget is cumulative across deaths: a shard that
            # respawns cleanly but crashes again draws from the same
            # sliding window, so a crash loop exhausts it and is
            # abandoned instead of respawning forever.
            taken = self._take_budget(shard_id)
            if taken is None:
                break
            burst, n = taken
            if burst > 1:
                time.sleep(self.policy.delay(burst - 1, salt=shard_id))
            if should_fire(SITE_SUPERVISOR_RESPAWN_FAIL, shard_id, n):
                STAT_RESPAWN_FAILURES.incr()
                continue
            try:
                self.fleet.respawn(shard_id)
            except (OSError, RuntimeError, KeyError, ValueError):
                STAT_RESPAWN_FAILURES.incr()
                continue
            with self._lock:
                self.restarts[shard_id] = (
                    self.restarts.get(shard_id, 0) + 1
                )
            STAT_RESPAWNS.incr()
            shard = self.manager.get(shard_id)
            if shard is not None:
                # Best-effort fast rejoin; if the breaker is still in
                # its open window this is a no-op and the prober's
                # half-open probe revives the shard instead.
                self.manager.probe(shard)
            return True
        with self._lock:
            self.exhausted.add(shard_id)
        self.manager.leave(shard_id)
        STAT_ABANDONED.incr()
        return False

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ShardSupervisor":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop,
                name="gateway-supervisor",
                daemon=True,
            )
            self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.poll_interval):
            try:
                self.check()
            except Exception:  # noqa: BLE001 — supervision must not die
                pass

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.poll_interval + 5.0)
            self._thread = None

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "restart_budget": self.restart_budget,
                "budget_window": BUDGET_WINDOW,
                "restarts": dict(self.restarts),
                "attempts": dict(self._attempts),
                "exhausted": sorted(self.exhausted),
            }


__all__ = ["BUDGET_WINDOW", "ShardSupervisor"]
