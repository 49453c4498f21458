"""Per-backend circuit breakers for the solver dispatch.

A breaker guards one solver backend.  After ``failure_threshold``
*consecutive* failures it opens: calls short-circuit to the fallback
path without touching the (presumably broken) backend.  After
``reset_timeout`` seconds the breaker lets a single half-open probe
through; a success closes it again, another failure re-opens it and
restarts the clock.

State is per process — engine pool workers each carry their own
breakers, which is the behavior we want: a backend broken only in one
worker (say, a corrupted scipy install is impossible, but an injected
fault plan is not) should not poison the parent.

A backend breaker trips after :data:`FAILURE_THRESHOLD` (5)
consecutive failures and probes again after :data:`RESET_TIMEOUT`
(30 s); the gateway's shard breakers take theirs from its config.
"""

from __future__ import annotations

import threading
import time

from ..obs import counter

#: consecutive failures that open a backend breaker
FAILURE_THRESHOLD = 5
#: seconds an open backend breaker waits before its half-open probe
RESET_TIMEOUT = 30.0

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitOpenError(RuntimeError):
    """Raised instead of calling through an open breaker."""

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(f"circuit breaker for {name!r} is open")


class CircuitBreaker:
    """closed -> open -> half-open -> closed, thread-safe."""

    def __init__(self, name: str,
                 failure_threshold: int = FAILURE_THRESHOLD,
                 reset_timeout: float = RESET_TIMEOUT,
                 clock=time.monotonic) -> None:
        self.name = name
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probing = False

    # -- queries ---------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            return self._effective_state()

    def _effective_state(self) -> str:
        if self._state == OPEN and \
                self._clock() - self._opened_at >= self.reset_timeout:
            return HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """May a call proceed?  In half-open state only one probe may."""
        with self._lock:
            state = self._effective_state()
            if state == CLOSED:
                return True
            if state == HALF_OPEN and not self._probing:
                self._probing = True
                return True
            return False

    # -- outcome reporting ----------------------------------------------
    def record_success(self) -> None:
        with self._lock:
            if self._state != CLOSED:
                counter("resilience.breaker_closes").incr()
            self._state = CLOSED
            self._consecutive_failures = 0
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._probing = False
            self._consecutive_failures += 1
            was_open = self._state == OPEN
            if self._effective_state() == HALF_OPEN or (
                self._state == CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = OPEN
                self._opened_at = self._clock()
                if not was_open:
                    counter("resilience.breaker_trips").incr()
            elif self._state == OPEN:
                # failure reported while open (racing caller): restart
                # the reset clock.
                self._opened_at = self._clock()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "state": self._effective_state(),
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "reset_timeout": self.reset_timeout,
            }


_registry: dict[str, CircuitBreaker] = {}
_registry_lock = threading.Lock()


def breaker_for(name: str) -> CircuitBreaker:
    """Get-or-create the process-wide breaker for a backend."""
    with _registry_lock:
        brk = _registry.get(name)
        if brk is None:
            brk = _registry[name] = CircuitBreaker(name)
        return brk


def breaker_snapshots() -> dict[str, dict]:
    with _registry_lock:
        breakers = list(_registry.items())
    return {name: brk.snapshot() for name, brk in breakers}


def reset_breakers() -> None:
    """Drop all breakers (test isolation)."""
    with _registry_lock:
        _registry.clear()
