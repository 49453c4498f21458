"""Per-shard connection pooling over the NDJSON TCP protocol.

The gateway serves each HTTP request on its own thread
(``ThreadingHTTPServer``), and each proxied request needs a socket to
the target shard.  Opening one per request would pay connect latency
and FD churn on every allocate; a :class:`ShardPool` keeps a small
free-list of :class:`~repro.service.client.ServiceClient` connections
per shard and hands them out for the duration of one proxy exchange.

The NDJSON protocol is strictly request/response in order on one
socket, so a pooled connection is safe to reuse as long as exactly
one thread holds it at a time — which ``acquire``/``release`` (or the
:meth:`ShardPool.lease` context manager) enforces.  A connection that
saw *any* error is closed, never returned to the free-list: after a
mid-stream disconnect the socket's stream state is unknowable, and
reconnecting is cheap compared to a misrouted reply.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from ..service.client import ServiceClient

#: per-proxy-attempt socket timeout, seconds (an allocate can
#: legitimately run to its deadline, so this must exceed request
#: deadlines)
PROXY_TIMEOUT = 300.0

#: connections parked per shard between proxy exchanges
MAX_IDLE = 4


class ShardPool:
    """Bounded free-list of connections to one shard.

    :data:`MAX_IDLE` bounds only the *parked* connections; under burst
    the pool opens as many sockets as there are concurrent borrowers
    and simply closes the surplus on release.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._idle: list[ServiceClient] = []
        self._lock = threading.Lock()
        self._closed = False

    def acquire(self) -> ServiceClient:
        """A connection for exclusive use; connects if none is parked.

        Raises ``OSError`` (connection refused et al.) if the shard
        is unreachable — the caller's signal to fail over.
        """
        with self._lock:
            if self._closed:
                raise OSError("pool is closed")
            if self._idle:
                return self._idle.pop()
        return ServiceClient(self.host, self.port, timeout=PROXY_TIMEOUT)

    def release(self, client: ServiceClient, healthy: bool) -> None:
        """Return a connection.  Unhealthy ones are always closed."""
        if healthy and not self._closed:
            with self._lock:
                if len(self._idle) < MAX_IDLE and not self._closed:
                    self._idle.append(client)
                    return
        try:
            client.close()
        except OSError:
            pass

    @contextmanager
    def lease(self):
        """``with pool.lease() as client:`` — auto-release, and the
        connection is recycled only if the body raised nothing."""
        client = self.acquire()
        healthy = False
        try:
            yield client
            healthy = True
        finally:
            self.release(client, healthy)

    def close(self) -> None:
        """Close every parked connection and refuse new leases."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for client in idle:
            try:
                client.close()
            except OSError:
                pass

    def idle_count(self) -> int:
        with self._lock:
            return len(self._idle)


__all__ = ["MAX_IDLE", "PROXY_TIMEOUT", "ShardPool"]
