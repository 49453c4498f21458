"""Synchronous client for the allocation service.

A thin blocking wrapper over the NDJSON protocol — one socket, one
request line out, one response line back, in order.  Used by the
``python -m repro submit`` CLI, the test suite, and any embedder that
wants to talk to a resident allocation server without asyncio::

    with ServiceClient("127.0.0.1", 8753) as client:
        resp = client.allocate(source=open("prog.c").read(),
                               deadline=10.0)
        for fn in resp["result"]["functions"]:
            print(fn["rendered"])

Every method returns the decoded response dict (``ok``/``result`` or
``ok``/``error``); :meth:`ServiceClient.check` converts an error
response into a :class:`ServiceError` for callers that prefer raising.
"""

from __future__ import annotations

import json
import socket
import time

from .protocol import MAX_LINE_BYTES, ProtocolError


class ServiceError(Exception):
    """An error response from the service, as an exception."""

    def __init__(self, code: str, message: str, response: dict) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.response = response


class ServiceClient:
    """Blocking NDJSON client; safe for one thread at a time."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8753,
        timeout: float = 300.0,
        connect_retries: int = 0,
        retry_interval: float = 0.25,
    ) -> None:
        """``connect_retries`` retries refused connections — handy for
        scripts racing a server that is still binding its socket."""
        self.host = host
        self.port = port
        last: Exception | None = None
        for attempt in range(connect_retries + 1):
            try:
                self._sock = socket.create_connection(
                    (host, port), timeout=timeout
                )
                break
            except OSError as exc:
                last = exc
                if attempt == connect_retries:
                    raise
                time.sleep(retry_interval)
        self._sock.settimeout(timeout)
        self._file = self._sock.makefile("rwb")

    # -- plumbing --------------------------------------------------------

    def request(self, message: dict) -> dict:
        """Send one request object, return the decoded response."""
        self._file.write(
            json.dumps(message, separators=(",", ":")).encode("utf-8")
            + b"\n"
        )
        self._file.flush()
        line = self._file.readline(MAX_LINE_BYTES)
        if not line:
            raise ConnectionError(
                "service closed the connection without responding"
            )
        return json.loads(line)

    @staticmethod
    def check(response: dict) -> dict:
        """Return ``response`` if ok, else raise :class:`ServiceError`."""
        if response.get("ok"):
            return response
        error = response.get("error") or {}
        raise ServiceError(
            error.get("code", "unknown"),
            error.get("message", ""),
            response,
        )

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- verbs -----------------------------------------------------------

    def allocate(
        self,
        source: str | None = None,
        ir: str | None = None,
        target: str | None = None,
        function: str | None = None,
        config: dict | None = None,
        deadline: float | None = None,
        report: bool = False,
        trace_id: str | None = None,
        request_id=None,
        tenant: str | None = None,
        trace: bool = False,
    ) -> dict:
        message: dict = {"verb": "allocate"}
        if source is not None:
            message["source"] = source
        if ir is not None:
            message["ir"] = ir
        if target is not None:
            message["target"] = target
        if function is not None:
            message["function"] = function
        if config:
            message["config"] = config
        if deadline is not None:
            message["deadline"] = deadline
        if report:
            message["report"] = True
        if trace_id is not None:
            message["trace_id"] = trace_id
        if request_id is not None:
            message["id"] = request_id
        if tenant is not None:
            message["tenant"] = tenant
        if trace:
            message["trace"] = True
        return self.request(message)

    def status(self) -> dict:
        return self.request({"verb": "status"})

    def stats(self) -> dict:
        return self.request({"verb": "stats"})

    def health(self) -> dict:
        """Resilience vitals: breakers, degradations, queue depths."""
        return self.request({"verb": "health"})

    def metrics(self) -> dict:
        """Prometheus text exposition of the server's telemetry."""
        return self.request({"verb": "metrics"})

    def trace(self, request_ref=None) -> dict:
        """Fetch a finished lifecycle trace by trace_id (or the most
        recent one when ``request_ref`` is None)."""
        message: dict = {"verb": "trace"}
        if request_ref is not None:
            message["request"] = request_ref
        return self.request(message)

    def upgrade_status(
        self, request_ref, wait_ms: float | None = None
    ) -> dict:
        """Background optimal-upgrade status of a fast-answered
        allocate, by its trace_id or id.

        ``wait_ms`` long-polls: the server parks the reply until the
        upgrade reaches a terminal state or the (server-capped)
        deadline passes, so waiting clients burn one round trip
        instead of a busy-poll loop.
        """
        message: dict = {
            "verb": "upgrade_status", "request": request_ref,
        }
        if wait_ms is not None:
            message["wait_ms"] = wait_ms
        return self.request(message)

    #: largest wait_ms one long-poll round asks for; must stay well
    #: under the socket timeout so a parked reply never trips it
    LONG_POLL_MS = 25_000.0

    def wait_optimal(self, request_ref, timeout: float = 120.0) -> dict:
        """Wait until the upgrade reaches a terminal state
        (done/failed/dropped) or ``timeout`` elapses, via server-side
        long-polls — each round parks on the server instead of
        sleeping client-side.  Returns the final status response.
        """
        expiry = time.monotonic() + timeout
        response = self.upgrade_status(request_ref)
        while True:
            record = (response.get("result") or {}).get("upgrade")
            state = (record or {}).get("state", "")
            if state in ("done", "failed", "dropped"):
                return response
            remaining = expiry - time.monotonic()
            if remaining <= 0 or record is None:
                # Timed out — or the server does not know the ref, in
                # which case no amount of parking will produce one.
                return response
            response = self.upgrade_status(
                request_ref,
                wait_ms=min(self.LONG_POLL_MS, remaining * 1000.0),
            )

    def replicate_fetch(self, tenant: str, fingerprints) -> dict:
        """Export checksummed cache records by fingerprint (the
        gateway's replication read path)."""
        return self.request({
            "verb": "replicate",
            "tenant": tenant,
            "fetch": list(fingerprints),
        })

    def replicate_push(self, tenant: str, records) -> dict:
        """Import replicated cache records on a ring successor (the
        gateway's replication write path)."""
        return self.request({
            "verb": "replicate",
            "tenant": tenant,
            "records": list(records),
        })

    def cancel(self, request_ref) -> dict:
        """Cancel a queued allocate by its trace_id or id."""
        return self.request({"verb": "cancel", "request": request_ref})

    def ping(self) -> dict:
        return self.request({"verb": "ping"})

    def drain(self) -> dict:
        """Ask the server to drain; returns once it has finished all
        accepted work (this call can take as long as the work does)."""
        return self.request({"verb": "drain"})


__all__ = ["ProtocolError", "ServiceClient", "ServiceError"]
