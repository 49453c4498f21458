"""Blocking HTTP client for the gateway (stdlib ``http.client``).

The HTTP twin of :class:`repro.service.client.ServiceClient`: every
method returns the decoded protocol-shaped response dict
(``ok``/``result`` or ``ok``/``error``), so ``repro submit
--gateway`` and the tests can treat TCP and HTTP transports
identically — including reusing ``ServiceClient.check`` for
error-raising.
"""

from __future__ import annotations

import json
from http.client import HTTPConnection
from urllib.parse import quote, urlparse

#: the server closed a kept-alive connection before any reply, so the
#: request never ran and is safe to send again
#: (``http.client.RemoteDisconnected`` is a ``ConnectionResetError``)
_STALE_CONNECTION = (BrokenPipeError, ConnectionResetError)


class GatewayClient:
    """One persistent HTTP/1.1 connection; one thread at a time."""

    def __init__(self, url: str, timeout: float = 300.0) -> None:
        """``url`` is ``http://host:port`` (or bare ``host:port``)."""
        if "//" not in url:
            url = "http://" + url
        parsed = urlparse(url)
        if parsed.scheme not in ("", "http"):
            raise ValueError(
                f"gateway URL must be http://, got {parsed.scheme!r}"
            )
        self.host = parsed.hostname or "127.0.0.1"
        self.port = parsed.port or 8750
        self.timeout = timeout
        self._conn = HTTPConnection(
            self.host, self.port, timeout=timeout
        )

    # -- plumbing --------------------------------------------------------

    def request(
        self, method: str, path: str, body: dict | None = None
    ) -> dict:
        """One round trip; returns the decoded JSON payload.

        Connection errors surface as ``OSError`` / ``ConnectionError``
        exactly like the TCP client, so callers share one error path.
        """
        payload = (json.dumps(body).encode("utf-8")
                   if body is not None else None)
        raw = self._round_trip(method, path, payload)
        if not raw:
            raise ConnectionError(
                "gateway closed the connection without responding"
            )
        return json.loads(raw)

    def _round_trip(
        self, method: str, path: str, payload: bytes | None
    ) -> bytes:
        """Send one request and return the raw reply body.

        Sends again, once, only when the server closed the kept-alive
        connection before replying.  Any other failure (a read timeout
        above all) is raised as is: the server may still be working on
        the request, so sending it again could run it twice.
        """
        try:
            return self._send(method, path, payload)
        except _STALE_CONNECTION:
            return self._send(method, path, payload)

    def _send(
        self, method: str, path: str, payload: bytes | None
    ) -> bytes:
        headers = {"Content-Type": "application/json"} if payload \
            else {}
        try:
            self._conn.request(method, path, body=payload,
                               headers=headers)
            return self._conn.getresponse().read()
        except BaseException:
            # The next request opens a fresh connection, so a late
            # reply to this one can never be read as its answer.
            self._conn.close()
            raise

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- verbs -----------------------------------------------------------

    def allocate(self, **fields) -> dict:
        """POST /v1/allocate; keyword args are the protocol fields
        (source/ir/target/function/config/deadline/tenant/...)."""
        body = {k: v for k, v in fields.items() if v is not None}
        return self.request("POST", "/v1/allocate", body)

    def status(self) -> dict:
        return self.request("GET", "/v1/status")

    def shards(self) -> dict:
        return self.request("GET", "/v1/shards")

    def add_shard(self, shard_id: str, host: str, port: int) -> dict:
        return self.request(
            "POST", "/v1/shards",
            {"id": shard_id, "host": host, "port": port},
        )

    def remove_shard(self, shard_id: str, drain: bool = False) -> dict:
        path = f"/v1/shards/{shard_id}"
        if drain:
            path += "?drain=1"
        return self.request("DELETE", path)

    def trace(self, request_ref: str | None = None) -> dict:
        path = "/v1/trace"
        if request_ref:
            path += f"?request={request_ref}"
        return self.request("GET", path)

    def upgrade(self, request_ref: str) -> dict:
        """Background-upgrade status of a fast-answered allocate,
        by its response id or trace id."""
        return self.request(
            "GET", f"/v1/upgrade?request={quote(str(request_ref))}"
        )

    def healthz(self) -> dict:
        return self.request("GET", "/healthz")

    def metrics(self) -> str:
        """GET /metrics — raw Prometheus text, not JSON."""
        return self._round_trip("GET", "/metrics", None).decode("utf-8")


__all__ = ["GatewayClient"]
