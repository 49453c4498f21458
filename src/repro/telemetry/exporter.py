"""Metrics exposition sidecar: the HTTP ``/metrics`` endpoint.

:class:`MetricsHTTPServer` is an optional, stdlib-only daemon thread
the allocation service (or any embedder) can run alongside its main
protocol.  It answers ``GET /metrics`` with Prometheus text (what a
scraper pulls) and ``GET /healthz`` with a one-line liveness answer —
deliberately not the NDJSON port, so scraping never competes with
request framing.  ``start``/``stop`` are idempotent.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .prom import PROM_CONTENT_TYPE, render_prometheus


class MetricsHTTPServer:
    """``GET /metrics`` in Prometheus text format, on its own port.

    ``render`` is a zero-argument callable returning the exposition
    text — the service passes one that folds in its gauges (queue
    depth, breaker states) before rendering.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        render=None,
    ) -> None:
        self._render = render or (lambda: render_prometheus())
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib API)
                if self.path.split("?", 1)[0] == "/metrics":
                    body = outer._render().encode("utf-8")
                    self.send_response(200)
                    self.send_header("Content-Type", PROM_CONTENT_TYPE)
                elif self.path == "/healthz":
                    body = b"ok\n"
                    self.send_response(200)
                    self.send_header("Content-Type", "text/plain")
                else:
                    body = b"try /metrics\n"
                    self.send_response(404)
                    self.send_header("Content-Type", "text/plain")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:
                pass  # a scrape every few seconds is not log-worthy

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def start(self) -> "MetricsHTTPServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-metrics-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()
