"""The sweep server: a stdlib ``http.server`` face over :class:`WorkQueue`.

One process, one queue.  :class:`http.server.ThreadingHTTPServer`
answers each connection on its own thread; all mutation goes through
the queue's lock-guarded methods (each O(queue) at worst and free of
IO), so handlers need no further synchronisation.  The only background
work is the lease-expiry sweep, a daemon thread.

Endpoints (JSON in, JSON out, one request per connection):

=======  ============  =====================================================
method   path          meaning
=======  ============  =====================================================
POST     /submit       ``{"tasks": [{"fn", "task"}, ...]}`` -> ``{"ids"}``
POST     /lease        ``{"worker"}`` -> ``{"task": {...}|null, "draining"}``
POST     /heartbeat    ``{"worker", "lease_id"?}`` -> ``{"lease_valid"}``
POST     /complete     ``{"task_id", "result", "worker"?, "stats"?}``
POST     /fail         ``{"task_id", "error", "worker"?}`` -> ``{"retry"}``
GET      /result       ``?id=<task_id>`` -> ``{"state", "result"?/"error"?}``
GET      /status       queue depth, leases, workers, counters, cache stats
GET      /health       ``{"ok": true}``
POST     /drain        stop leasing; workers are told to exit
=======  ============  =====================================================

The server executes nothing itself: workers pull ``{"fn", "task"}``
pairs and run them through the existing JSON task protocol.  Execute
tasks carry their measurements, so workers never read a
:class:`~repro.exp.cache.ProfileCache`; ``/status`` reports the
on-disk stats of the one named by ``serve --cache`` (or
``SweepServer(cache_dir=...)``), and ``null`` without one.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, NamedTuple, Optional
from urllib.parse import parse_qsl

from repro.errors import ServiceError
from repro.exp.service.queue import WorkQueue

__all__ = ["SweepServer"]

#: Largest accepted request body; a grid submission is a few MB at the
#: extreme, so this mostly guards the server against garbage traffic.
MAX_BODY_BYTES = 64 * 1024 * 1024


class Request(NamedTuple):
    """One parsed request: method, path, query dict, JSON body."""

    method: str
    path: str
    query: Dict[str, str]
    body: Optional[Any]


class BadRequest(ServiceError):
    """The peer sent something that is not a well-formed request."""


class _Handler(BaseHTTPRequestHandler):
    """Hands every GET and POST to the :class:`SweepServer` it serves."""

    def do_GET(self) -> None:
        self.server.sweep._handle(self)

    do_POST = do_GET

    def log_message(self, format: str, *args: Any) -> None:
        pass  # /status counts the traffic; no per-request log lines


class SweepServer:
    """Serve a :class:`WorkQueue` over localhost-grade HTTP.

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    startup).  Use :meth:`serve_forever` from a CLI process, or
    :meth:`start_in_background` / :meth:`stop` (or the context manager)
    to host the server on a private thread inside tests and examples.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8642,
        lease_ttl: float = 30.0,
        max_attempts: int = 3,
        backoff_base: float = 0.5,
        cache_dir: Optional[str] = None,
    ):
        self.host = host
        self.port = port
        self.queue = WorkQueue(
            lease_ttl=lease_ttl,
            max_attempts=max_attempts,
            backoff_base=backoff_base,
        )
        #: Cache root whose stats /status reports (None: no cache).
        self.cache_dir = cache_dir
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- request handling --------------------------------------------------

    def _handle(self, handler: BaseHTTPRequestHandler) -> None:
        """Answer one request with a JSON body."""
        try:
            status, payload = self._route(self._read(handler))
        except BadRequest as exc:
            status, payload = 400, {"error": str(exc)}
        except Exception as exc:  # a handler bug must not kill serving
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        try:
            handler.send_response(status)
            handler.send_header("Content-Type", "application/json")
            handler.send_header("Content-Length", str(len(body)))
            handler.end_headers()
            handler.wfile.write(body)
        except ConnectionError:
            pass  # peer gone before the response landed

    @staticmethod
    def _read(handler: BaseHTTPRequestHandler) -> Request:
        """Parse the request's target and JSON body."""
        try:
            length = int(handler.headers.get("Content-Length", "0"))
        except ValueError:
            raise BadRequest("bad Content-Length")
        if not 0 <= length <= MAX_BODY_BYTES:
            raise BadRequest(f"refusing body of {length} bytes")
        body: Optional[Any] = None
        if length:
            try:
                body = json.loads(handler.rfile.read(length))
            except ValueError:
                raise BadRequest("body is not valid JSON")
        path, _, query_string = handler.path.partition("?")
        return Request(
            handler.command, path, dict(parse_qsl(query_string)), body
        )

    def _route(self, request: Request):
        routes = {
            ("POST", "/submit"): self._submit,
            ("POST", "/lease"): self._lease,
            ("POST", "/heartbeat"): self._heartbeat,
            ("POST", "/complete"): self._complete,
            ("POST", "/fail"): self._fail,
            ("GET", "/result"): self._result,
            ("GET", "/status"): self._status,
            ("GET", "/health"): lambda _request: (200, {"ok": True}),
            ("POST", "/drain"): self._drain,
        }
        handler = routes.get((request.method, request.path))
        if handler is None:
            if any(path == request.path for _method, path in routes):
                return 405, {"error": f"wrong method for {request.path}"}
            return 404, {"error": f"unknown endpoint {request.path}"}
        return handler(request)

    @staticmethod
    def _body(request: Request) -> Dict[str, Any]:
        if not isinstance(request.body, dict):
            raise BadRequest(f"{request.path} expects a JSON object body")
        return request.body

    def _submit(self, request: Request):
        body = self._body(request)
        tasks = body.get("tasks")
        if not isinstance(tasks, list):
            raise BadRequest('/submit expects {"tasks": [...]}')
        ids = []
        for item in tasks:
            if (
                not isinstance(item, dict)
                or not isinstance(item.get("fn"), str)
                or not isinstance(item.get("task"), dict)
            ):
                raise BadRequest(
                    'each submission must be {"fn": str, "task": {...}}'
                )
            ids.append(self.queue.submit(item["fn"], item["task"]))
        return 200, {"ids": ids}

    def _lease(self, request: Request):
        body = self._body(request)
        worker = body.get("worker")
        if not isinstance(worker, str) or not worker:
            raise BadRequest('/lease expects {"worker": "<id>"}')
        leased = self.queue.lease(worker)
        return 200, {"task": leased, "draining": self.queue.draining}

    def _heartbeat(self, request: Request):
        body = self._body(request)
        worker = body.get("worker")
        if not isinstance(worker, str) or not worker:
            raise BadRequest('/heartbeat expects {"worker": "<id>"}')
        valid = self.queue.heartbeat(worker, body.get("lease_id"))
        return 200, {"lease_valid": valid, "draining": self.queue.draining}

    def _complete(self, request: Request):
        body = self._body(request)
        task_id = body.get("task_id")
        if not isinstance(task_id, str) or "result" not in body:
            raise BadRequest(
                '/complete expects {"task_id": str, "result": ...}'
            )
        accepted = self.queue.complete(
            task_id, body["result"],
            worker=body.get("worker"), stats=body.get("stats"),
        )
        return 200, {"accepted": accepted}

    def _fail(self, request: Request):
        body = self._body(request)
        task_id = body.get("task_id")
        if not isinstance(task_id, str):
            raise BadRequest('/fail expects {"task_id": str, "error": str}')
        retry = self.queue.fail(
            task_id, str(body.get("error", "unknown error")),
            worker=body.get("worker"),
        )
        return 200, {"retry": retry}

    def _result(self, request: Request):
        task_id = request.query.get("id")
        if not task_id:
            raise BadRequest("/result expects ?id=<task_id>")
        return 200, self.queue.get_result(task_id)

    def _status(self, _request: Request):
        status = self.queue.status()
        status["cache"] = self._cache_stats()
        return 200, status

    def _cache_stats(self) -> Optional[Dict[str, Any]]:
        if not self.cache_dir:
            return None
        from repro.exp.cache import ProfileCache

        try:
            return ProfileCache(self.cache_dir).stats()
        except OSError:  # pragma: no cover - unreadable root
            return {"root": str(self.cache_dir), "error": "unreadable"}

    def _drain(self, _request: Request):
        self.queue.drain()
        return 200, {"draining": True}

    # -- lifecycle ---------------------------------------------------------

    def _bind(self) -> ThreadingHTTPServer:
        """Bind the listening socket; resolves an ephemeral :attr:`port`."""
        httpd = ThreadingHTTPServer((self.host, self.port), _Handler)
        httpd.sweep = self
        self.port = httpd.server_address[1]
        return httpd

    def _serve(self, httpd: ThreadingHTTPServer) -> None:
        """Serve until ``httpd.shutdown()``, expiring leases meanwhile."""
        stopped = threading.Event()
        interval = max(0.05, self.queue.lease_ttl / 4.0)

        def expire_leases() -> None:
            while not stopped.wait(interval):
                self.queue.expire()

        expiry = threading.Thread(
            target=expire_leases, name="sweep-lease-expiry", daemon=True
        )
        expiry.start()
        try:
            # The default 0.5 s poll would delay every shutdown by as
            # much.
            httpd.serve_forever(poll_interval=0.05)
        finally:
            stopped.set()
            expiry.join()
            httpd.server_close()

    def serve_forever(self) -> None:
        """Blocking entry point for ``python -m repro.exp.service serve``."""
        try:
            self._serve(self._bind())
        except KeyboardInterrupt:
            pass

    def start_in_background(self) -> "SweepServer":
        """Serve from a private daemon thread; returns self.

        :attr:`port` is resolved (ephemeral binds included) before this
        returns, so callers can hand out :attr:`url` immediately.
        """
        if self._httpd is not None:
            raise ServiceError("server already started")
        self._httpd = self._bind()
        self._thread = threading.Thread(
            target=self._serve, args=(self._httpd,), name="sweep-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop a background server and retire its threads."""
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._thread.join()
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "SweepServer":
        return self.start_in_background()

    def __exit__(self, *_exc) -> None:
        self.stop()

    def __repr__(self) -> str:
        return f"<SweepServer {self.url}>"
