"""The sweep server: an asyncio HTTP face over :class:`WorkQueue`.

One process, one event loop, one queue.  All mutation goes through the
queue's lock-guarded methods (each O(queue) at worst and free of IO),
so handlers never block the loop; the only background work is the
lease-expiry sweep, a periodic coroutine on the same loop.

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

import asyncio
import threading
from typing import Any, Dict, Optional

from repro.errors import ServiceError
from repro.exp.service.queue import WorkQueue
from repro.exp.service.wire import (
    BadRequest,
    Request,
    read_request,
    write_response,
)

__all__ = ["SweepServer"]


class SweepServer:
    """Serve a :class:`WorkQueue` over localhost-grade HTTP.

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    startup).  Use :meth:`serve_forever` from a CLI process, or
    :meth:`start_in_background` / :meth:`stop` to host the server on a
    private loop thread inside tests and examples.
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
        self._server: Optional[asyncio.base_events.Server] = None
        self._expiry_task: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- request handling --------------------------------------------------

    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            try:
                request = await read_request(reader)
                if request is None:
                    return
                status, payload = self._route(request)
            except BadRequest as exc:
                status, payload = 400, {"error": str(exc)}
            except asyncio.IncompleteReadError:
                return  # peer hung up mid-request
            except Exception as exc:  # a handler bug must not kill serving
                status, payload = 500, {
                    "error": f"{type(exc).__name__}: {exc}"
                }
            await write_response(writer, status, payload)
        except (ConnectionError, OSError):
            pass  # peer gone before the response landed
        finally:
            writer.close()

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

    async def _expiry_loop(self) -> None:
        interval = max(0.05, self.queue.lease_ttl / 4.0)
        while True:
            await asyncio.sleep(interval)
            self.queue.expire()

    async def start(self) -> None:
        """Bind and start serving on the running event loop."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._expiry_task = asyncio.ensure_future(self._expiry_loop())

    async def _shutdown(self) -> None:
        if self._expiry_task is not None:
            self._expiry_task.cancel()
            try:
                await self._expiry_task
            except asyncio.CancelledError:
                pass
            self._expiry_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _serve(self) -> None:
        await self.start()
        try:
            await asyncio.Event().wait()  # until cancelled
        finally:
            await self._shutdown()

    def serve_forever(self) -> None:
        """Blocking entry point for ``python -m repro.exp.service serve``."""
        try:
            asyncio.run(self._serve())
        except KeyboardInterrupt:
            pass

    def start_in_background(self) -> "SweepServer":
        """Host the server on a private daemon loop thread; returns self.

        :attr:`port` is resolved (ephemeral binds included) before this
        returns, so callers can hand out :attr:`url` immediately.
        """
        if self._loop is not None:
            raise ServiceError("server already started")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="sweep-server", daemon=True
        )
        self._thread.start()
        asyncio.run_coroutine_threadsafe(self.start(), self._loop).result()
        return self

    def stop(self) -> None:
        """Stop a background server and retire its loop thread."""
        if self._loop is None:
            return
        asyncio.run_coroutine_threadsafe(
            self._shutdown(), self._loop
        ).result()
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._loop.close()
        self._loop = None
        self._thread = None

    def __enter__(self) -> "SweepServer":
        return self.start_in_background()

    def __exit__(self, *_exc) -> None:
        self.stop()

    def __repr__(self) -> str:
        return f"<SweepServer {self.url}>"
