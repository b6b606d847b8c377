"""Blocking client for the sweep service (backend, workers, CLI, scripts).

The sweep service speaks the smallest useful slice of HTTP: one JSON
request per connection (``Connection: close``) through
:mod:`http.client`.  :class:`ServiceClient` is a thin typed veneer
over it -- every method is one request.  The only stateful nicety is
:meth:`~ServiceClient.wait_healthy`, which polls ``/health`` so
scripts can start a server and a client without choreographing
startup order.
"""

from __future__ import annotations

import http.client
import json
import os
import time
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from repro.errors import ServiceError

__all__ = [
    "SERVER_ENV_VAR",
    "ServiceClient",
    "parse_server_url",
    "request",
    "resolve_server_url",
]

#: Environment override naming the sweep server, honoured by
#: ``RemoteBackend(url=None)`` and every service CLI subcommand.
SERVER_ENV_VAR = "REPRO_SWEEP_SERVER"


def resolve_server_url(url: Optional[str]) -> str:
    """An explicit URL, else ``$REPRO_SWEEP_SERVER``, else an error."""
    resolved = url or os.environ.get(SERVER_ENV_VAR)
    if not resolved:
        raise ServiceError(
            f"no sweep server named: pass url= (e.g. "
            f"http://127.0.0.1:8642) or set ${SERVER_ENV_VAR}"
        )
    return resolved


def parse_server_url(url: str) -> Tuple[str, int]:
    """``http://host:port`` (or bare ``host:port``) -> ``(host, port)``."""
    if "//" not in url:
        url = "http://" + url
    parts = urlsplit(url)
    if parts.scheme not in ("", "http"):
        raise ServiceError(
            f"sweep service URLs are plain http, got {url!r}"
        )
    if not parts.hostname or not parts.port:
        raise ServiceError(
            f"server URL needs host and port, got {url!r} "
            f"(expected e.g. http://127.0.0.1:8642)"
        )
    return parts.hostname, parts.port


def request(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Optional[Any] = None,
    timeout: float = 30.0,
) -> Any:
    """One synchronous JSON request; returns the decoded response body.

    Raises :class:`ServiceError` on any non-200 status or transport
    problem (connection refused surfaces as ``ServiceError`` too, so
    callers retry one exception type).
    """
    body = None if payload is None else json.dumps(payload)
    try:
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        try:
            conn.request(
                method, path, body=body,
                headers={"Content-Type": "application/json",
                         "Connection": "close"},
            )
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
    except (OSError, http.client.HTTPException) as exc:
        raise ServiceError(
            f"sweep service at {host}:{port} unreachable: {exc}"
        ) from exc
    try:
        decoded = json.loads(data) if data else None
    except ValueError as exc:
        raise ServiceError(
            f"non-JSON response from {host}:{port}{path}: {data[:200]!r}"
        ) from exc
    if response.status != 200:
        detail = decoded.get("error") if isinstance(decoded, dict) else decoded
        raise ServiceError(
            f"sweep service {host}:{port}{path} returned "
            f"{response.status}: {detail}"
        )
    return decoded


class ServiceClient:
    """Blocking JSON client bound to one server URL."""

    def __init__(self, url: Optional[str] = None, timeout: float = 30.0):
        self.url = resolve_server_url(url)
        self.host, self.port = parse_server_url(self.url)
        self.timeout = timeout

    def _call(
        self, method: str, path: str, payload: Optional[Any] = None
    ) -> Any:
        return request(
            self.host, self.port, method, path, payload,
            timeout=self.timeout,
        )

    # -- submitting + collecting -------------------------------------------

    def submit(self, tasks: List[Dict[str, Any]]) -> List[str]:
        """Submit ``[{"fn", "task"}, ...]``; returns task ids in order."""
        return self._call("POST", "/submit", {"tasks": tasks})["ids"]

    def result(self, task_id: str) -> Dict[str, Any]:
        return self._call("GET", f"/result?id={task_id}")

    # -- worker side -------------------------------------------------------

    def lease(self, worker: str) -> Dict[str, Any]:
        """``{"task": {...}|None, "draining": bool}``."""
        return self._call("POST", "/lease", {"worker": worker})

    def heartbeat(
        self, worker: str, lease_id: Optional[str] = None
    ) -> Dict[str, Any]:
        return self._call(
            "POST", "/heartbeat", {"worker": worker, "lease_id": lease_id}
        )

    def complete(
        self,
        task_id: str,
        result: Any,
        worker: Optional[str] = None,
        stats: Optional[Dict[str, Any]] = None,
    ) -> bool:
        reply = self._call("POST", "/complete", {
            "task_id": task_id, "result": result,
            "worker": worker, "stats": stats,
        })
        return reply["accepted"]

    def fail(
        self, task_id: str, error: str, worker: Optional[str] = None
    ) -> bool:
        reply = self._call("POST", "/fail", {
            "task_id": task_id, "error": error, "worker": worker,
        })
        return reply["retry"]

    # -- operations --------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        return self._call("GET", "/status")

    def drain(self) -> None:
        self._call("POST", "/drain", {})

    def health(self) -> bool:
        try:
            return bool(self._call("GET", "/health").get("ok"))
        except ServiceError:
            return False

    def wait_healthy(
        self, timeout: float = 10.0, poll_interval: float = 0.1
    ) -> None:
        """Block until ``/health`` answers; for startup choreography."""
        deadline = time.monotonic() + timeout
        while not self.health():
            if time.monotonic() > deadline:
                raise ServiceError(
                    f"no healthy sweep service at {self.url} "
                    f"after {timeout}s"
                )
            time.sleep(poll_interval)

    def __repr__(self) -> str:
        return f"<ServiceClient {self.url}>"
