"""RemoteBackend: the network face of the execution-backend seam.

:class:`~repro.exp.runner.AsyncBackend` documented its own successor:
"a remote/queue backend can replace ``run_in_executor`` with a network
await and keep the rest."  That is literally this class -- it
subclasses :class:`AsyncBackend` and overrides only the
:meth:`~repro.exp.runner.AsyncBackend._dispatch` coroutine: each task
is submitted to the sweep server (content-addressed, so re-submission
is free) and its result awaited by polling.  Ordering, streaming,
laziness, concurrency gating and loop cleanup are all inherited.

Execute tasks carry their measurements as JSON payloads, so the fleet
needs no shared cache directory: the client's runner resolves every
measurement (from its memo, its own
:class:`~repro.exp.cache.ProfileCache`, or measure tasks the fleet
runs) before it submits any execute task.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional

from repro.errors import ServiceError
from repro.exp.runner import AsyncBackend
from repro.exp.service.client import resolve_server_url
from repro.exp.service.wire import arequest, parse_server_url
from repro.exp.service.worker import worker_fn_name

__all__ = ["RemoteBackend"]


class RemoteBackend(AsyncBackend):
    """Ships sweep tasks to a :class:`~repro.exp.service.SweepServer`.

    ``url`` defaults to ``$REPRO_SWEEP_SERVER``.  ``concurrency`` caps
    *client-side* tasks in flight -- keep it at least the worker fleet
    size or the client becomes the bottleneck.  ``connect_retries``
    tolerates a server that is still starting (CI launches both at
    once); ``task_timeout`` bounds how long one task may stay
    non-terminal before the sweep errors out (it spans the server-side
    retry/backoff budget, so keep it generous).

    Closing the result stream early (``close()`` on the generator
    :meth:`map` returns, or dropping it) stops submitting: nothing is
    submitted after ``close()`` returns.  The server does not learn
    that the client left, so the tasks already submitted stay queued
    and run; the concurrency gate keeps at most ``concurrency`` of
    them unfinished when the stream closes.
    """

    name = "remote"

    def __init__(
        self,
        url: Optional[str] = None,
        concurrency: int = 16,
        poll_interval: float = 0.05,
        task_timeout: float = 600.0,
        connect_retries: int = 20,
    ):
        super().__init__(concurrency=concurrency)
        self.url = resolve_server_url(url)
        self.host, self.port = parse_server_url(self.url)
        self.poll_interval = poll_interval
        self.task_timeout = task_timeout
        self.connect_retries = connect_retries

    async def _call(
        self, method: str, path: str, payload: Optional[Any] = None
    ) -> Any:
        """One request, retrying connection-level failures briefly."""
        attempt = 0
        while True:
            try:
                return await arequest(
                    self.host, self.port, method, path, payload
                )
            except ServiceError:
                attempt += 1
                if attempt > self.connect_retries:
                    raise
                await asyncio.sleep(min(0.25 * attempt, 2.0))

    async def _dispatch(
        self, worker, task: Dict[str, Any]
    ) -> Dict[str, Any]:
        fn = worker_fn_name(worker)
        reply = await self._call(
            "POST", "/submit", {"tasks": [{"fn": fn, "task": task}]}
        )
        task_id = reply["ids"][0]
        deadline = asyncio.get_running_loop().time() + self.task_timeout
        while True:
            outcome = await self._call("GET", f"/result?id={task_id}")
            state = outcome.get("state")
            if state == "done":
                return outcome["result"]
            if state == "failed":
                raise ServiceError(
                    f"remote task {task_id} ({fn}) failed after "
                    f"{outcome.get('attempts')} attempts: "
                    f"{outcome.get('error')}"
                )
            if state == "unknown":
                # Evicted between submit and poll (result-budget churn):
                # re-submit -- content addressing makes this idempotent.
                await self._call(
                    "POST", "/submit", {"tasks": [{"fn": fn, "task": task}]}
                )
            if asyncio.get_running_loop().time() > deadline:
                raise ServiceError(
                    f"remote task {task_id} ({fn}) still {state!r} after "
                    f"{self.task_timeout}s -- are any workers attached "
                    f"to {self.url}? (see {self.url}/status)"
                )
            await asyncio.sleep(self.poll_interval)

    def __repr__(self) -> str:
        return (
            f"<RemoteBackend {self.url} concurrency={self.concurrency}>"
        )
