"""RemoteBackend: the network face of the execution-backend seam.

Each task is submitted to the sweep server (content-addressed, so
re-submission is free) and its result collected by polling, through
the blocking :class:`~repro.exp.service.client.ServiceClient`.  Like
the in-process backends, it yields results in task order and keeps a
bounded window of tasks in flight.

Execute tasks carry their measurements as JSON payloads, so the fleet
needs no shared cache directory: the client's runner resolves every
measurement (from its memo, its own
:class:`~repro.exp.cache.ProfileCache`, or measure tasks the fleet
runs) before it submits any execute task.
"""

from __future__ import annotations

import time
from collections import deque
from itertools import count, islice
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError, ServiceError
from repro.exp.runner import ExecutionBackend
from repro.exp.service.client import ServiceClient
from repro.exp.service.worker import worker_fn_name

__all__ = ["RemoteBackend"]

#: Failed requests retried per call, with a growing pause, so a client
#: tolerates a server that is still starting (CI launches both at once).
CONNECT_RETRIES = 20


class RemoteBackend(ExecutionBackend):
    """Ships sweep tasks to a :class:`~repro.exp.service.SweepServer`.

    ``url`` defaults to ``$REPRO_SWEEP_SERVER``.  ``concurrency`` caps
    *client-side* tasks in flight -- keep it at least the worker fleet
    size or the client becomes the bottleneck.  ``task_timeout`` bounds
    how long one task may stay non-terminal after its submission before
    the sweep errors out (it spans the server-side retry/backoff
    budget, so keep it generous).

    :meth:`map` keeps up to ``concurrency`` submitted tasks it has not
    collected yet, submitting each batch of free slots in one
    ``/submit`` call.  It polls only the oldest task's ``/result``, and
    submits the next task when it collects that one.  Closing the
    result stream early (``close()`` on the generator :meth:`map`
    returns, or dropping it) stops submitting: nothing is submitted
    after ``close()`` returns.  The server does not learn that the
    client left, so the tasks already submitted stay queued and run;
    at most ``concurrency`` of them are unfinished when the stream
    closes.
    """

    def __init__(
        self,
        url: Optional[str] = None,
        concurrency: int = 16,
        poll_interval: float = 0.05,
        task_timeout: float = 600.0,
    ):
        if concurrency < 1:
            raise ConfigurationError(
                f"concurrency must be >= 1, got {concurrency}"
            )
        self.client = ServiceClient(url)
        self.url = self.client.url
        self.concurrency = concurrency
        self.poll_interval = poll_interval
        self.task_timeout = task_timeout

    def _call(self, method, *args) -> Any:
        """One client call, retrying failed requests briefly."""
        for attempt in count(1):
            try:
                return method(*args)
            except ServiceError:
                if attempt > CONNECT_RETRIES:
                    raise
                time.sleep(min(0.25 * attempt, 2.0))

    def map(self, worker, tasks):
        fn = worker_fn_name(worker)
        pending = iter(tasks)
        # (task, task_id, submitted_at) of the tasks not yet collected,
        # oldest first.
        window = deque()
        while True:
            batch = list(islice(pending, self.concurrency - len(window)))
            if batch:
                ids = self._call(
                    self.client.submit,
                    [{"fn": fn, "task": task} for task in batch],
                )
                submitted = time.monotonic()
                window.extend(
                    (task, task_id, submitted)
                    for task, task_id in zip(batch, ids)
                )
            if not window:
                return
            yield self._collect(fn, *window.popleft())

    def _collect(
        self, fn: str, task: Dict[str, Any], task_id: str, submitted: float
    ) -> Dict[str, Any]:
        """Poll one task's ``/result`` until it is done."""
        deadline = submitted + self.task_timeout
        while True:
            outcome = self._call(self.client.result, task_id)
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
                self._call(self.client.submit, [{"fn": fn, "task": task}])
            if time.monotonic() > deadline:
                raise ServiceError(
                    f"remote task {task_id} ({fn}) still {state!r} after "
                    f"{self.task_timeout}s -- are any workers attached "
                    f"to {self.url}? (see {self.url}/status)"
                )
            time.sleep(self.poll_interval)

    def __repr__(self) -> str:
        return (
            f"<RemoteBackend {self.url} concurrency={self.concurrency}>"
        )
