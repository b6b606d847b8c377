"""The worker loop: pull, execute, heartbeat, report.

A worker is a plain process (or thread, in tests) that pulls
``{"fn", "task"}`` pairs from the server and runs them through the
*existing* JSON task protocol -- exactly the module-level callables
the in-process backends map (:func:`repro.exp.runner._measure_task` /
:func:`repro.exp.runner._execute_task`), resolved here by protocol
name.  Both are pure functions of their task: execute tasks carry
their measurements, so a worker needs no cache directory, and a client
whose cache is warm submits no measure task -- its fleet re-profiles
nothing.

Robustness contract:

- a background thread heartbeats the active lease at a fraction of the
  server's ``lease_ttl``, so long simulations survive short TTLs while
  a *killed* worker's lease still expires promptly;
- task exceptions are reported via ``/fail`` (the server retries with
  backoff, bounded) and never kill the loop;
- an unreachable server is retried with capped backoff -- workers may
  start before the server and simply wait for it;
- a drain notice or the ``stop`` event ends the loop after the current
  task, never mid-task (graceful shutdown).

Each completion reports the profiling passes the task actually
performed (ground truth from
:func:`repro.core.profiling.thread_profiling_passes`, so workers that
share a process do not count each other's passes), which the server
aggregates -- the "warm fleet re-profiles nothing" claim is observable
at ``/status``.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Any, Callable, Dict, Optional

from repro.core.profiling import thread_profiling_passes
from repro.errors import ConfigurationError, ServiceError
from repro.exp.runner import _execute_task, _measure_task
from repro.exp.service.client import ServiceClient

__all__ = ["TASK_FUNCTIONS", "run_worker", "worker_fn_name"]

#: Protocol name -> the module-level JSON task callable it ships.
TASK_FUNCTIONS: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
    "measure": _measure_task,
    "execute": _execute_task,
}

#: Retreat cap for an unreachable server.
_MAX_SERVER_BACKOFF_S = 5.0


def worker_fn_name(worker: Callable) -> str:
    """The protocol name of a runner task callable.

    Only the JSON task protocol crosses the network -- arbitrary
    callables cannot (and must not) be pickled across machines.
    """
    for name, fn in TASK_FUNCTIONS.items():
        if fn is worker:
            return name
    raise ConfigurationError(
        f"RemoteBackend can only ship the JSON task protocol "
        f"({', '.join(sorted(TASK_FUNCTIONS))}), not {worker!r}"
    )


def _default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}-{threading.get_ident()}"


class _Heartbeat:
    """Beats one lease on a background thread until stopped."""

    def __init__(
        self, client: ServiceClient, worker_id: str, lease_id: str,
        interval: float,
    ):
        self._client = client
        self._worker_id = worker_id
        self._lease_id = lease_id
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"heartbeat-{lease_id}", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self._client.heartbeat(self._worker_id, self._lease_id)
            except ServiceError:
                pass  # transient; the next beat retries

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


def _run_one(
    client: ServiceClient, worker_id: str, leased: Dict[str, Any]
) -> None:
    """Execute one leased task and report its outcome."""
    heartbeat = _Heartbeat(
        client, worker_id, leased["lease_id"],
        interval=max(0.05, leased["lease_ttl"] / 3.0),
    )
    started = time.time()
    passes_before = thread_profiling_passes()
    try:
        fn = TASK_FUNCTIONS.get(leased["fn"])
        if fn is None:
            raise ConfigurationError(
                f"unknown task function {leased['fn']!r} "
                f"(this worker speaks: {', '.join(sorted(TASK_FUNCTIONS))})"
            )
        result = fn(leased["task"])
    except Exception as exc:
        heartbeat.stop()
        try:
            client.fail(
                leased["task_id"],
                f"{type(exc).__name__}: {exc}",
                worker=worker_id,
            )
        except ServiceError:
            pass  # lease expiry will requeue it
    else:
        heartbeat.stop()
        try:
            client.complete(
                leased["task_id"], result, worker=worker_id,
                stats={
                    "profiling_passes":
                        thread_profiling_passes() - passes_before,
                    "wall_s": time.time() - started,
                },
            )
        except ServiceError:
            pass  # result lost with the connection; a retry recomputes


def run_worker(
    url: Optional[str] = None,
    worker_id: Optional[str] = None,
    poll_interval: float = 0.2,
    stop: Optional[threading.Event] = None,
    max_tasks: Optional[int] = None,
    quiet: bool = True,
) -> int:
    """Pull and execute tasks until drained/stopped; returns tasks run.

    ``stop`` (an external :class:`threading.Event`) ends the loop after
    the task in flight; ``max_tasks`` bounds the run for tests.
    """
    client = ServiceClient(url)
    me = worker_id or _default_worker_id()
    stop = stop or threading.Event()
    executed = 0
    backoff = poll_interval
    while not stop.is_set():
        if max_tasks is not None and executed >= max_tasks:
            break
        try:
            reply = client.lease(me)
        except ServiceError:
            # Server not up (yet) or restarting: retreat, capped.
            if stop.wait(backoff):
                break
            backoff = min(backoff * 2.0, _MAX_SERVER_BACKOFF_S)
            continue
        backoff = poll_interval
        if reply.get("draining"):
            if not quiet:
                print(f"worker {me}: server draining, exiting")
            break
        leased = reply.get("task")
        if leased is None:
            stop.wait(poll_interval)
            continue
        if not quiet:
            print(
                f"worker {me}: {leased['fn']} task "
                f"{leased['task_id']} (attempt {leased['attempt']})"
            )
        _run_one(client, me, leased)
        executed += 1
    return executed
