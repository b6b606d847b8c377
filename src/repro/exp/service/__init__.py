"""Distributed sweeps: a work-queue server, workers, and RemoteBackend.

Every backend moves *only* JSON task dicts, and execute tasks carry
their measurements as JSON payloads; this package adds the network
transport so those same tasks cross machines, with no shared
filesystem:

- :mod:`repro.exp.service.queue` -- :class:`WorkQueue`: leases with
  deadlines, bounded retry with exponential backoff, content-addressed
  task dedupe, first-result-wins collection, draining.
- :mod:`repro.exp.service.server` -- :class:`SweepServer`: the stdlib
  :class:`http.server.ThreadingHTTPServer` over the queue, with
  ``/status`` observability and a lease-expiry thread.
- :mod:`repro.exp.service.worker` -- the pulling worker loop
  (``python -m repro.exp.service worker``): heartbeats, graceful
  shutdown, per-task profiling-pass accounting.
- :mod:`repro.exp.service.backend` -- :class:`RemoteBackend`, the
  :class:`~repro.exp.runner.ExecutionBackend` that submits tasks to
  the server and polls their results in task order; plug it in with
  ``ExperimentRunner(backend="remote")`` (``$REPRO_SWEEP_SERVER``) or
  ``backend=RemoteBackend(url)``.
- :mod:`repro.exp.service.client` / :mod:`~repro.exp.service.cli` --
  the blocking JSON client every other part speaks through, and the
  ``serve``/``worker``/``submit``/``status``/``drain`` CLI.

The contract mirrors the rest of the platform: a grid run via server
plus N workers produces a :class:`~repro.exp.store.ResultStore`
fingerprint byte-identical to :class:`~repro.exp.runner.InlineBackend`,
and a client with a warm :class:`~repro.exp.cache.ProfileCache` makes
the fleet perform zero profiling passes (observable at ``/status``).
"""

from repro.exp.service.backend import RemoteBackend
from repro.exp.service.client import SERVER_ENV_VAR, ServiceClient
from repro.exp.service.queue import WorkQueue, task_identity
from repro.exp.service.server import SweepServer
from repro.exp.service.worker import TASK_FUNCTIONS, run_worker

__all__ = [
    "RemoteBackend",
    "SERVER_ENV_VAR",
    "ServiceClient",
    "SweepServer",
    "TASK_FUNCTIONS",
    "WorkQueue",
    "run_worker",
    "task_identity",
]
