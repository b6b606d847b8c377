"""``python -m repro.exp.service`` -- serve / worker / submit / status / drain.

The operational face of the distributed sweep service:

- ``serve``    run the work-queue server in the foreground,
- ``worker``   run one pulling worker (start N processes for a fleet),
- ``submit``   run a grid of scenario specs (JSON file) through
  :class:`RemoteBackend` and write the result store JSONL,
- ``status``   print ``/status`` (``--json`` for scripts, ``--wait``
  to block until the server is healthy first),
- ``drain``    stop leasing and tell workers to exit.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from pathlib import Path
from typing import List, Optional

from repro.errors import ReproError
from repro.exp.cli import quiet_broken_pipe
from repro.exp.service.client import SERVER_ENV_VAR, ServiceClient

__all__ = ["main"]


def _add_server_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--server",
        default=None,
        help=f"server URL (default: ${SERVER_ENV_VAR})",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exp.service",
        description="Distributed sweep service: work-queue server, "
        "workers, grid submission.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the work-queue server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642)
    serve.add_argument(
        "--lease-ttl", type=float, default=30.0,
        help="seconds a worker may hold a task without heartbeating",
    )
    serve.add_argument(
        "--max-attempts", type=int, default=3,
        help="lease grants per task before it fails terminally",
    )
    serve.add_argument(
        "--backoff", type=float, default=0.5,
        help="base of the exponential re-lease backoff (seconds)",
    )
    serve.add_argument(
        "--cache", default=None,
        help="ProfileCache root whose stats /status reports (default: "
        "none; workers never read a cache)",
    )

    worker = sub.add_parser("worker", help="run one pulling worker")
    _add_server_argument(worker)
    worker.add_argument("--id", default=None, help="worker id for /status")
    worker.add_argument("--poll", type=float, default=0.2,
                        help="idle poll interval (seconds)")
    worker.add_argument(
        "--max-tasks", type=int, default=None,
        help="exit after this many tasks (default: run until drained)",
    )

    submit = sub.add_parser(
        "submit", help="run a JSON grid of scenarios via the service"
    )
    _add_server_argument(submit)
    submit.add_argument(
        "grid", help="JSON file: a list of Scenario.to_dict() specs"
    )
    submit.add_argument(
        "--store", default=None, help="result store JSONL to write"
    )
    submit.add_argument(
        "--cache", default=None,
        help="ProfileCache root this client resolves measurements "
        "through (workers need no access to it)",
    )
    submit.add_argument("--concurrency", type=int, default=16,
                        help="client-side tasks in flight")

    status = sub.add_parser("status", help="print the server's /status")
    _add_server_argument(status)
    status.add_argument("--json", action="store_true",
                        help="raw JSON for scripts")
    status.add_argument(
        "--wait", type=float, default=None, metavar="SECONDS",
        help="poll /health up to this long before asking",
    )

    drain = sub.add_parser(
        "drain", help="stop leasing; workers exit after their task"
    )
    _add_server_argument(drain)
    return parser


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.exp.service.server import SweepServer

    server = SweepServer(
        host=args.host,
        port=args.port,
        lease_ttl=args.lease_ttl,
        max_attempts=args.max_attempts,
        backoff_base=args.backoff,
        cache_dir=args.cache,
    )
    print(f"sweep server on {server.url} "
          f"(lease ttl {args.lease_ttl}s, {args.max_attempts} attempts)")
    server.serve_forever()
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.exp.service.worker import run_worker

    stop = threading.Event()
    # SIGTERM/SIGINT request a *graceful* exit: finish the task in
    # flight, report it, then leave.
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, lambda *_: stop.set())
        except ValueError:  # pragma: no cover - non-main thread
            pass
    executed = run_worker(
        url=args.server,
        worker_id=args.id,
        poll_interval=args.poll,
        stop=stop,
        max_tasks=args.max_tasks,
        quiet=False,
    )
    print(f"worker exiting after {executed} tasks")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.exp import ExperimentRunner, Scenario
    from repro.exp.service.backend import RemoteBackend

    specs = json.loads(Path(args.grid).read_text())
    if not isinstance(specs, list):
        raise ReproError(
            f"{args.grid} must hold a JSON list of scenario specs"
        )
    scenarios = [Scenario.from_dict(spec) for spec in specs]
    runner = ExperimentRunner(
        backend=RemoteBackend(args.server, concurrency=args.concurrency),
        store_path=args.store,
        cache=args.cache,
    )
    store = runner.run(scenarios)
    header, rows = store.to_table()
    print(" | ".join(header))
    for row in rows:
        print(" | ".join(
            f"{v:.4f}" if isinstance(v, float) else str(v) for v in row
        ))
    print(f"{len(store)} records, fingerprint {store.fingerprint()}")
    print(f"stats: {runner.last_stats}")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    client = ServiceClient(args.server)
    if args.wait is not None:
        client.wait_healthy(timeout=args.wait)
    status = client.status()
    if args.json:
        print(json.dumps(status, sort_keys=True))
        return 0
    queue = status["queue"]
    print(f"sweep server {client.url} "
          f"{'(draining)' if status['draining'] else ''}")
    print(
        f"  queue: {queue['pending']} pending, {queue['leased']} leased, "
        f"{queue['done']} done, {queue['failed']} failed"
    )
    counters = status["counters"]
    print(
        f"  traffic: {counters['submitted']} submitted "
        f"({counters['deduped']} deduped), {counters['completed']} "
        f"completed, {counters['retries']} retries, "
        f"{counters['expired_leases']} expired leases, "
        f"{counters['duplicate_results']} duplicate results, "
        f"{counters['profiling_passes']} profiling passes"
    )
    for name, info in status["workers"].items():
        print(
            f"  worker {name}: {info['completed']} done, "
            f"{info['failed']} failed, seen "
            f"{info['last_seen_s_ago']:.1f}s ago"
        )
    cache = status.get("cache")
    if cache:
        print(
            f"  cache {cache['root']}: {cache['entries']} entries, "
            f"{cache['bytes']} bytes"
        )
    return 0


def _cmd_drain(args: argparse.Namespace) -> int:
    client = ServiceClient(args.server)
    client.drain()
    print(f"draining {client.url}")
    return 0


@quiet_broken_pipe
def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "serve": _cmd_serve,
        "worker": _cmd_worker,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "drain": _cmd_drain,
    }[args.command]
    try:
        return handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
