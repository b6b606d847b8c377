"""Distributed sweep in one process: server, fleet, RemoteBackend.

Self-contained demo of ``repro.exp.service``: hosts a sweep server on
an ephemeral port, attaches two worker threads, and runs a small grid
through ``ExperimentRunner(backend=RemoteBackend(...))`` with a
client-side profile cache -- then proves the distributed store is
byte-identical to the inline one and that re-submitting the grid
re-executes nothing (content-addressed dedupe).

In real use the three roles are separate processes, likely on separate
machines.  They share no filesystem: execute tasks carry their
measurements, and only the client reads and writes its cache::

    python -m repro.exp.service serve --port 8642
    REPRO_SWEEP_SERVER=http://HOST:8642 python -m repro.exp.service worker
    REPRO_SWEEP_SERVER=http://HOST:8642 python -m repro.exp.service \
        submit grid.json --cache ~/.cache/repro/profiles \
        --store results.jsonl

Run from the repository root::

    PYTHONPATH=src python examples/remote_sweep.py
"""

import tempfile
import threading

from repro.cake import CakeConfig
from repro.core import MethodConfig
from repro.exp import (
    ExperimentRunner,
    RemoteBackend,
    Scenario,
    ServiceClient,
    SweepServer,
    WorkloadSpec,
    clear_caches,
    run_worker,
    sweep,
)
from repro.mem.cache import CacheGeometry
from repro.mem.hierarchy import HierarchyConfig


def build_grid():
    base = Scenario(
        workload=WorkloadSpec(
            "pipeline",
            {"n_stages": 4, "n_tokens": 24, "token_bytes": 1024,
             "work_bytes": 12 * 1024},
        ),
        cake=CakeConfig(
            n_cpus=2,
            hierarchy=HierarchyConfig(
                l1_geometry=CacheGeometry(sets=16, ways=2, line_size=64),
                l2_geometry=CacheGeometry(sets=256, ways=4, line_size=64),
            ),
        ),
        method=MethodConfig(sizes=[1, 2, 4, 8]),
    )
    return sweep(base, l2_size_kb=[64, 128], solver=["dp", "greedy"])


def main():
    scenarios = build_grid()

    # The reference: the same grid, inline in this process.
    inline = ExperimentRunner(workers=1).run(scenarios)
    clear_caches()  # drop the in-process memos; the fleet starts cold

    with tempfile.TemporaryDirectory() as tmp, \
            SweepServer(port=0, lease_ttl=30.0) as server:
        print(f"sweep server on {server.url}")

        # A two-worker fleet (threads here; processes/machines in real
        # use -- `python -m repro.exp.service worker`).  Workers pull
        # {"fn", "task"} pairs and run the same JSON task protocol the
        # in-process backends map.
        stop = threading.Event()
        fleet = [
            threading.Thread(
                target=run_worker,
                kwargs=dict(url=server.url, worker_id=f"worker-{i}",
                            poll_interval=0.05, stop=stop),
                daemon=True,
            )
            for i in range(2)
        ]
        for thread in fleet:
            thread.start()

        # The client side: a normal ExperimentRunner whose transport is
        # the server.  The runner resolves every measurement through its
        # cache (the fleet measures what is missing) and ships each
        # execute task with the measurements it needs.
        runner = ExperimentRunner(
            backend=RemoteBackend(server.url, poll_interval=0.05),
            cache=f"{tmp}/cache",
            store_path=f"{tmp}/remote.jsonl",
        )
        remote = runner.run(scenarios)

        client = ServiceClient(server.url)
        status = client.status()
        print(f"completed {status['counters']['completed']} tasks "
              f"({status['counters']['profiling_passes']} profiling "
              f"passes) across {len(status['workers'])} workers")
        assert remote.fingerprint() == inline.fingerprint(), \
            "distributed and inline stores must be byte-identical"
        print(f"fingerprint matches inline run: {remote.fingerprint()}")

        # Idempotent re-submission: the measurements now come from the
        # client's cache, and the same grid again is pure dedupe --
        # every task resolves from the server's done set.
        clear_caches()
        again = ExperimentRunner(
            backend=RemoteBackend(server.url, poll_interval=0.05),
            cache=f"{tmp}/cache",
        ).run(scenarios)
        assert again.fingerprint() == inline.fingerprint()
        deduped = client.status()["counters"]["deduped"]
        print(f"re-submission deduped {deduped} tasks "
              f"(nothing re-executed)")

        client.drain()  # workers exit after their current task
        stop.set()
        for thread in fleet:
            thread.join(timeout=10.0)

    header, rows = remote.to_table(
        ("l2_kb", "solver", "shared_miss_rate", "partitioned_miss_rate",
         "miss_reduction_factor")
    )
    print(" | ".join(header))
    for row in rows:
        print(" | ".join(
            f"{value:.4f}" if isinstance(value, float) else str(value)
            for value in row
        ))


if __name__ == "__main__":
    main()
