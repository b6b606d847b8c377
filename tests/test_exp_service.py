"""Distributed sweep service: queue semantics, HTTP protocol, parity.

The acceptance contract of the service layer:

- the :class:`WorkQueue` leases with deadlines, retries with bounded
  exponential backoff, dedupes content-identical submissions and keeps
  the first result per task (all pinned with a fake clock),
- the HTTP face round-trips the whole protocol and fails bad traffic
  with useful statuses,
- the end-to-end differential gate: one grid run via (a) inline,
  (b) process pool, (c) server + 2 workers produces byte-identical
  store fingerprints; killing a worker mid-sweep (the lease-expiry
  path) still converges with no lost or duplicated records,
- a warm shared cache means a fresh server + fleet performs zero
  profiling passes.
"""

import json
import threading
import time

import pytest

from repro.core.profiling import profiling_passes
from repro.errors import ConfigurationError, ServiceError
from repro.exp import (
    ExperimentRunner,
    RemoteBackend,
    Scenario,
    ServiceClient,
    SweepServer,
    WorkloadSpec,
    clear_caches,
    make_backend,
    run_worker,
    sweep,
)
from repro.exp.service.cli import main as service_main
from repro.exp.service.client import parse_server_url, request
from repro.exp.service.queue import WorkQueue, task_identity
from repro.exp.service.server import MAX_BODY_BYTES
from repro.cake import CakeConfig
from repro.core import MethodConfig
from repro.mem.cache import CacheGeometry
from repro.mem.hierarchy import HierarchyConfig


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def base_scenario():
    return Scenario(
        workload=WorkloadSpec(
            "pipeline",
            {"n_stages": 3, "n_tokens": 6, "work_bytes": 6 * 1024},
        ),
        cake=CakeConfig(
            n_cpus=2,
            hierarchy=HierarchyConfig(
                l1_geometry=CacheGeometry(sets=16, ways=2, line_size=64),
                l2_geometry=CacheGeometry(sets=256, ways=4, line_size=64),
            ),
        ),
        method=MethodConfig(sizes=[1, 2]),
    )


def smoke_grid():
    return sweep(base_scenario(), l2_size_kb=[64, 128],
                 solver=["dp", "greedy"])


# -- WorkQueue unit contracts (fake clock) -------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def test_queue_dedupes_and_leases_fifo():
    queue = WorkQueue(lease_ttl=10.0)
    first = queue.submit("execute", {"x": 1})
    second = queue.submit("execute", {"x": 2})
    again = queue.submit("execute", {"x": 1})
    assert again == first == task_identity("execute", {"x": 1})
    assert queue.counters["submitted"] == 2
    assert queue.counters["deduped"] == 1

    lease_a = queue.lease("w1")
    lease_b = queue.lease("w2")
    assert lease_a["task"] == {"x": 1} and lease_a["attempt"] == 1
    assert lease_b["task"] == {"x": 2}
    assert queue.lease("w3") is None  # nothing left

    assert queue.complete(first, {"answer": 1}, worker="w1")
    assert queue.get_result(first) == {
        "state": "done", "attempts": 0, "result": {"answer": 1},
    }
    # Idempotent re-submission of a finished task: same id, result
    # immediately collectable, nothing re-queued.
    assert queue.submit("execute", {"x": 1}) == first
    assert queue.lease("w1") is None
    assert queue.get_result("no-such-task") == {"state": "unknown"}


def test_queue_lease_expiry_requeues_with_backoff():
    clock = FakeClock()
    queue = WorkQueue(
        lease_ttl=1.0, max_attempts=3, backoff_base=0.5, clock=clock
    )
    task_id = queue.submit("measure", {"kind": "profile"})
    queue.lease("doomed")
    assert queue.expire() == 0  # within the deadline

    clock.now += 1.5
    assert queue.expire() == 1
    assert queue.counters["expired_leases"] == 1
    assert queue.counters["retries"] == 1
    # Backing off: not leasable until now + backoff_base.
    assert queue.lease("w2") is None
    clock.now += 0.6
    retry = queue.lease("w2")
    assert retry["task_id"] == task_id and retry["attempt"] == 2

    # Heartbeats extend the deadline, so a slow-but-alive worker keeps
    # its lease across many TTLs.
    clock.now += 0.8
    assert queue.heartbeat("w2", retry["lease_id"]) is True
    clock.now += 0.8
    assert queue.expire() == 0
    # A heartbeat on a lost lease says so.
    assert queue.heartbeat("w2", "L999") is False


def test_queue_bounded_attempts_then_terminal_failure():
    clock = FakeClock()
    queue = WorkQueue(
        lease_ttl=1.0, max_attempts=2, backoff_base=0.1, clock=clock
    )
    task_id = queue.submit("execute", {"x": 1})
    queue.lease("w1")
    assert queue.fail(task_id, "boom 1", worker="w1") is True  # retried
    clock.now += 1.0
    assert queue.lease("w1")["attempt"] == 2
    assert queue.fail(task_id, "boom 2", worker="w1") is False  # spent
    result = queue.get_result(task_id)
    assert result["state"] == "failed" and "boom 2" in result["error"]
    assert queue.counters["failed_tasks"] == 1

    # A fresh submission revives a terminally failed task.
    assert queue.submit("execute", {"x": 1}) == task_id
    revived = queue.lease("w1")
    assert revived is not None and revived["attempt"] == 1


def test_queue_first_result_wins_on_expired_lease_race():
    clock = FakeClock()
    queue = WorkQueue(lease_ttl=1.0, backoff_base=0.0, clock=clock)
    task_id = queue.submit("execute", {"x": 1})
    queue.lease("presumed-dead")
    clock.now += 2.0
    queue.expire()
    queue.lease("healthy")
    assert queue.complete(task_id, {"from": "healthy"}, worker="healthy")
    # The presumed-dead worker finishes anyway: dropped, counted.
    assert not queue.complete(task_id, {"from": "dead"}, worker="dead")
    assert queue.get_result(task_id)["result"] == {"from": "healthy"}
    assert queue.counters["duplicate_results"] == 1
    assert queue.counters["completed"] == 1


def test_queue_drain_stops_leasing():
    queue = WorkQueue(lease_ttl=10.0)
    task_id = queue.submit("execute", {"x": 1})
    queue.drain()
    assert queue.lease("w1") is None
    assert queue.draining and queue.status()["draining"]
    # Results of in-flight work are still collectable after drain.
    assert queue.complete(task_id, {"late": True})
    assert queue.get_result(task_id)["state"] == "done"


def test_queue_result_budget_evicts_oldest_done():
    queue = WorkQueue(lease_ttl=10.0, result_budget=2)
    ids = [queue.submit("execute", {"x": i}) for i in range(3)]
    for task_id in ids:
        queue.lease("w")
        queue.complete(task_id, {"x": task_id})
    queue.submit("execute", {"x": 99})  # triggers eviction
    assert queue.get_result(ids[0])["state"] == "unknown"
    assert queue.get_result(ids[2])["state"] == "done"


def test_queue_validates_configuration():
    with pytest.raises(ServiceError):
        WorkQueue(lease_ttl=0.0)
    with pytest.raises(ServiceError):
        WorkQueue(max_attempts=0)


# -- the HTTP face -------------------------------------------------------------


@pytest.fixture
def server():
    # A short retry backoff: the failure-path tests wait out every
    # re-lease on the real clock.
    with SweepServer(port=0, lease_ttl=5.0, backoff_base=0.05) as live:
        yield live


def test_http_protocol_roundtrip(server):
    client = ServiceClient(server.url)
    client.wait_healthy(timeout=5.0)
    ids = client.submit([{"fn": "execute", "task": {"x": 1}}])

    leased = client.lease("w1")["task"]
    assert leased["task_id"] == ids[0] and leased["fn"] == "execute"
    assert client.heartbeat("w1", leased["lease_id"])["lease_valid"]
    client.complete(
        ids[0], {"answer": 42}, worker="w1",
        stats={"profiling_passes": 3, "wall_s": 0.25},
    )
    reply = client.result(ids[0])
    assert reply["state"] == "done" and reply["result"] == {"answer": 42}

    status = client.status()
    assert status["queue"]["done"] == 1
    assert status["workers"]["w1"]["completed"] == 1
    assert status["counters"]["profiling_passes"] == 3
    assert status["cache"] is None  # the server names no cache


def test_http_failure_path_retries_then_fails(server):
    client = ServiceClient(server.url)
    ids = client.submit([{"fn": "execute", "task": {"x": 2}}])
    for attempt in range(1, 4):
        # Wait out the retry backoff (base 0.05s, real clock).
        deadline = time.monotonic() + 10.0
        while True:
            leased = client.lease("w1")["task"]
            if leased is not None:
                break
            assert time.monotonic() < deadline, "task never re-leased"
            time.sleep(0.05)
        assert leased["attempt"] == attempt
        retry = client.fail(ids[0], f"attempt {attempt} broke", worker="w1")
        assert retry is (attempt < 3)
    reply = client.result(ids[0])
    assert reply["state"] == "failed" and "attempt 3 broke" in reply["error"]


def test_http_bad_traffic_gets_useful_statuses(server):
    host, port = parse_server_url(server.url)
    with pytest.raises(ServiceError, match="404"):
        request(host, port, "GET", "/no-such-endpoint")
    with pytest.raises(ServiceError, match="405"):
        request(host, port, "GET", "/submit")  # wrong method
    with pytest.raises(ServiceError, match="400"):
        request(host, port, "POST", "/submit", {"tasks": "not-a-list"})
    with pytest.raises(ServiceError, match="400"):
        request(host, port, "POST", "/lease", {"no": "worker"})
    # Raw non-JSON body, or a declared body over the size limit -> 400,
    # not a wedged connection.
    import http.client

    for body, length in [("this is not json", 16),
                         ("{}", MAX_BODY_BYTES + 1)]:
        conn = http.client.HTTPConnection(host, port, timeout=5.0)
        try:
            conn.request("POST", "/lease", body=body,
                         headers={"Content-Length": str(length)})
            assert conn.getresponse().status == 400
        finally:
            conn.close()


def test_cli_status_json_and_drain(server, capsys):
    client = ServiceClient(server.url)
    client.submit([{"fn": "execute", "task": {"x": 3}}])
    assert service_main(
        ["status", "--server", server.url, "--json", "--wait", "5"]
    ) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["queue"]["pending"] == 1 and not status["draining"]

    assert service_main(["drain", "--server", server.url]) == 0
    assert client.lease("w")["draining"] is True
    # A pulling worker exits promptly on the drain notice.
    assert run_worker(url=server.url, worker_id="w2",
                      poll_interval=0.01) == 0


# -- backend construction ------------------------------------------------------


def test_make_backend_remote_and_helpful_unknown_error(monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_SERVER", "http://127.0.0.1:19999")
    backend = make_backend("remote", workers=1)
    assert isinstance(backend, RemoteBackend)
    assert backend.concurrency >= 16  # fleet-friendly floor
    assert make_backend("remote", workers=40).concurrency == 40

    with pytest.raises(ConfigurationError) as excinfo:
        make_backend("smoke-signals")
    message = str(excinfo.value)
    for name in ("inline", "pool", "async", "remote", "auto"):
        assert name in message


def test_remote_backend_requires_a_server_url(monkeypatch):
    monkeypatch.delenv("REPRO_SWEEP_SERVER", raising=False)
    with pytest.raises(ServiceError, match="REPRO_SWEEP_SERVER"):
        RemoteBackend()


def test_remote_backend_rejects_non_protocol_workers(server):
    backend = RemoteBackend(server.url)
    with pytest.raises(ConfigurationError, match="JSON task protocol"):
        list(backend.map(lambda task: task, [{"x": 1}]))


# -- end-to-end differential gate ----------------------------------------------


def _start_workers(url, count, stop):
    threads = []
    for index in range(count):
        thread = threading.Thread(
            target=run_worker,
            kwargs=dict(url=url, worker_id=f"w{index}",
                        poll_interval=0.02, stop=stop),
            daemon=True,
        )
        thread.start()
        threads.append(thread)
    return threads


def test_three_way_fingerprint_parity_and_warm_fleet(tmp_path):
    scenarios = smoke_grid()
    cache_dir = str(tmp_path / "cache")

    inline = ExperimentRunner(workers=1).run(scenarios)
    clear_caches()
    pooled = ExperimentRunner(workers=2).run(scenarios)
    assert pooled.fingerprint() == inline.fingerprint()
    clear_caches()

    # (c) server + 2 workers, cold client cache.
    with SweepServer(port=0, lease_ttl=10.0,
                     cache_dir=cache_dir) as first_server:
        stop = threading.Event()
        workers = _start_workers(first_server.url, 2, stop)
        runner = ExperimentRunner(
            backend=RemoteBackend(first_server.url, poll_interval=0.02),
            cache=cache_dir,
            store_path=str(tmp_path / "remote.jsonl"),
        )
        remote = runner.run(scenarios)
        assert remote.fingerprint() == inline.fingerprint()
        assert remote.canonical() == inline.canonical()
        assert len(remote) == 4
        assert runner.last_stats["profiles_computed"] == 1

        client = ServiceClient(first_server.url)
        status = client.status()
        assert status["counters"]["profiling_passes"] == 1
        assert status["counters"]["failed_tasks"] == 0
        assert status["cache"]["root"] == cache_dir
        assert status["cache"]["entries"] >= 3  # 1 profile + 2 baselines

        # Re-submitting the same grid to the same server dedupes on
        # content identity: results come straight from the done set.
        clear_caches()
        resubmit_runner = ExperimentRunner(
            backend=RemoteBackend(first_server.url, poll_interval=0.02),
            cache=cache_dir,
        )
        resubmitted = resubmit_runner.run(scenarios)
        assert resubmitted.fingerprint() == inline.fingerprint()
        assert client.status()["counters"]["deduped"] >= 4
        stop.set()
        for thread in workers:
            thread.join(timeout=10.0)

    # A *fresh* server and fleet with a warm client cache: tasks really
    # re-execute, but the client resolves every measurement from disk
    # and ships it inside the tasks -- zero profiling passes anywhere
    # (workers run in-process, so the ground-truth counter sees their
    # work too).
    clear_caches()
    passes_before = profiling_passes()
    with SweepServer(port=0, lease_ttl=10.0) as second_server:
        stop = threading.Event()
        workers = _start_workers(second_server.url, 2, stop)
        warm_runner = ExperimentRunner(
            backend=RemoteBackend(second_server.url, poll_interval=0.02),
            cache=cache_dir,
        )
        warm = warm_runner.run(scenarios)
        stop.set()
        for thread in workers:
            thread.join(timeout=10.0)
        warm_status = ServiceClient(second_server.url).status()
    assert warm.fingerprint() == inline.fingerprint()
    assert profiling_passes() == passes_before
    assert warm_runner.last_stats["profiles_computed"] == 0
    assert warm_runner.last_stats["profiles_from_disk"] == 1
    assert warm_status["counters"]["profiling_passes"] == 0


def test_worker_death_lease_expiry_converges(tmp_path):
    """Kill a worker mid-sweep: its leased task expires, requeues, and
    the surviving worker converges to the exact inline store."""
    scenarios = smoke_grid()
    inline = ExperimentRunner(workers=1).run(scenarios)
    clear_caches()

    with SweepServer(port=0, lease_ttl=0.5, backoff_base=0.05) as server:
        client = ServiceClient(server.url)
        victim = {}

        def crasher():
            # A worker that leases exactly one task and dies without
            # completing, heartbeating or failing it.
            while not victim:
                reply = client.lease("crasher")
                if reply["task"] is not None:
                    victim.update(reply["task"])
                    return
                time.sleep(0.005)

        crash_thread = threading.Thread(target=crasher, daemon=True)
        crash_thread.start()
        stop = threading.Event()

        def healthy_after_the_crash():
            crash_thread.join()
            _start_workers(server.url, 1, stop)

        threading.Thread(target=healthy_after_the_crash,
                         daemon=True).start()

        runner = ExperimentRunner(
            backend=RemoteBackend(
                server.url, poll_interval=0.02, task_timeout=120.0
            ),
            cache=str(tmp_path / "cache"),
        )
        store = runner.run(scenarios)
        stop.set()
        status = client.status()

    assert victim, "the crashing worker never leased a task"
    assert status["counters"]["expired_leases"] >= 1
    assert status["counters"]["retries"] >= 1
    assert status["counters"]["failed_tasks"] == 0
    # No lost and no duplicated records, and bit-identical results.
    assert len(store) == 4
    assert store.fingerprint() == inline.fingerprint()
    assert store.canonical() == inline.canonical()


def test_remote_task_failure_surfaces_after_bounded_retries(server):
    """A task that fails on every attempt errors the sweep instead of
    hanging, and carries the worker's error detail."""
    backend = RemoteBackend(server.url, poll_interval=0.02,
                            task_timeout=30.0)
    stop = threading.Event()

    def broken_worker():
        client = ServiceClient(server.url)
        while not stop.is_set():
            reply = client.lease("broken")
            leased = reply.get("task")
            if leased is None:
                time.sleep(0.01)
                continue
            client.fail(leased["task_id"],
                        "ValueError: injected task failure",
                        worker="broken")

    thread = threading.Thread(target=broken_worker, daemon=True)
    thread.start()
    from repro.exp.runner import _execute_task

    try:
        with pytest.raises(ServiceError, match="injected task failure"):
            list(backend.map(_execute_task, [{"scenario": {}}]))
    finally:
        stop.set()
        thread.join(timeout=5.0)


def test_closed_remote_stream_leaves_at_most_concurrency_unfinished(server):
    """Closing a RemoteBackend stream stops submitting.  The tasks it
    already submitted stay queued and run; the submission window keeps
    at most ``concurrency`` of them unfinished once close() returns."""
    from repro.exp.runner import _execute_task

    concurrency = 2
    backend = RemoteBackend(server.url, concurrency=concurrency,
                            poll_interval=0.01)
    client = ServiceClient(server.url)
    stop = threading.Event()

    def completer():
        # Completes each leased task with its own payload.
        while not stop.is_set():
            leased = client.lease("completer")["task"]
            if leased is None:
                stop.wait(0.005)
                continue
            client.complete(leased["task_id"], leased["task"],
                            worker="completer")

    thread = threading.Thread(target=completer, daemon=True)
    thread.start()
    try:
        stream = backend.map(_execute_task,
                             [{"index": index} for index in range(12)])
        assert next(stream) == {"index": 0}
        stream.close()
        status = client.status()
    finally:
        stop.set()
        thread.join(timeout=5.0)
    assert not thread.is_alive()
    counters, queue = status["counters"], status["queue"]
    assert counters["submitted"] <= counters["completed"] + concurrency
    assert queue["pending"] + queue["leased"] <= concurrency
