"""The persistent profile cache: differential identity, fault injection.

The contract under test is the one distributed memory systems live by:
identical keys yield identical payloads no matter where (or when) they
were computed, and a damaged entry is *always* a recompute, never a
crash or a changed result.

- **Differential suite** -- warm-cache vs cold-cache vs
  in-process-memoized runs of a 2x3 grid produce byte-identical store
  fingerprints, across ``workers=1`` / ``workers=4`` and across
  separate :class:`ExperimentRunner` instances (cross-session reuse).
- **Fault injection** -- truncated JSON, checksum mismatch, stale
  envelope version, and a concurrent-writer race all read as cache
  misses: the sweep recomputes, the fingerprint is unchanged, and the
  damaged entry is healed on the way out.
- **Acceptance gate** -- a repeated ``python -m repro.exp.smoke``
  against a warm cache performs zero profiling passes (fresh process,
  so the in-process memo cannot help) and reproduces the cold
  fingerprint.
"""

import json
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cake import CakeConfig
from repro.core import MethodConfig
from repro.core.profiling import profiling_passes, reset_profiling_passes
from repro.exp import (
    ExecutionBackend,
    ExperimentRunner,
    ProfileCache,
    Scenario,
    WorkloadSpec,
    clear_caches,
    resolve_cache,
    run_scenario,
    sweep,
)
from repro.exp.cache import (
    CACHE_ENV_VAR,
    CACHE_VERSION,
    KIND_BASELINE,
    KIND_PROFILE,
    default_cache_dir,
    main as cache_cli,
)
from repro.errors import ConfigurationError
from repro.mem.cache import CacheGeometry
from repro.mem.hierarchy import HierarchyConfig

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def fresh_caches():
    """Each test starts with empty memo tables and a zeroed counter."""
    clear_caches()
    reset_profiling_passes()
    yield
    clear_caches()


def small_scenario(**method_kwargs):
    method_kwargs.setdefault("sizes", [1, 2])
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
        method=MethodConfig(**method_kwargs),
    )


def grid_2x3():
    """Two L2 capacities x three solvers: exactly one profile key."""
    return sweep(small_scenario(), l2_size_kb=[64, 128],
                 solver=["dp", "greedy", "milp"])


# -- basic cache behaviour -----------------------------------------------------


def test_put_get_round_trip_and_layout(tmp_path):
    cache = ProfileCache(tmp_path / "cache")
    payload = {"sizes": [1, 2], "values": [0.5, 0.25]}
    path = cache.put(KIND_PROFILE, "abcd1234", payload)
    assert path == tmp_path / "cache" / "profile" / "ab" / "abcd1234.json"
    assert cache.get(KIND_PROFILE, "abcd1234") == payload
    assert cache.get(KIND_PROFILE, "feedbeef") is None
    assert cache.get(KIND_BASELINE, "abcd1234") is None  # kinds are disjoint
    with pytest.raises(ConfigurationError):
        cache.get("plan", "abcd1234")


def test_stats_and_clear(tmp_path):
    cache = ProfileCache(tmp_path / "cache")
    cache.put(KIND_PROFILE, "aa11", {"x": 1})
    cache.put(KIND_BASELINE, "bb22", {"y": 2})
    cache.put(KIND_BASELINE, "cc33", {"z": 3})
    stats = cache.stats()
    assert stats["entries"] == 3
    assert stats["kinds"][KIND_PROFILE]["entries"] == 1
    assert stats["kinds"][KIND_BASELINE]["entries"] == 2
    assert stats["bytes"] > 0
    assert cache.clear() == 3
    assert cache.stats()["entries"] == 0
    assert cache.clear() == 0  # idempotent on an empty root


def test_clear_sweeps_crashed_writer_litter(tmp_path):
    """A writer SIGKILLed between mkstemp and os.replace leaves a
    ``.<key>-XXXX.tmp`` file; clear must remove it (and stats must
    count its bytes) rather than leave the tree growing forever."""
    cache = ProfileCache(tmp_path / "cache")
    entry = cache.put(KIND_PROFILE, "aa11", {"x": 1})
    litter = entry.parent / ".aa11-dead.tmp"
    litter.write_text('{"half-written')
    assert cache.stats()["bytes"] > entry.stat().st_size  # litter counted
    assert cache.clear() == 2  # entry + litter
    assert not litter.exists()
    assert not (tmp_path / "cache" / KIND_PROFILE).exists()  # dirs pruned


def test_cli_stats_and_clear(tmp_path, capsys):
    root = tmp_path / "cli-cache"
    ProfileCache(root).put(KIND_PROFILE, "aa11", {"x": 1})
    assert cache_cli(["stats", "--dir", str(root)]) == 0
    out = capsys.readouterr().out
    assert str(root) in out and "1 entries" in out
    assert cache_cli(["clear", "--dir", str(root)]) == 0
    assert "removed 1 entries" in capsys.readouterr().out
    assert ProfileCache(root).stats()["entries"] == 0


def test_default_dir_honours_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "over"))
    assert default_cache_dir() == tmp_path / "over"
    assert resolve_cache(True).root == tmp_path / "over"
    monkeypatch.delenv(CACHE_ENV_VAR)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == tmp_path / "xdg" / "repro" / "profiles"


def test_resolve_cache_forms(tmp_path):
    assert resolve_cache(None) is None
    assert resolve_cache(False) is None
    cache = ProfileCache(tmp_path)
    assert resolve_cache(cache) is cache
    assert resolve_cache(str(tmp_path / "p")).root == tmp_path / "p"
    with pytest.raises(ConfigurationError):
        resolve_cache(42)


# -- differential identity -----------------------------------------------------


def test_differential_fingerprints_across_caches_workers_and_runners(tmp_path):
    """The ISSUE's core differential: six execution regimes, one hash."""
    scenarios = grid_2x3()
    cache_dir = tmp_path / "cache"
    fingerprints = {}

    # (1) in-process memoized, workers=1.
    memo_runner = ExperimentRunner(workers=1)
    fingerprints["memo-w1"] = memo_runner.run(scenarios).fingerprint()
    # (2) a *second* runner instance against the warm memo tables.
    second_runner = ExperimentRunner(workers=1)
    fingerprints["memo-second-runner"] = \
        second_runner.run(scenarios).fingerprint()
    assert second_runner.last_stats["profiles_computed"] == 0
    assert second_runner.last_stats["profiles_cached"] == 1

    # (3) in-process memoized, workers=4 (pool).
    clear_caches()
    fingerprints["memo-w4"] = \
        ExperimentRunner(workers=4).run(scenarios).fingerprint()

    # (4) cold disk cache, workers=1.
    clear_caches()
    cold = ExperimentRunner(workers=1, cache=cache_dir)
    fingerprints["disk-cold-w1"] = cold.run(scenarios).fingerprint()
    assert cold.last_stats["profiles_computed"] == 1
    assert cold.last_stats["baselines_computed"] == 2

    # (5) warm disk cache, workers=4, fresh runner, cleared memos --
    # the cross-session shape: nothing in this "session" was measured.
    clear_caches()
    warm = ExperimentRunner(workers=4, cache=cache_dir)
    fingerprints["disk-warm-w4"] = warm.run(scenarios).fingerprint()
    assert warm.last_stats["profiles_computed"] == 0
    assert warm.last_stats["profiles_from_disk"] == 1
    assert warm.last_stats["baselines_computed"] == 0
    assert warm.last_stats["baselines_from_disk"] == 2

    # (6) warm disk cache, workers=1: provably zero profiling passes.
    clear_caches()
    passes_before = profiling_passes()
    fingerprints["disk-warm-w1"] = ExperimentRunner(
        workers=1, cache=cache_dir
    ).run(scenarios).fingerprint()
    assert profiling_passes() == passes_before

    assert len(set(fingerprints.values())) == 1, fingerprints


def test_memo_warm_runner_still_backfills_the_disk_cache(tmp_path):
    """Attaching a cache *after* the measurements were memoized must
    still persist them -- the cross-session promise cannot depend on
    which runner measured first."""
    scenarios = sweep(small_scenario(), solver=["dp", "greedy"])
    ExperimentRunner(workers=1).run(scenarios)  # memo only, no disk
    cache = ProfileCache(tmp_path / "late-cache")
    ExperimentRunner(workers=1, cache=cache).run(scenarios)
    assert cache.stats()["entries"] == 2  # 1 profile + 1 baseline
    # A fresh "session" is now fully warm from disk.
    clear_caches()
    warm = ExperimentRunner(workers=1, cache=cache)
    warm.run(scenarios)
    assert warm.last_stats["profiles_computed"] == 0
    assert warm.last_stats["profiles_from_disk"] == 1


def test_cleared_cache_refills_from_a_warm_memo(tmp_path):
    """A cached runner after a clear() re-persists what its warm memo
    tables hold: a memo hit is written back when the cache lacks it."""
    cache = ProfileCache(tmp_path / "cache")
    scenarios = sweep(small_scenario(), solver=["dp", "greedy"])
    ExperimentRunner(workers=1, cache=cache).run(scenarios)
    assert cache.stats()["entries"] == 2
    cache.clear()
    assert cache.stats()["entries"] == 0
    # Memo tables are still warm; the backfill must notice the clear.
    ExperimentRunner(workers=1, cache=cache).run(scenarios)
    assert cache.stats()["entries"] == 2


def test_backfill_replaces_a_stale_entry(tmp_path):
    """An invalid entry occupying the path must not block the
    memo-to-disk backfill: validity, not file existence, gates it."""
    scenarios = sweep(small_scenario(), solver=["dp", "greedy"])
    cache = ProfileCache(tmp_path / "cache")
    ExperimentRunner(workers=1, cache=cache).run(scenarios)
    # Make every entry stale (as if measured by an older simulator).
    for path in _entry_paths(cache.root):
        envelope = json.loads(path.read_text())
        envelope["repro_version"] = "0.0.0"
        path.write_text(json.dumps(envelope))
    # Memo is still warm; a fresh cached runner must re-persist.
    fresh = ExperimentRunner(workers=1, cache=cache)
    fresh.run(scenarios)
    assert fresh.last_stats["profiles_computed"] == 0  # memo hit
    clear_caches()
    warm = ExperimentRunner(workers=1, cache=cache)
    warm.run(scenarios)
    assert warm.last_stats["profiles_computed"] == 0
    assert warm.last_stats["profiles_from_disk"] == 1  # backfill healed it


def test_unwritable_cache_degrades_to_uncached_computation(tmp_path):
    """A cache root that cannot be written (here: an existing regular
    file) must never fail the sweep -- results are simply uncached."""
    bogus_root = tmp_path / "not-a-directory"
    bogus_root.write_text("occupied")
    scenarios = sweep(small_scenario(), solver=["dp", "greedy"])
    reference = ExperimentRunner(workers=1).run(scenarios).fingerprint()
    clear_caches()
    runner = ExperimentRunner(workers=1, cache=bogus_root)
    store = runner.run(scenarios)  # must not raise
    assert store.fingerprint() == reference
    assert runner.last_stats["profiles_computed"] == 1
    # run_scenario degrades the same way.
    clear_caches()
    outcome = run_scenario(small_scenario(), cache=bogus_root)
    assert outcome.report is not None
    assert bogus_root.read_text() == "occupied"  # untouched


class _CapturingBackend(ExecutionBackend):
    """An inline backend that records every task it sees."""

    name = "capturing"

    def __init__(self):
        self.tasks = []

    def map(self, worker, tasks):
        for task in tasks:
            self.tasks.append(task)
            yield worker(task)

    def executes(self):
        return [t for t in self.tasks if "kind" not in t]


def test_execute_tasks_carry_their_measurements(tmp_path, monkeypatch):
    """Every execute task carries its measurements -- profile payloads
    by join group plus the baseline -- even with a cache attached, and
    replays to the same record with cold memo tables and a cache that
    cannot be read: workers never resolve a measurement themselves."""
    from repro.exp import TransitionSpec, make_backend
    from repro.exp.runner import _execute_task
    from repro.exp.store import ScenarioRecord
    from repro.mem.partition import PartitionMode

    base = small_scenario()
    joined = replace(base, transitions=(
        TransitionSpec(at=20_000.0, action="join", workload=base.workload,
                       group="late"),
    ))
    shared = replace(base, partition_mode=PartitionMode.SHARED)
    scenarios = [*sweep(base, solver=["dp", "greedy"]), joined, shared]

    backend = _CapturingBackend()
    store = ExperimentRunner(backend=make_backend(backend),
                             cache=tmp_path / "cache").run(scenarios)
    tasks = backend.executes()
    assert [sorted(task["profiles"]) for task in tasks] == \
        [[""], [""], ["", "late"], []]
    assert all(task["baseline"] for task in tasks)

    clear_caches()

    def unreadable(*_args, **_kwargs):
        raise AssertionError("an execute task read the profile cache")

    monkeypatch.setattr(ProfileCache, "get", unreadable)
    passes_before = profiling_passes()
    for task, record in zip(tasks, store):
        replayed = ScenarioRecord(_execute_task(task))
        assert replayed.canonical() == record.canonical()
    assert profiling_passes() == passes_before


def test_warm_execute_tasks_share_the_payloads_the_cache_returned(
    tmp_path, monkeypatch
):
    """A warm run keeps each measurement as the JSON payload
    ProfileCache.get returned: the execute tasks carry those very
    objects, neither decoded nor re-encoded on the way."""
    from repro.exp.smoke import build_grid

    cache = ProfileCache(tmp_path / "cache")
    scenarios = build_grid()
    ExperimentRunner(cache=cache).run(scenarios)
    clear_caches()

    returned = {}
    real_get = ProfileCache.get

    def recording_get(self, kind, key):
        payload = real_get(self, kind, key)
        returned.setdefault((kind, key), payload)
        return payload

    monkeypatch.setattr(ProfileCache, "get", recording_get)
    backend = _CapturingBackend()
    warm = ExperimentRunner(backend=backend, cache=cache)
    warm.run(scenarios)
    assert warm.last_stats["profiles_from_disk"] == 1
    tasks = backend.executes()
    assert len(tasks) == len(scenarios)
    for scenario, task in zip(scenarios, tasks):
        assert task["profiles"][""] is \
            returned[KIND_PROFILE, scenario.profile_key]
        assert task["baseline"] is \
            returned[KIND_BASELINE, scenario.baseline_key]


def test_run_scenario_uses_and_fills_the_disk_cache(tmp_path):
    cache = ProfileCache(tmp_path / "cache")
    scenario = small_scenario()
    cold = run_scenario(scenario, cache=cache)
    assert cache.stats()["entries"] == 2  # one profile + one baseline
    clear_caches()
    passes_before = profiling_passes()
    warm = run_scenario(scenario, cache=cache)
    assert profiling_passes() == passes_before
    assert warm.record.canonical() == cold.record.canonical()


# -- fault injection -----------------------------------------------------------


def _warm_reference(cache_dir):
    """Cold-run the small grid through a cache; return its fingerprint."""
    scenarios = sweep(small_scenario(), solver=["dp", "greedy"])
    store = ExperimentRunner(workers=1, cache=cache_dir).run(scenarios)
    clear_caches()
    return scenarios, store.fingerprint()


def _entry_paths(cache_dir):
    return sorted(Path(cache_dir).glob("*/*/*.json"))


def _rerun_fingerprint(scenarios, cache_dir):
    clear_caches()
    runner = ExperimentRunner(workers=1, cache=cache_dir)
    return runner.run(scenarios).fingerprint(), runner


def _truncate(path):
    raw = path.read_text()
    path.write_text(raw[: len(raw) // 2])  # mid-JSON truncation


def _binary_garbage(path):
    path.write_bytes(b"\xff\xfe\x00garbage")  # not even valid UTF-8


@pytest.mark.parametrize(
    "corrupt", [_truncate, _binary_garbage], ids=["truncated", "non-utf8"]
)
def test_truncated_entries_recompute_cleanly(tmp_path, corrupt):
    cache_dir = tmp_path / "cache"
    scenarios, reference = _warm_reference(cache_dir)
    for path in _entry_paths(cache_dir):
        corrupt(path)
    fingerprint, runner = _rerun_fingerprint(scenarios, cache_dir)
    assert fingerprint == reference
    assert runner.last_stats["profiles_computed"] == 1  # recomputed, no crash
    assert runner.cache.rejected_count > 0
    # The damaged entries were healed: a further run is fully warm.
    fingerprint, runner = _rerun_fingerprint(scenarios, cache_dir)
    assert fingerprint == reference
    assert runner.last_stats["profiles_computed"] == 0
    assert runner.cache.rejected_count == 0


def test_checksum_mismatch_recomputes_cleanly(tmp_path):
    cache_dir = tmp_path / "cache"
    scenarios, reference = _warm_reference(cache_dir)
    for path in _entry_paths(cache_dir):
        envelope = json.loads(path.read_text())
        envelope["payload"]["sizes"] = [999]  # bit-rot the payload
        path.write_text(json.dumps(envelope))
    fingerprint, runner = _rerun_fingerprint(scenarios, cache_dir)
    assert fingerprint == reference
    assert runner.last_stats["profiles_computed"] == 1
    assert runner.cache.rejected_count > 0


@pytest.mark.parametrize(
    "field,stale_value",
    [("cache_version", CACHE_VERSION - 1), ("repro_version", "0.0.0")],
    ids=["envelope-version", "simulator-version"],
)
def test_stale_version_recomputes_cleanly(tmp_path, field, stale_value):
    """A stale envelope layout *or* a measurement taken by a different
    simulator version reads as a miss -- warm caches must never serve
    numbers an older simulator produced."""
    cache_dir = tmp_path / "cache"
    scenarios, reference = _warm_reference(cache_dir)
    for path in _entry_paths(cache_dir):
        envelope = json.loads(path.read_text())
        envelope[field] = stale_value
        path.write_text(json.dumps(envelope))
    fingerprint, runner = _rerun_fingerprint(scenarios, cache_dir)
    assert fingerprint == reference
    assert runner.last_stats["profiles_computed"] == 1
    assert runner.cache.rejected_count > 0


def test_wrong_key_or_kind_reads_as_miss(tmp_path):
    cache = ProfileCache(tmp_path / "cache")
    path = cache.put(KIND_PROFILE, "aa11", {"x": 1})
    moved = cache.entry_path(KIND_PROFILE, "bb22")
    moved.parent.mkdir(parents=True, exist_ok=True)
    moved.write_text(path.read_text())  # entry filed under the wrong key
    assert cache.get(KIND_PROFILE, "bb22") is None
    assert cache.rejected_count == 1
    # Rejection never unlinks (it could race a healing writer); the
    # damaged file is simply overwritten by the next put.
    assert moved.exists()
    cache.put(KIND_PROFILE, "bb22", {"x": 2})
    assert cache.get(KIND_PROFILE, "bb22") == {"x": 2}


def _race_writer(root, key, payload, barrier, repeats):
    """Hammer one key from a separate process (fork target)."""
    cache = ProfileCache(root)
    barrier.wait()
    for _ in range(repeats):
        cache.put(KIND_PROFILE, key, payload)


def test_concurrent_writers_of_one_key_leave_an_intact_entry(tmp_path):
    """Two processes racing on the same key must never corrupt it.

    Content-addressing makes the race benign -- both writers carry the
    identical payload -- and atomic replace makes every intermediate
    state a complete file.
    """
    root = tmp_path / "cache"
    key = "deadbeefdeadbeef"
    payload = {"sizes": [1, 2, 4], "curves": {"task:a": [[1, 10.0]]}}
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )
    barrier = context.Barrier(2)
    writers = [
        context.Process(
            target=_race_writer, args=(str(root), key, payload, barrier, 50)
        )
        for _ in range(2)
    ]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=60)
        assert writer.exitcode == 0
    reader = ProfileCache(root)
    assert reader.get(KIND_PROFILE, key) == payload
    assert reader.rejected_count == 0
    # No temp-file litter left behind by the atomic writes.
    assert _entry_paths(root) == [reader.entry_path(KIND_PROFILE, key)]
    assert list(root.glob("*/*/.*.tmp")) == []


# -- GC: LRU-by-mtime pruning to a size budget ---------------------------------


def _put_sized(cache, key, mtime, payload_bytes=200):
    """One entry with a pinned mtime (the LRU ordering key)."""
    path = cache.put(KIND_PROFILE, key, {"pad": "x" * payload_bytes})
    os.utime(path, (mtime, mtime))
    return path


def test_gc_prunes_least_recently_written_first(tmp_path):
    cache = ProfileCache(tmp_path / "cache")
    old = _put_sized(cache, "aa01", mtime=1_000)
    mid = _put_sized(cache, "bb02", mtime=2_000)
    new = _put_sized(cache, "cc03", mtime=3_000)
    total = sum(p.stat().st_size for p in (old, mid, new))
    result = cache.gc(max_bytes=total - 1)  # one entry over budget
    assert result["removed"] == 1
    assert not old.exists() and mid.exists() and new.exists()
    # Within budget: nothing further to do.
    assert cache.gc(max_bytes=total)["removed"] == 0
    # Budget 0 empties the cache entirely.
    result = cache.gc(max_bytes=0)
    assert result["removed"] == 2
    assert result["kept"] == 0 and result["kept_bytes"] == 0
    with pytest.raises(ConfigurationError):
        cache.gc(max_bytes=-1)


def test_gc_sweeps_only_stale_writer_litter(tmp_path):
    """Crashed-writer orphans go; a live writer's in-flight temp (young
    mtime, between mkstemp and the atomic replace) is spared."""
    cache = ProfileCache(tmp_path / "cache")
    entry = _put_sized(cache, "aa01", mtime=1_000)
    stale = entry.parent / ".aa01-dead.tmp"
    stale.write_text('{"half-written')
    os.utime(stale, (1_000, 1_000))
    live = entry.parent / ".bb02-live.tmp"
    live.write_text('{"in-flight')  # fresh mtime: presumed live
    result = cache.gc()  # no budget: litter only
    assert result["removed"] == 1
    assert not stale.exists() and live.exists() and entry.exists()
    # Entry pruning likewise never touches the live temp.
    cache.gc(max_bytes=0)
    assert live.exists() and not entry.exists()


def test_gc_deletion_is_atomic_under_a_concurrent_reader(tmp_path):
    """A reader racing gc either wins (opened before the unlink) or
    sees a clean miss -> recompute; never a partial entry.  Driven
    deterministically: the reader resolves between the stat pass and
    the unlink by patching Path.unlink."""
    root = tmp_path / "cache"
    cache = ProfileCache(root)
    payload = {"pad": "x" * 200}
    path = cache.put(KIND_PROFILE, "aa01", payload)
    os.utime(path, (1_000, 1_000))

    reads = []
    real_unlink = Path.unlink

    def racing_unlink(self, *args, **kwargs):
        # The reader gets in just before the delete... then the delete
        # lands, and a second reader sees a plain miss.
        reads.append(ProfileCache(root).get(KIND_PROFILE, "aa01"))
        real_unlink(self, *args, **kwargs)

    import unittest.mock as mock
    with mock.patch.object(Path, "unlink", racing_unlink):
        result = cache.gc(max_bytes=0)
    assert result["removed"] == 1
    assert reads == [payload]  # pre-delete reader saw the full entry
    late = ProfileCache(root)
    assert late.get(KIND_PROFILE, "aa01") is None  # miss, not an error
    assert late.rejected_count == 0  # a miss, never "corruption"


def test_gc_cli_subcommand(tmp_path, capsys):
    cache = ProfileCache(tmp_path / "cache")
    _put_sized(cache, "aa01", mtime=1_000)
    _put_sized(cache, "bb02", mtime=2_000)
    # Without a budget the CLI only sweeps litter: entries stay.
    assert cache_cli(["gc", "--dir", str(tmp_path / "cache")]) == 0
    assert "removed 0 files" in capsys.readouterr().out
    assert len(_entry_paths(tmp_path / "cache")) == 2
    # An explicit budget -- including 0 -- is honoured as-is.
    assert cache_cli(["gc", "--dir", str(tmp_path / "cache"),
                      "--max-bytes", "0"]) == 0
    assert "removed 2 files" in capsys.readouterr().out
    assert _entry_paths(tmp_path / "cache") == []


# -- slim baseline envelopes ---------------------------------------------------


def test_baseline_envelopes_drop_task_stats(tmp_path):
    """Baselines persist without per-task stats (nothing reads them);
    profiles and records are unaffected, and a v1 (fat) entry reads as
    a stale-version miss that heals on recompute."""
    from repro.exp.scenario import run_metrics_from_payload
    cache = ProfileCache(tmp_path / "cache")
    scenario = small_scenario()
    outcome = run_scenario(scenario, cache=cache)
    entry = cache.entry_path(KIND_BASELINE, scenario.baseline_key)
    envelope = json.loads(entry.read_text())
    assert envelope["cache_version"] == CACHE_VERSION
    assert "task_stats" not in envelope["payload"]
    # The slim payload still round-trips into a usable RunMetrics.
    metrics = run_metrics_from_payload(envelope["payload"])
    assert metrics.task_stats == {}
    assert metrics.l2_by_owner
    # A warm re-run from the slim baseline reproduces the record.
    clear_caches()
    again = run_scenario(scenario, cache=cache)
    assert again.record.canonical() == outcome.record.canonical()


# -- the acceptance gate -------------------------------------------------------


def _run_smoke(cache_dir, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env[CACHE_ENV_VAR] = str(cache_dir)
    return subprocess.run(
        [sys.executable, "-m", "repro.exp.smoke", *extra],
        capture_output=True, text=True, timeout=120, env=env,
        cwd=str(REPO_ROOT),
    )


def test_repeated_smoke_reuses_the_cache_across_processes(tmp_path):
    """Acceptance: a second ``python -m repro.exp.smoke`` in a *fresh
    process* performs zero profiling passes against the warm cache and
    reproduces the cold run's fingerprint (asserted inside the smoke,
    which compares warm/cold stores and pass counters)."""
    cache_dir = tmp_path / "cache"
    cold = _run_smoke(cache_dir)
    assert cold.returncode == 0, cold.stdout + cold.stderr
    assert "computed=1" in cold.stdout
    warm = _run_smoke(cache_dir, "--expect-warm")
    assert warm.returncode == 0, warm.stdout + warm.stderr
    assert "profiles computed=0" in warm.stdout


@pytest.mark.parametrize("mode", ["buffered", "unbuffered"])
def test_cli_exits_quietly_when_the_stdout_reader_is_gone(
    tmp_path, run_into_closed_pipe, mode
):
    done = run_into_closed_pipe(
        ["repro.exp.cache", "stats", "--dir", str(tmp_path)], mode
    )
    assert (done.returncode, done.stderr) == (1, b"")


def test_cli_stats_json(tmp_path, capsys):
    root = tmp_path / "json-cache"
    ProfileCache(root).put(KIND_PROFILE, "aa11", {"x": 1})
    assert cache_cli(["stats", "--dir", str(root), "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["root"] == str(root)
    assert stats["entries"] == 1 and stats["bytes"] > 0
    assert stats["kinds"][KIND_PROFILE]["entries"] == 1
