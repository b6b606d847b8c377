"""Result store: schema round-trip, queries, fingerprints, reports."""

import json

import pytest

from repro.analysis import report_from_store
from repro.cake import CakeConfig
from repro.core import MethodConfig
from repro.errors import ConfigurationError
from repro.exp import ResultStore, Scenario, ScenarioRecord, WorkloadSpec
from repro.exp.runner import _base_record
from repro.mem.cache import CacheGeometry
from repro.mem.hierarchy import HierarchyConfig


def make_record(solver="dp", shared_misses=100, part_misses=20, tag=""):
    """A synthetic record in the stable schema (no simulation needed)."""
    scenario = Scenario(
        workload=WorkloadSpec("pipeline", {"n_stages": 3}),
        cake=CakeConfig(
            n_cpus=2,
            hierarchy=HierarchyConfig(
                l1_geometry=CacheGeometry(sets=16, ways=2, line_size=64),
                l2_geometry=CacheGeometry(sets=256, ways=4, line_size=64),
            ),
        ),
        method=MethodConfig(sizes=[1, 2], solver=solver),
        tag=tag,
    )
    payload = _base_record(scenario)
    payload["metrics"]["shared"] = {
        "accesses": 1000, "misses": shared_misses,
        "miss_rate": shared_misses / 1000, "mean_cpi": 1.4,
        "instructions": 5000, "elapsed_cycles": 9000.0,
        "cross_evictions": 42, "dram_lines": 200,
        "misses_by_owner": {"task:stage0": shared_misses},
    }
    payload["metrics"]["partitioned"] = {
        "accesses": 1000, "misses": part_misses,
        "miss_rate": part_misses / 1000, "mean_cpi": 1.1,
        "instructions": 5000, "elapsed_cycles": 8000.0,
        "cross_evictions": 0, "dram_lines": 60,
        "misses_by_owner": {"task:stage0": part_misses},
    }
    payload["plan"] = {
        "units_by_owner": {"task:stage0": 4}, "total_units": 32,
        "predicted_misses": float(part_misses),
    }
    payload["compositionality"] = {
        "max_relative_difference": 0.01, "total_simulated": part_misses,
    }
    payload["timing"] = {"wall_s": 1.5, "created_unix": 1_000_000.0}
    return payload


def test_store_appends_and_streams_jsonl(tmp_path):
    path = tmp_path / "results.jsonl"
    store = ResultStore(path=path)
    store.append(make_record(solver="dp"))
    store.append(make_record(solver="greedy"))
    lines = path.read_text().splitlines()
    assert len(lines) == 2  # records stream as they arrive
    assert json.loads(lines[0])["schema"] == 1


def test_store_roundtrips_through_load(tmp_path):
    path = tmp_path / "results.jsonl"
    store = ResultStore(path=path)
    store.append(make_record(solver="dp"))
    store.append(make_record(solver="greedy", part_misses=10))
    loaded = ResultStore.load(path)
    assert len(loaded) == 2
    assert loaded.canonical() == store.canonical()
    assert loaded.fingerprint() == store.fingerprint()
    assert [r.payload for r in loaded] == [r.payload for r in store]


def test_store_append_mode_extends_existing_file(tmp_path):
    path = tmp_path / "results.jsonl"
    ResultStore(path=path).append(make_record())
    appended = ResultStore(path=path, append=True)
    assert len(appended) == 1
    appended.append(make_record(solver="greedy"))
    assert len(ResultStore.load(path)) == 2
    # Default (no append) truncates.
    fresh = ResultStore(path=path)
    assert len(fresh) == 0 and path.read_text() == ""


def test_fingerprint_ignores_timing_only(tmp_path):
    a, b = make_record(), make_record()
    b["timing"] = {"wall_s": 99.0, "created_unix": 2_000_000.0}
    store_a, store_b = ResultStore(), ResultStore()
    store_a.append(a)
    store_b.append(b)
    assert store_a.fingerprint() == store_b.fingerprint()
    c = make_record(part_misses=21)
    store_c = ResultStore()
    store_c.append(c)
    assert store_c.fingerprint() != store_a.fingerprint()


def test_record_rejects_unknown_schema():
    payload = make_record()
    payload["schema"] = 99
    with pytest.raises(ConfigurationError):
        ScenarioRecord(payload)


def test_record_derived_metrics():
    record = ScenarioRecord(make_record(shared_misses=100, part_misses=20))
    assert record.miss_reduction_factor == pytest.approx(5.0)
    assert record.cpi_improvement == pytest.approx((1.4 - 1.1) / 1.4)
    assert record.shared_miss_rate == pytest.approx(0.1)
    assert record.plan == {"task:stage0": 4}
    perfect = ScenarioRecord(make_record(part_misses=0))
    assert perfect.miss_reduction_factor == float("inf")


def test_record_scenario_roundtrip():
    record = ScenarioRecord(make_record(solver="greedy"))
    scenario = record.scenario
    assert scenario.method.solver == "greedy"
    assert scenario.scenario_id == record.scenario_id


def test_filter_by_axes_and_predicate():
    store = ResultStore()
    store.append(make_record(solver="dp"))
    store.append(make_record(solver="greedy"))
    store.append(make_record(solver="greedy", part_misses=50))
    assert len(store.filter(solver="dp")) == 1
    assert len(store.filter(solver="greedy")) == 2
    assert len(store.filter(solver="milp")) == 0
    good = store.filter(lambda r: r.miss_reduction_factor > 3)
    assert len(good) == 2


def test_to_table_default_and_custom_columns():
    store = ResultStore()
    store.append(make_record())
    header, rows = store.to_table()
    assert "workload" in header and "miss_reduction_factor" in header
    assert len(rows) == 1
    header, rows = store.to_table(("solver", "partitioned_misses"))
    assert rows == [["dp", 20]]


def test_filter_by_identity_fields():
    store = ResultStore()
    store.append(make_record(solver="dp"))
    store.append(make_record(solver="greedy"))
    target = store.records[0]
    hits = store.filter(scenario_id=target.scenario_id)
    assert hits.records == [target]
    assert store.filter(scenario_id="0123456789abcdef").records == []
    # profile_key narrows the same way, and composes with axes.
    keyed = store.filter(profile_key=target.profile_key, solver="dp")
    assert keyed.records == [target]
    assert store.filter(profile_key=target.profile_key,
                        solver="milp").records == []


_MISSING = object()


def test_filter_by_identity_matches_brute_force_on_5k_records():
    """Identity and axis filters give the same records, in append order,
    as a brute-force scan over a 5000-record store."""
    import copy

    template = make_record()
    store = ResultStore()
    for i in range(5000):
        payload = copy.deepcopy(template)
        payload["scenario_id"] = f"sid{i % 500:04d}"
        # Every 10th record is shared-mode (no profiling identity).
        payload["profile_key"] = None if i % 10 == 0 else f"pk{i % 40:03d}"
        payload["axes"]["solver"] = "dp" if i % 2 == 0 else "greedy"
        payload["axes"]["seed"] = i % 7
        store.append(payload)

    def linear(scenario_id=_MISSING, profile_key=_MISSING, **axes):
        result = []
        for record in store.records:
            if scenario_id is not _MISSING and \
                    record.scenario_id != scenario_id:
                continue
            if profile_key is not _MISSING and \
                    record.profile_key != profile_key:
                continue
            if any(record.axes.get(k) != v for k, v in axes.items()):
                continue
            result.append(record)
        return result

    queries = [
        {"scenario_id": "sid0000"},
        {"scenario_id": "sid0499"},
        {"scenario_id": "sid0123", "solver": "greedy"},
        {"scenario_id": "no-such-id"},
        {"profile_key": "pk000"},
        {"profile_key": "pk039", "seed": 4},
        {"profile_key": None},  # the shared-mode records
        {"scenario_id": "sid0004", "profile_key": "pk004"},
        {"scenario_id": "sid0004", "profile_key": "pk017"},  # disjoint
    ]
    for query in queries:
        assert store.filter(**query).records == linear(**query), query

    # Records appended after a first query are found too.
    late = copy.deepcopy(template)
    late["scenario_id"] = "sid-late"
    store.append(late)
    assert [r.scenario_id for r in store.filter(scenario_id="sid-late")] \
        == ["sid-late"]


def test_report_from_store_renders_axes_and_metrics():
    store = ResultStore()
    store.append(make_record(solver="dp"))
    store.append(make_record(solver="greedy", part_misses=0))
    text = report_from_store(store, title="unit sweep")
    assert "unit sweep (2 scenarios)" in text
    assert "dp" in text and "greedy" in text
    assert "∞" in text  # the perfect record renders as infinity
    assert "worst compositionality" in text


def _append_records(path, worker_index, count, barrier):
    """One appender process: its own ResultStore on the shared file."""
    store = ResultStore(path=path, append=True)
    barrier.wait()  # maximise interleaving
    for i in range(count):
        store.append(make_record(shared_misses=worker_index * 1000 + i))


def test_concurrent_appenders_interleave_whole_lines(tmp_path):
    """Four processes appending to one store file concurrently: every
    record survives intact (the O_APPEND single-write mirror never
    tears or overwrites a line)."""
    import multiprocessing

    path = tmp_path / "concurrent.jsonl"
    ResultStore(path=path)  # create the shared file once
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(4)
    processes = [
        ctx.Process(
            target=_append_records, args=(str(path), w, 25, barrier)
        )
        for w in range(4)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=60)
        assert process.exitcode == 0

    # Load would raise on any torn line; the counter check catches a
    # lost (overwritten) record.
    loaded = ResultStore.load(path)
    assert len(loaded) == 100
    assert sorted(r.shared["misses"] for r in loaded) == sorted(
        w * 1000 + i for w in range(4) for i in range(25)
    )
