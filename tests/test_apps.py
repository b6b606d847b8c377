"""Tests for the paper's two workloads (structure + behaviour)."""

import pytest

from repro.apps import mpeg2_workload, two_jpeg_canny_workload
from repro.cake import CakeConfig, Platform
from repro.errors import ConfigurationError
from repro.mem.cache import CacheGeometry
from repro.mem.hierarchy import HierarchyConfig
from repro.mem.partition import PartitionMode

PAPER_APP1_TASKS = {
    "FrontEnd1", "IDCT1", "Raster1", "BackEnd1",
    "FrontEnd2", "IDCT2", "Raster2", "BackEnd2",
    "Fr.canny", "LowPass", "HorizSobel", "VertSobel",
    "HorizNMS", "VertNMS", "MaxTreshold",
}
PAPER_APP2_TASKS = {
    "input", "vld", "hdr", "isiq", "memMan", "idct", "add",
    "decMV", "predict", "predictRD", "writeMB", "store", "output",
}


def small_config():
    return CakeConfig(
        hierarchy=HierarchyConfig(
            l1_geometry=CacheGeometry(sets=16, ways=2, line_size=64),
            l2_geometry=CacheGeometry(sets=256, ways=4, line_size=64),
        ),
    )


def test_app1_has_the_papers_15_tasks():
    network = two_jpeg_canny_workload(scale="test")
    assert set(network.tasks) == PAPER_APP1_TASKS
    network.validate()


def test_app2_has_the_papers_13_tasks():
    network = mpeg2_workload(scale="test")
    assert set(network.tasks) == PAPER_APP2_TASKS
    network.validate()


def test_unknown_scale_rejected():
    with pytest.raises(ConfigurationError):
        two_jpeg_canny_workload(scale="huge")
    with pytest.raises(ConfigurationError):
        mpeg2_workload(scale="huge")


def weak_components(network):
    """The §3.1 graph's weakly connected components, as task-name sets."""
    component = {name: {name} for name in network.tasks}
    for fifo in network.fifos.values():
        a, b = component[fifo.producer], component[fifo.consumer]
        if a is not b:
            a |= b
            for name in b:
                component[name] = a
    return list({id(c): c for c in component.values()}.values())


def is_acyclic(network):
    """Kahn's algorithm: every task gets removed iff no FIFO cycle."""
    indegree = dict.fromkeys(network.tasks, 0)
    for fifo in network.fifos.values():
        indegree[fifo.consumer] += 1
    removed = [name for name, n in indegree.items() if n == 0]
    for name in removed:  # grows as tasks lose their last input
        for fifo in network.fifos.values():
            if fifo.producer == name:
                indegree[fifo.consumer] -= 1
                if indegree[fifo.consumer] == 0:
                    removed.append(fifo.consumer)
    return len(removed) == len(indegree)


def test_app1_graph_is_three_chains():
    components = weak_components(two_jpeg_canny_workload(scale="test"))
    assert len(components) == 3  # two decoders + canny
    sizes = sorted(len(c) for c in components)
    assert sizes == [4, 4, 7]


def test_app2_graph_connected_and_acyclic():
    network = mpeg2_workload(scale="test")
    assert len(weak_components(network)) == 1
    assert is_acyclic(network)


def test_app1_runs_shared_and_partitioned():
    for mode in (PartitionMode.SHARED, PartitionMode.SET_PARTITIONED):
        network = two_jpeg_canny_workload(scale="test", frames=1)
        platform = Platform(network, small_config(), mode=mode)
        if mode is PartitionMode.SET_PARTITIONED:
            units = {f"task:{t}": 1 for t in network.tasks}
            platform.cache_controller.program_set_partitions(units)
        metrics = platform.run()
        assert platform.all_done()
        assert metrics.l2_accesses > 0


def test_app2_runs_shared():
    network = mpeg2_workload(scale="test", frames=1)
    platform = Platform(network, small_config())
    metrics = platform.run()
    assert platform.all_done()
    # Every task executed instructions.
    for name in PAPER_APP2_TASKS:
        assert metrics.task_stats[name].instructions > 0, name


def test_app1_every_task_reaches_l2():
    network = two_jpeg_canny_workload(scale="test", frames=1)
    platform = Platform(network, small_config())
    metrics = platform.run()
    for task in PAPER_APP1_TASKS:
        assert f"task:{task}" in metrics.l2_by_owner, task


def test_raster_working_set_scales_with_width():
    wide = two_jpeg_canny_workload(scale="paper")
    narrow = two_jpeg_canny_workload(scale="test")
    assert (
        wide.tasks["Raster1"].heap_bytes > wide.tasks["Raster2"].heap_bytes
    )
    assert (
        wide.tasks["Raster1"].heap_bytes > narrow.tasks["Raster1"].heap_bytes
    )


def test_app2_reference_frames_declared_fully_cacheable():
    network = mpeg2_workload(scale="paper")
    ref = network.frames["mpeg_ref0"]
    assert ref.window_bytes == ref.size_bytes


def test_app_frames_parameter_scales_work():
    one = two_jpeg_canny_workload(scale="test", frames=1)
    two = two_jpeg_canny_workload(scale="test", frames=2)
    p1 = Platform(one, small_config())
    p2 = Platform(two, small_config())
    m1, m2 = p1.run(), p2.run()
    assert m2.instructions > 1.5 * m1.instructions
