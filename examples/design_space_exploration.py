#!/usr/bin/env python
"""Design-space exploration with the declarative experiment API.

Three sweeps the paper discusses, all expressed as scenario grids and
executed by the :class:`~repro.exp.ExperimentRunner` (no hand-rolled
loops):

1. **L2 capacity** -- how the shared-vs-partitioned gap evolves as the
   cache grows (the paper's closing 1 MB data point generalized).
   Every grid point shares one profiling pass: miss curves are
   measured on a virtual L2, so the capacity axis re-profiles nothing.
   The sweep runs against the *persistent* profile cache, so running
   this example a second time re-profiles nothing at all.
2. **Solver x associativity** -- exact DP vs greedy across 4/8-way
   L2s, executed on the thread-pool backend (same records, same
   fingerprints -- backends are interchangeable transports).
3. **Task-to-processor assignment** -- the §3.1 throughput model
   ``1 / max_k Y(P_k)`` comparing naive round-robin pinning with
   LPT + local-search assignment (analytic, no simulation sweep).

Run:  python examples/design_space_exploration.py
"""

from repro.analysis import format_table, report_from_store
from repro.cake import CakeConfig
from repro.core import MethodConfig, ThroughputModel, assign_tasks_lpt
from repro.exp import ExperimentRunner, Scenario, WorkloadSpec, run_scenario, sweep

PIPELINE5 = WorkloadSpec(
    "pipeline", {"n_stages": 5, "n_tokens": 48, "work_bytes": 16 * 1024}
)


def l2_size_sweep():
    # Each sweep gets its own runner (= its own record stream); the
    # memo of profile and baseline payloads is process-wide, so separate
    # runners still share measurements -- and cache=True persists them
    # on disk ($REPRO_PROFILE_CACHE or ~/.cache/repro/profiles), so
    # separate *sessions* share them too.
    runner = ExperimentRunner(workers=2, cache=True)
    scenarios = sweep(
        Scenario(
            workload=PIPELINE5,
            cake=CakeConfig(),
            method=MethodConfig(sizes=[1, 2, 4, 8, 16]),
        ),
        l2_size_kb=[128, 256, 512, 1024],
    )
    store = runner.run(scenarios)
    print(report_from_store(
        store,
        title="L2 capacity sweep (synthetic 5-stage pipeline)",
        columns=("l2_kb", "shared_miss_rate", "partitioned_miss_rate",
                 "miss_reduction_factor"),
    ))
    print(f"profiling passes for {len(scenarios)} scenarios: "
          f"{runner.last_stats['profiles_computed']} computed, "
          f"{runner.last_stats['profiles_from_disk']} from "
          f"{runner.cache.root} (capacity re-profiles nothing; a second "
          f"run of this example re-profiles nothing at all)")


def solver_ways_sweep():
    # Same sweep machinery, different transport: the "async" backend
    # runs scenarios concurrently on a thread pool and produces the
    # same records as inline or pool execution would.
    runner = ExperimentRunner(workers=4, backend="async", cache=True)
    scenarios = sweep(
        Scenario(
            workload=PIPELINE5,
            cake=CakeConfig().with_l2_size(256 * 1024),
            method=MethodConfig(sizes=[1, 2, 4, 8, 16]),
        ),
        l2_ways=[4, 8],
        solver=["dp", "greedy"],
    )
    store = runner.run(scenarios)
    print(report_from_store(
        store,
        title="solver x associativity sweep",
        columns=("l2_ways", "solver", "predicted_misses",
                 "partitioned_misses", "miss_reduction_factor"),
    ))


def assignment_study():
    def build():
        # Heterogeneous stages: two heavy filters among light ones, so
        # the assignment actually matters.
        network = WorkloadSpec(
            "pipeline", {"n_stages": 6, "n_tokens": 32,
                         "work_bytes": 8 * 1024},
        ).build()()
        network.tasks["stage1"].params["reread"] = 6
        network.tasks["stage1"].params["instr"] = 20_000
        network.tasks["stage3"].params["reread"] = 4
        network.tasks["stage3"].params["instr"] = 12_000
        return network

    from repro.exp import register_workload

    register_workload("heterogeneous_pipeline", build, overwrite=True)
    scenario = Scenario(
        workload=WorkloadSpec("heterogeneous_pipeline"),
        cake=CakeConfig(n_cpus=3),
        method=MethodConfig(sizes=[1, 2, 4, 8]),
    )
    outcome = run_scenario(scenario)
    report = outcome.report
    config, profile, plan = scenario.effective_cake, report.profile, report.plan

    model = ThroughputModel(config, profile)
    allocation = plan.units_by_owner
    task_times = {
        name: model.task_time(name, plan.units_of(f"task:{name}"))
        for name in profile.instructions
    }
    naive = {name: i % config.n_cpus
             for i, name in enumerate(sorted(task_times))}
    optimized = assign_tasks_lpt(task_times, config.n_cpus)

    rows = []
    for label, assignment in (("round-robin", naive), ("LPT+swap", optimized)):
        times = model.processor_times(assignment, allocation)
        rows.append((
            label,
            f"{max(times):,.0f}",
            f"{model.throughput(assignment, allocation) * 1e6:.3f}",
        ))
    print(format_table(
        ("assignment", "max_k Y(P_k) cycles", "runs per Mcycle"),
        rows, title="task-to-processor assignment (throughput model, §3.1)",
    ))


def main():
    l2_size_sweep()
    print()
    solver_ways_sweep()
    print()
    assignment_study()


if __name__ == "__main__":
    main()
