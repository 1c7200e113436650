"""Benches for the library's extensions beyond the paper's experiments.

* branch and bound vs full enumeration (how far pruning pushes the
  exactly-solvable frontier);
* genetic refinement vs the greedy suite;
* single-server failover impact per algorithm (the §2.1 motivation:
  fair deployments should degrade gracefully);
* multi-workflow portfolio deployment (§6 future work).
"""

import pytest

from repro.algorithms.branch_and_bound import BranchAndBound
from repro.algorithms.fair_load import FairLoad
from repro.algorithms.genetic import GeneticAlgorithm
from repro.algorithms.heavy_ops import HeavyOpsLargeMsgs
from repro.core.cost import CostModel
from repro.experiments.failover import analyze_failure
from repro.experiments.multi_workflow import combine_workflows
from repro.experiments.reporting import TextTable, format_seconds
from repro.network.topology import bus_network
from repro.workloads.gallery import healthcare_workflow, ministry_network
from repro.workloads.generator import line_workflow, random_bus_network

from _common import emit


@pytest.mark.parametrize("operations", (6, 8, 10))
def bench_branch_and_bound(benchmark, operations):
    """Exact optimum via pruning where enumeration needs 3**M."""
    workflow = line_workflow(operations, seed=1)
    network = random_bus_network(3, seed=2)
    model = CostModel(workflow, network)
    solver = BranchAndBound()
    deployment = benchmark(solver.deploy, workflow, network, model)
    assert deployment.is_complete(workflow)
    emit(
        f"bnb_{operations}ops",
        f"operations: {operations}; search space 3**{operations} = "
        f"{3 ** operations:,}; nodes explored: {solver.nodes_explored:,}",
    )


def bench_exact_frontier(benchmark):
    """Node counts of B&B vs enumeration sizes across M."""

    def measure():
        rows = []
        for operations in (6, 8, 10, 12):
            workflow = line_workflow(operations, seed=1)
            network = random_bus_network(3, seed=2)
            model = CostModel(workflow, network)
            solver = BranchAndBound()
            solver.deploy(workflow, network, cost_model=model)
            rows.append((operations, 3**operations, solver.nodes_explored))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = TextTable(
        ["M", "enumeration (3**M)", "B&B nodes", "reduction"],
        title="exactly-solvable frontier (3 servers)",
    )
    for operations, full, explored in rows:
        table.add_row(
            [operations, f"{full:,}", f"{explored:,}", f"{full / explored:,.0f}x"]
        )
    emit("exact_frontier", table)


def bench_genetic_refinement(benchmark):
    """GA objective vs its greedy seeds on congested-bus instances."""

    def measure():
        improvements = []
        for seed in range(5):
            workflow = line_workflow(14, seed=seed)
            network = random_bus_network(4, seed=seed + 30)
            model = CostModel(workflow, network)
            greedy = min(
                model.objective(
                    algorithm.deploy(workflow, network, cost_model=model, rng=seed)
                )
                for algorithm in (FairLoad(), HeavyOpsLargeMsgs())
            )
            genetic = model.objective(
                GeneticAlgorithm(generations=30).deploy(
                    workflow, network, cost_model=model, rng=seed
                )
            )
            improvements.append(1.0 - genetic / greedy)
        return improvements

    improvements = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = TextTable(["metric", "value"], title="genetic refinement vs greedy")
    table.add_row(
        ["mean objective improvement", f"{sum(improvements) / len(improvements):.1%}"]
    )
    table.add_row(["max objective improvement", f"{max(improvements):.1%}"])
    emit("genetic_refinement", table)


def bench_failover_impact(benchmark):
    """Worst single-failure degradation per deployment algorithm."""
    workflow = healthcare_workflow()
    network = ministry_network(speed_bps=10e6)
    model = CostModel(workflow, network)
    algorithms = [FairLoad(), HeavyOpsLargeMsgs()]

    def measure():
        rows = []
        for algorithm in algorithms:
            deployment = algorithm.deploy(
                workflow, network, cost_model=model, rng=1
            )
            worst_exec = 1.0
            worst_peak = 1.0
            for server in network.server_names:
                report = analyze_failure(
                    workflow, network, deployment, server
                )
                worst_exec = max(worst_exec, report.execution_scale_up)
                worst_peak = max(worst_peak, report.peak_load_scale_up)
            rows.append((algorithm.name, worst_exec, worst_peak))
        return rows

    rows = benchmark.pedantic(measure, rounds=2, iterations=1)
    table = TextTable(
        ["algorithm", "worst_exec_scale_up", "worst_peak_load_scale_up"],
        title="single-server failure impact (healthcare workflow, 10 Mbps)",
    )
    for name, worst_exec, worst_peak in rows:
        table.add_row([name, f"{worst_exec:.2f}x", f"{worst_peak:.2f}x"])
    emit("failover_impact", table)


def bench_constraint_price(benchmark):
    """What a fairness cap costs in execution time (§6 constraints).

    On a congested bus HOLM buys speed with unfairness; tightening a
    MaxTimePenalty cap forces the constraint-aware search to give speed
    back. The sweep shows the price curve."""
    from repro.algorithms.constrained import ConstraintAwareSearch
    from repro.core.constraints import ConstraintSet, MaxTimePenalty

    workflow = line_workflow(14, seed=2)
    network = bus_network([1e9, 2e9, 3e9], speed_bps=1e6)
    model = CostModel(workflow, network)
    unconstrained = HeavyOpsLargeMsgs().deploy(
        workflow, network, cost_model=model
    )
    base = model.evaluate(unconstrained)

    def measure():
        rows = []
        for fraction in (1.0, 0.5, 0.25, 0.1):
            limit = base.time_penalty * fraction
            constraints = ConstraintSet([MaxTimePenalty(limit)])
            deployment = ConstraintAwareSearch(constraints=constraints).deploy(
                workflow, network, cost_model=model
            )
            cost = model.evaluate(deployment)
            rows.append(
                (fraction, constraints.satisfied(cost), cost.execution_time)
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = TextTable(
        ["penalty cap (x HOLM's)", "admissible", "Texecute"],
        title=(
            f"price of fairness caps (HOLM baseline: "
            f"{format_seconds(base.execution_time)} at penalty "
            f"{format_seconds(base.time_penalty)})"
        ),
    )
    for fraction, admissible, execution in rows:
        table.add_row(
            [f"{fraction:g}", "yes" if admissible else "NO", format_seconds(execution)]
        )
    emit("constraint_price", table)


def bench_incremental_adaptation(benchmark):
    """Patch-in-place vs full re-deployment after adding an operation."""
    from repro.core.workflow import Operation
    from repro.experiments.incremental import adaptation_report

    def measure():
        overheads, churn = [], []
        for seed in range(6):
            workflow = line_workflow(15, seed=seed)
            network = random_bus_network(4, seed=seed + 60)
            old = HeavyOpsLargeMsgs().deploy(workflow, network, rng=seed)
            grown = workflow.copy(f"{workflow.name}-grown")
            grown.add_operation(Operation("NEW", 25e6))
            grown.connect(workflow.operation_names[-1], "NEW", 5_000)
            report = adaptation_report(
                grown, network, old, HeavyOpsLargeMsgs(), rng=seed
            )
            overheads.append(report.patch_overhead)
            churn.append(len(report.moved_by_redeployment))
        return overheads, churn

    overheads, churn = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = TextTable(
        ["metric", "value"],
        title="incremental patch vs full re-deployment (one op added)",
    )
    table.add_row(
        ["mean patch overhead", f"{sum(overheads) / len(overheads):+.1%}"]
    )
    table.add_row(["max patch overhead", f"{max(overheads):+.1%}"])
    table.add_row(
        [
            "mean ops moved by re-deployment",
            f"{sum(churn) / len(churn):.1f} (patch moves 0)",
        ]
    )
    emit("incremental_adaptation", table)


def bench_multi_workflow_portfolio(benchmark):
    """Joint deployment of a 3-workflow portfolio (section 6)."""
    workflows = [
        healthcare_workflow(),
        line_workflow(12, seed=21),
        line_workflow(10, seed=22),
    ]
    network = ministry_network()
    combined = combine_workflows(workflows)
    model = CostModel(combined, network)

    def deploy():
        return HeavyOpsLargeMsgs().deploy(combined, network, cost_model=model)

    deployment = benchmark(deploy)
    cost = model.evaluate(deployment)
    table = TextTable(["metric", "value"], title="portfolio deployment")
    table.add_row(["workflows", len(workflows)])
    table.add_row(["operations", len(combined)])
    table.add_row(["Texecute (max over workflows)", format_seconds(cost.execution_time)])
    table.add_row(["TimePenalty (combined loads)", format_seconds(cost.time_penalty)])
    emit("multi_workflow_portfolio", table)
