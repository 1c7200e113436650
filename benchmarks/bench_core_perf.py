"""Micro-benchmarks of the library's hot paths.

Not a paper experiment -- these watch the costs the experiment harness
pays per instance: cost evaluation (the 32 000-sample quality protocol
multiplies this), deployment algorithms, a full simulation run, and --
since the compiled-IR refactor -- the compiled array-index evaluation
against a reproduction of the legacy name-dict path it replaced, on the
reference 20-operation x 10-server instance.

Set ``BENCH_SMOKE=1`` to shrink instance sizes and repeat counts for CI
smoke runs: the compiled-vs-legacy parity is still asserted, the
no-regression floor only on the full instance.
"""

import math
import random
import time

import pytest

from repro.algorithms.base import algorithm_registry
from repro.core.cost import CostModel
from repro.core.mapping import Deployment
from repro.core.probability import execution_probabilities
from repro.core.workflow import NodeKind
from repro.network.routing import Router
from repro.simulation.engine import SimulationEngine
from repro.workloads.generator import (
    GraphStructure,
    line_workflow,
    random_bus_network,
    random_graph_workflow,
)

from _common import SMOKE, emit

#: Reference instance for the compiled-vs-legacy comparison.
REF_OPERATIONS = 6 if SMOKE else 20
REF_SERVERS = 3 if SMOKE else 10
REF_EVALUATIONS = 20 if SMOKE else 2_000
REF_REPEATS = 1 if SMOKE else 5
PARITY_TOLERANCE = 1e-9


@pytest.fixture(scope="module")
def line_instance():
    workflow = line_workflow(19, seed=1)
    network = random_bus_network(5, seed=2)
    return workflow, network, CostModel(workflow, network)


@pytest.fixture(scope="module")
def graph_instance():
    workflow = random_graph_workflow(19, GraphStructure.HYBRID, seed=3)
    network = random_bus_network(5, seed=4)
    return workflow, network, CostModel(workflow, network)


def bench_cost_evaluation_line(benchmark, line_instance):
    workflow, network, model = line_instance
    deployment = Deployment.random(workflow, network, random.Random(5))
    breakdown = benchmark(model.evaluate, deployment)
    assert breakdown.execution_time > 0


def bench_cost_evaluation_graph(benchmark, graph_instance):
    workflow, network, model = graph_instance
    deployment = Deployment.random(workflow, network, random.Random(5))
    breakdown = benchmark(model.evaluate, deployment)
    assert breakdown.execution_time > 0


@pytest.mark.parametrize(
    "name",
    ["FairLoad", "FL-TieResolver2", "FL-MergeMsgEnds", "HeavyOps-LargeMsgs"],
)
def bench_algorithm_deploy(benchmark, line_instance, name):
    workflow, network, model = line_instance
    algorithm = algorithm_registry()[name]()
    deployment = benchmark(
        algorithm.deploy, workflow, network, model, 7
    )
    assert deployment.is_complete(workflow)


def bench_simulation_run(benchmark, graph_instance):
    workflow, network, model = graph_instance
    deployment = Deployment.random(workflow, network, random.Random(6))
    engine = SimulationEngine(workflow, network, deployment)
    result = benchmark(engine.run, 9)
    assert result.makespan > 0


# ----------------------------------------------------------------------
# compiled IR vs the legacy name-dict evaluation it replaced
# ----------------------------------------------------------------------
class _LegacyCostModel:
    """The pre-compiled-IR evaluation path, reproduced for comparison.

    Name-keyed dicts, per-query ``cycles / power`` divisions and a
    router call per message -- what ``CostModel.objective`` cost before
    the refactor. Kept here (not in the library) purely so the bench can
    price the old path against the compiled one on equal terms.
    """

    def __init__(self, workflow, network):
        self.workflow = workflow
        self.network = network
        self.router = Router(network)
        has_xor = any(
            op.kind is NodeKind.XOR_SPLIT for op in workflow
        )
        if has_xor:
            self.node_prob = execution_probabilities(workflow)
        else:
            self.node_prob = {n: 1.0 for n in workflow.operation_names}
        self.order = workflow.topological_order()

    def objective(self, deployment):
        totals = {name: 0.0 for name in self.network.server_names}
        for operation in self.workflow:
            server = deployment.server_of(operation.name)
            totals[server] += (
                operation.cycles * self.node_prob[operation.name]
            )
        values = [
            cycles / self.network.server(name).power_hz
            for name, cycles in totals.items()
        ]
        mean = sum(values) / len(values)
        deviations = [abs(v - mean) for v in values]
        penalty = sum(deviations) / len(values)  # mad, the default

        finish = {}
        for name in self.order:
            operation = self.workflow.operation(name)
            incoming = self.workflow.incoming(name)
            if not incoming:
                ready = 0.0
            else:
                arrivals = [
                    finish[m.source]
                    + self.router.transmission_time(
                        deployment.server_of(m.source),
                        deployment.server_of(name),
                        m.size_bits,
                    )
                    for m in incoming
                ]
                if operation.kind is NodeKind.XOR_JOIN:
                    weights = [
                        self.node_prob[m.source] * m.probability
                        for m in incoming
                    ]
                    total = sum(weights)
                    if total <= 0:
                        ready = max(arrivals)
                    else:
                        ready = (
                            sum(w * a for w, a in zip(weights, arrivals))
                            / total
                        )
                elif operation.kind is NodeKind.OR_JOIN:
                    ready = min(arrivals)
                else:
                    ready = max(arrivals)
            server = self.network.server(deployment.server_of(name))
            finish[name] = ready + operation.cycles / server.power_hz
        execution = max(finish[n] for n in self.workflow.exits)
        return 0.5 * execution + 0.5 * penalty


@pytest.fixture(scope="module")
def reference_instance():
    workflow = random_graph_workflow(
        REF_OPERATIONS, GraphStructure.HYBRID, seed=17
    )
    network = random_bus_network(REF_SERVERS, seed=18)
    return workflow, network


def _best_time(fn, repeats=REF_REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_compiled_vs_legacy_evaluation(benchmark, reference_instance):
    """Compiled array-index objective vs the legacy name-dict path."""
    workflow, network = reference_instance
    model = CostModel(workflow, network)
    legacy = _LegacyCostModel(workflow, network)
    rng = random.Random(21)
    deployments = [
        Deployment.random(workflow, network, rng)
        for _ in range(REF_EVALUATIONS)
    ]

    # parity first: the compiled path must reproduce the legacy floats
    for deployment in deployments[: min(50, len(deployments))]:
        compiled_value = model.objective(deployment)
        legacy_value = legacy.objective(deployment)
        assert math.isclose(
            compiled_value, legacy_value,
            rel_tol=PARITY_TOLERANCE, abs_tol=PARITY_TOLERANCE,
        )

    def run_legacy():
        for deployment in deployments:
            legacy.objective(deployment)

    def run_compiled():
        for deployment in deployments:
            model.objective(deployment)

    run_compiled()  # warm the lazy route table before timing
    t_legacy = _best_time(run_legacy)
    t_compiled = _best_time(run_compiled)
    ratio = t_legacy / t_compiled if t_compiled > 0 else float("inf")
    emit(
        "compiled_vs_legacy",
        f"instance: {REF_OPERATIONS} operations x {REF_SERVERS} servers"
        + (" (smoke)" if SMOKE else ""),
        f"legacy name-dict objective:  {t_legacy * 1e3:10.3f} ms "
        f"/ {REF_EVALUATIONS} evaluations",
        f"compiled array objective:    {t_compiled * 1e3:10.3f} ms "
        f"/ {REF_EVALUATIONS} evaluations",
        f"legacy/compiled ratio: {ratio:.2f}x (no-regression floor on "
        f"the full instance: 1.0x)",
    )
    if not SMOKE:
        # no regression: compiled must not be slower than what it replaced
        assert ratio >= 1.0
    benchmark(model.objective, deployments[0])
