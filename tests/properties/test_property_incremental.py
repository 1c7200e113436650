"""Property tests: the incremental engine tracks the full cost model.

Two guarantees are exercised here:

* **equivalence** -- over random instances (line and graph structure,
  XOR probabilities, every fairness statistic) and random move
  sequences, :class:`MoveEvaluator` and
  ``CompiledInstance.components`` agree with ``CostModel.evaluate`` to
  within ``1e-9``;
* **regression** -- the seeded local-search algorithms return the exact
  same deployment as the frozen full-evaluation oracles of
  :mod:`tests.oracles`, so the rewiring cannot have changed any
  published experiment.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.local_search import HillClimbing, SimulatedAnnealing
from repro.core.cost import PENALTY_MODES, CostModel
from repro.core.incremental import MoveEvaluator
from repro.core.mapping import Deployment
from repro.workloads.generator import (
    GraphStructure,
    line_workflow,
    random_bus_network,
    random_graph_workflow,
)
from tests.oracles import (
    FullEvaluationHillClimbing,
    FullEvaluationSimulatedAnnealing,
)

TOLERANCE = 1e-9

sizes = st.integers(min_value=2, max_value=18)
server_counts = st.integers(min_value=1, max_value=6)
seeds = st.integers(min_value=0, max_value=10_000)
structures = st.sampled_from([None] + list(GraphStructure))
modes = st.sampled_from(PENALTY_MODES)


def instance(size, servers, seed, structure, mode):
    if structure is None:
        workflow = line_workflow(size, seed=seed)
    else:
        # graph structures introduce decision nodes, including XOR splits
        # whose branch probabilities weight the cost model
        workflow = random_graph_workflow(size, structure, seed=seed)
    network = random_bus_network(servers, seed=seed + 1)
    model = CostModel(workflow, network, penalty_mode=mode)
    deployment = Deployment.random(workflow, network, random.Random(seed))
    return workflow, network, model, deployment


def assert_in_sync(evaluator, model, deployment):
    full = model.evaluate(deployment)
    assert abs(evaluator.objective - full.objective) <= TOLERANCE
    assert abs(evaluator.execution_time - full.execution_time) <= TOLERANCE
    assert abs(evaluator.time_penalty - full.time_penalty) <= TOLERANCE


@given(
    size=sizes,
    servers=server_counts,
    seed=seeds,
    structure=structures,
    mode=modes,
)
@settings(max_examples=60, deadline=None)
def test_move_evaluator_tracks_cost_model(size, servers, seed, structure, mode):
    workflow, network, model, deployment = instance(
        size, servers, seed, structure, mode
    )
    evaluator = MoveEvaluator(model, deployment)
    assert_in_sync(evaluator, model, deployment)
    rng = random.Random(seed + 2)
    operations = workflow.operation_names
    servers_list = network.server_names
    for _ in range(15):
        operation = rng.choice(operations)
        server = rng.choice(servers_list)
        outcome = evaluator.propose(operation, server)
        # the priced move equals a from-scratch evaluation of the move
        trial = deployment.copy()
        trial.assign(operation, server)
        trial_cost = model.evaluate(trial)
        assert abs(outcome.objective - trial_cost.objective) <= TOLERANCE
        assert (
            abs(outcome.execution_time - trial_cost.execution_time)
            <= TOLERANCE
        )
        assert abs(outcome.time_penalty - trial_cost.time_penalty) <= TOLERANCE
        # commit roughly half the proposals and re-check the running state
        if rng.random() < 0.5 and server != outcome.previous_server:
            evaluator.commit()
            assert_in_sync(evaluator, model, deployment)


@given(
    size=sizes,
    servers=server_counts,
    seed=seeds,
    structure=structures,
    mode=modes,
)
@settings(max_examples=60, deadline=None)
def test_compiled_components_track_cost_model(
    size, servers, seed, structure, mode
):
    workflow, network, model, _ = instance(size, servers, seed, structure, mode)
    compiled = model.compiled
    rng = random.Random(seed + 3)
    for _ in range(5):
        row = [
            rng.randrange(compiled.num_servers)
            for _ in range(compiled.num_ops)
        ]
        execution, penalty, objective = compiled.components(row)
        genome = [compiled.server_names[index] for index in row]
        full = model.evaluate(
            Deployment(dict(zip(compiled.op_names, genome)))
        )
        assert abs(execution - full.execution_time) <= TOLERANCE
        assert abs(penalty - full.time_penalty) <= TOLERANCE
        assert abs(objective - full.objective) <= TOLERANCE


@given(size=sizes, servers=server_counts, seed=seeds, mode=modes)
@settings(max_examples=40, deadline=None)
def test_frequent_resync_changes_nothing(size, servers, seed, mode):
    # resyncing after every commit must be observationally identical to
    # the default interval -- it only re-derives the same state
    workflow, network, model, deployment = instance(
        size, servers, seed, None, mode
    )
    evaluator = MoveEvaluator(model, deployment)
    rng = random.Random(seed + 4)
    for _ in range(10):
        server = rng.choice(network.server_names)
        outcome = evaluator.propose(
            rng.choice(workflow.operation_names), server
        )
        if server != outcome.previous_server:
            evaluator.commit()
            evaluator.resync()
    assert_in_sync(evaluator, model, deployment)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("structure", [None, GraphStructure.HYBRID])
def test_hill_climbing_unchanged_by_incremental_pricing(seed, structure):
    if structure is None:
        workflow = line_workflow(9, seed=seed)
    else:
        workflow = random_graph_workflow(12, structure, seed=seed)
    network = random_bus_network(4, seed=seed + 50)
    model = CostModel(workflow, network)
    results = {}
    for algorithm in (HillClimbing(), FullEvaluationHillClimbing()):
        deployment = algorithm.deploy(
            workflow, network, cost_model=model, rng=random.Random(seed)
        )
        results[type(algorithm)] = deployment.as_dict()
    assert results[HillClimbing] == results[FullEvaluationHillClimbing]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("structure", [None, GraphStructure.BUSHY])
def test_simulated_annealing_unchanged_by_incremental_pricing(seed, structure):
    if structure is None:
        workflow = line_workflow(9, seed=seed)
    else:
        workflow = random_graph_workflow(12, structure, seed=seed)
    network = random_bus_network(4, seed=seed + 70)
    model = CostModel(workflow, network)
    results = {}
    for algorithm in (
        SimulatedAnnealing(steps=400),
        FullEvaluationSimulatedAnnealing(steps=400),
    ):
        deployment = algorithm.deploy(
            workflow, network, cost_model=model, rng=random.Random(seed)
        )
        results[type(algorithm)] = deployment.as_dict()
    assert results[SimulatedAnnealing] == (
        results[FullEvaluationSimulatedAnnealing]
    )
