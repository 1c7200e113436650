"""Unit tests for the incremental move-evaluation engine."""

import random

import pytest

from repro.core.cost import PENALTY_MODES, CostModel
from repro.core.incremental import MoveEvaluator
from repro.core.mapping import Deployment
from repro.exceptions import DeploymentError
from repro.workloads.generator import (
    GraphStructure,
    random_bus_network,
    random_graph_workflow,
)

TOLERANCE = 1e-9


def make_instance(size=8, servers=4, seed=7, penalty_mode="mad"):
    workflow = random_graph_workflow(size, GraphStructure.HYBRID, seed=seed)
    network = random_bus_network(servers, seed=seed + 1)
    model = CostModel(workflow, network, penalty_mode=penalty_mode)
    deployment = Deployment.random(workflow, network, random.Random(seed))
    return workflow, network, model, deployment


class TestMoveEvaluatorLifecycle:
    def test_attach_matches_full_evaluation(self):
        _, _, model, deployment = make_instance()
        evaluator = MoveEvaluator(model, deployment)
        full = model.evaluate(deployment)
        assert evaluator.objective == pytest.approx(full.objective, abs=TOLERANCE)
        assert evaluator.execution_time == pytest.approx(
            full.execution_time, abs=TOLERANCE
        )
        assert evaluator.time_penalty == pytest.approx(
            full.time_penalty, abs=TOLERANCE
        )

    def test_propose_prices_without_mutating(self):
        workflow, network, model, deployment = make_instance()
        evaluator = MoveEvaluator(model, deployment)
        before = deployment.as_dict()
        operation = workflow.operation_names[0]
        target = next(
            s
            for s in network.server_names
            if s != deployment.server_of(operation)
        )
        outcome = evaluator.propose(operation, target)
        # the deployment and the evaluator state are untouched
        assert deployment.as_dict() == before
        assert evaluator.objective != outcome.objective or outcome.delta == 0.0
        # the priced objective equals a from-scratch evaluation of the move
        trial = deployment.copy()
        trial.assign(operation, target)
        full = model.evaluate(trial)
        assert outcome.objective == pytest.approx(full.objective, abs=TOLERANCE)
        assert outcome.execution_time == pytest.approx(
            full.execution_time, abs=TOLERANCE
        )
        assert outcome.time_penalty == pytest.approx(
            full.time_penalty, abs=TOLERANCE
        )
        assert outcome.delta == pytest.approx(
            full.objective - model.objective(deployment), abs=TOLERANCE
        )

    def test_commit_applies_into_attached_deployment(self):
        workflow, network, model, deployment = make_instance()
        evaluator = MoveEvaluator(model, deployment)
        operation = workflow.operation_names[0]
        target = next(
            s
            for s in network.server_names
            if s != deployment.server_of(operation)
        )
        outcome = evaluator.propose(operation, target)
        committed = evaluator.commit()
        assert committed is outcome
        assert deployment.server_of(operation) == target
        assert evaluator.objective == pytest.approx(
            model.objective(deployment), abs=TOLERANCE
        )

    def test_commit_without_propose_rejected(self):
        _, _, model, deployment = make_instance()
        evaluator = MoveEvaluator(model, deployment)
        with pytest.raises(DeploymentError):
            evaluator.commit()
        # a same-server propose clears any pending move
        operation = next(iter(deployment.as_dict()))
        evaluator.propose(operation, deployment.server_of(operation))
        with pytest.raises(DeploymentError):
            evaluator.commit()

    def test_unknown_server_rejected(self):
        workflow, _, model, deployment = make_instance()
        evaluator = MoveEvaluator(model, deployment)
        with pytest.raises(DeploymentError):
            evaluator.propose(workflow.operation_names[0], "no-such-server")

    def test_noop_move_has_zero_delta(self):
        workflow, _, model, deployment = make_instance()
        evaluator = MoveEvaluator(model, deployment)
        operation = workflow.operation_names[0]
        outcome = evaluator.propose(operation, deployment.server_of(operation))
        assert outcome.delta == 0.0
        assert outcome.server == outcome.previous_server

    @pytest.mark.parametrize("mode", PENALTY_MODES)
    def test_random_apply_sequence_stays_in_sync(self, mode):
        workflow, network, model, deployment = make_instance(
            size=10, servers=3, seed=11, penalty_mode=mode
        )
        evaluator = MoveEvaluator(model, deployment)
        rng = random.Random(99)
        operations = workflow.operation_names
        servers = network.server_names
        for _ in range(40):
            server = rng.choice(servers)
            outcome = evaluator.propose(rng.choice(operations), server)
            if server != outcome.previous_server:
                evaluator.commit()
            full = model.evaluate(deployment)
            assert evaluator.objective == pytest.approx(
                full.objective, abs=TOLERANCE
            )

    def test_attach_validates_once(self):
        workflow, network, model, _ = make_instance()
        broken = Deployment({workflow.operation_names[0]: "S1"})
        with pytest.raises(DeploymentError):
            MoveEvaluator(model, broken)
