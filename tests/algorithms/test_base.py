"""Unit tests for the algorithm base class, context and registry."""

import random

import pytest

from repro.algorithms.base import (
    DeploymentAlgorithm,
    algorithm_registry,
    get_algorithm,
    register_algorithm,
)
from repro.core.cost import CostModel
from repro.core.mapping import Deployment
from repro.exceptions import AlgorithmError
from repro.network.topology import Server, ServerNetwork


class TestRegistry:
    def test_known_algorithms_registered(self):
        registry = algorithm_registry()
        for name in (
            "Exhaustive",
            "Random",
            "Line-Line",
            "FairLoad",
            "FL-TieResolver",
            "FL-TieResolver2",
            "FL-MergeMsgEnds",
            "HeavyOps-LargeMsgs",
            "HillClimbing",
            "SimulatedAnnealing",
        ):
            assert name in registry, name

    def test_get_algorithm(self):
        cls = get_algorithm("FairLoad")
        assert cls().name == "FairLoad"

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(AlgorithmError) as excinfo:
            get_algorithm("NoSuchAlgorithm")
        assert "FairLoad" in str(excinfo.value)

    def test_registry_returns_copy(self):
        registry = algorithm_registry()
        registry["FairLoad"] = None
        assert algorithm_registry()["FairLoad"] is not None

    def test_duplicate_registration_rejected(self):
        with pytest.raises(AlgorithmError):

            @register_algorithm
            class Duplicate(DeploymentAlgorithm):
                name = "FairLoad"

                def _deploy(self, context):  # pragma: no cover
                    return Deployment()

    def test_unnamed_registration_rejected(self):
        with pytest.raises(AlgorithmError):

            @register_algorithm
            class Unnamed(DeploymentAlgorithm):
                def _deploy(self, context):  # pragma: no cover
                    return Deployment()


class _AllOnFirst(DeploymentAlgorithm):
    """Trivial test algorithm: everything on the first server."""

    name = "test-all-on-first"

    def __init__(self):
        self.seen_context = None

    def _deploy(self, context):
        self.seen_context = context
        server = context.network.server_names[0]
        return Deployment(
            {name: server for name in context.workflow.operation_names}
        )


class TestDeployContract:
    def test_deploy_returns_complete_mapping(self, line3, bus3):
        deployment = _AllOnFirst().deploy(line3, bus3)
        assert deployment.is_complete(line3)

    def test_empty_workflow_rejected(self, bus3):
        from repro.core.workflow import Workflow

        with pytest.raises(AlgorithmError):
            _AllOnFirst().deploy(Workflow("empty"), bus3)

    def test_empty_network_rejected(self, line3):
        with pytest.raises(AlgorithmError):
            _AllOnFirst().deploy(line3, ServerNetwork("empty"))

    def test_disconnected_network_rejected(self, line3):
        from repro.exceptions import DisconnectedNetworkError

        network = ServerNetwork("disc")
        network.add_servers([Server("S1", 1e9), Server("S2", 1e9)])
        with pytest.raises(DisconnectedNetworkError):
            _AllOnFirst().deploy(line3, network)

    def test_incomplete_result_rejected(self, line3, bus3):
        class Broken(DeploymentAlgorithm):
            name = "test-broken"

            def _deploy(self, context):
                return Deployment({"A": "S1"})  # misses B and C

        from repro.exceptions import IncompleteMappingError

        with pytest.raises(IncompleteMappingError):
            Broken().deploy(line3, bus3)

    def test_int_seed_and_rng_accepted(self, line3, bus3):
        algorithm = _AllOnFirst()
        algorithm.deploy(line3, bus3, rng=7)
        assert isinstance(algorithm.seen_context.rng, random.Random)
        algorithm.deploy(line3, bus3, rng=random.Random(7))

    def test_cost_model_defaulted(self, line3, bus3):
        algorithm = _AllOnFirst()
        algorithm.deploy(line3, bus3)
        assert isinstance(algorithm.seen_context.cost_model, CostModel)

    def test_shared_cost_model_used(self, line3, bus3):
        model = CostModel(line3, bus3)
        algorithm = _AllOnFirst()
        algorithm.deploy(line3, bus3, cost_model=model)
        assert algorithm.seen_context.cost_model is model


class TestProblemContextWeights:
    def test_line_weights_are_one(self, line3, bus3):
        algorithm = _AllOnFirst()
        algorithm.deploy(line3, bus3)
        context = algorithm.seen_context
        assert all(w == 1.0 for w in context.op_weights.values())
        assert all(w == 1.0 for w in context.msg_weights.values())

    def test_xor_weights_follow_probabilities(self, xor_diamond, bus3):
        algorithm = _AllOnFirst()
        algorithm.deploy(xor_diamond, bus3)
        context = algorithm.seen_context
        assert context.op_weights["left"] == pytest.approx(0.7)
        assert context.msg_weights[("choice", "right")] == pytest.approx(0.3)

    def test_opt_out_of_weighting(self, xor_diamond, bus3):
        class Unweighted(_AllOnFirst):
            name = "test-unweighted"
            uses_probability_weights = False

        algorithm = Unweighted()
        algorithm.deploy(xor_diamond, bus3)
        assert all(
            w == 1.0 for w in algorithm.seen_context.op_weights.values()
        )

    def test_weighted_cycles_and_bits(self, xor_diamond, bus3):
        algorithm = _AllOnFirst()
        algorithm.deploy(xor_diamond, bus3)
        context = algorithm.seen_context
        assert context.weighted_cycles("left") == pytest.approx(0.7 * 20e6)
        assert context.weighted_message_bits(
            "choice", "left"
        ) == pytest.approx(0.7 * 8_000)
        assert context.total_weighted_cycles() == pytest.approx(48e6)

    def test_initial_ideal_cycles(self, line3, bus3):
        algorithm = _AllOnFirst()
        algorithm.deploy(line3, bus3)
        ideal = algorithm.seen_context.initial_ideal_cycles()
        assert ideal == pytest.approx(
            {"S1": 10e6, "S2": 20e6, "S3": 30e6}
        )
