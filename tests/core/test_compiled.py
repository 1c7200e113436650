"""Unit tests for the compiled problem IR (:mod:`repro.core.compiled`).

The parity property suite (``tests/properties/test_property_compiled``)
pins the numeric behaviour against a pre-refactor oracle; these tests
cover the artifact's structure -- index maps, tables, memoised caches --
and the sharing contract: the cost model, the move evaluators, the
simulation engine and the fleet must all consume the *same*
``CompiledInstance`` object.
"""

import random

import pytest

from repro.core.builder import WorkflowBuilder
from repro.core.compiled import (
    JOIN_MAX,
    JOIN_MIN,
    JOIN_XOR,
    PENALTY_MODES,
    CompiledInstance,
    penalty_statistic,
)
from repro.core.cost import CostModel
from repro.core.incremental import MoveEvaluator
from repro.core.mapping import Deployment
from repro.core.workflow import Message, NodeKind, Operation, Workflow
from repro.exceptions import DeploymentError, UnknownServerError
from repro.network.routing import Router
from repro.network.topology import ServerNetwork, bus_network, line_network
from repro.simulation.engine import SimulationEngine
from repro.service.state import FleetState
from repro.workloads.generator import (
    GraphStructure,
    line_workflow,
    random_bus_network,
    random_graph_workflow,
)


def xor_workflow():
    """start -> XOR(a: 0.75 | b: 0.25) -> join -> end."""
    builder = WorkflowBuilder("compiled-xor", default_message_bits=8e6)
    builder.task("start", 4e9)
    builder.split(NodeKind.XOR_SPLIT, "split", 1e9)
    builder.branch(probability=0.75)
    builder.task("a", 2e9)
    builder.branch(probability=0.25)
    builder.task("b", 6e9)
    builder.join("join", 1e9)
    builder.task("end", 3e9, message_bits=4e6)
    return builder.build()


@pytest.fixture
def instance():
    workflow = xor_workflow()
    network = bus_network((2e9, 3e9, 4e9), speed_bps=1e8)
    return workflow, network, CompiledInstance(workflow, network)


class TestCompilation:
    def test_index_maps_cover_the_instance(self, instance):
        workflow, network, compiled = instance
        assert compiled.op_names == workflow.operation_names
        assert compiled.server_names == network.server_names
        assert [compiled.op_index[n] for n in compiled.op_names] == list(
            range(compiled.num_ops)
        )
        assert tuple(
            compiled.op_names[i] for i in compiled.order
        ) == workflow.topological_order()
        assert {compiled.op_names[i] for i in compiled.exits} == set(
            workflow.exits
        )

    def test_tproc_table_is_cycles_over_power(self, instance):
        workflow, network, compiled = instance
        for i, name in enumerate(compiled.op_names):
            cycles = workflow.operation(name).cycles
            for j, server in enumerate(compiled.server_names):
                expected = cycles / network.server(server).power_hz
                assert compiled.tproc[i][j] == expected

    def test_probability_weighted_arrays(self, instance):
        workflow, _, compiled = instance
        a = compiled.op_index["a"]
        b = compiled.op_index["b"]
        assert compiled.node_prob[a] == pytest.approx(0.75)
        assert compiled.node_prob[b] == pytest.approx(0.25)
        assert compiled.wcycles[a] == compiled.cycles[a] * 0.75
        assert compiled.use_probabilities

    def test_join_codes(self, instance):
        _, _, compiled = instance
        join = compiled.op_index["join"]
        start = compiled.op_index["start"]
        assert compiled.join_code[join] == JOIN_XOR
        assert compiled.join_code[start] == JOIN_MAX
        assert JOIN_MIN not in compiled.join_code  # no OR join here

    def test_ideal_cycles_are_capacity_proportional(self, instance):
        _, network, compiled = instance
        total = compiled.total_weighted_cycles
        for j, server in enumerate(compiled.server_names):
            expected = (
                total
                * network.server(server).power_hz
                / network.total_power_hz
            )
            assert compiled.ideal_cycles[j] == expected

    def test_route_table_is_filled_whole_with_affine_coefficients(
        self, instance
    ):
        _, _, compiled = instance
        assert compiled.routes[0][0] == (0.0, 0.0)  # co-located
        assert all(None not in row for row in compiled.routes)
        size = 8e6
        delay = compiled.delay(0, 1, size)
        coeff = compiled.routes[0][1]
        assert len(coeff) == 2
        assert delay == coeff[0] + size * coeff[1]
        assert delay == compiled.router.transmission_time("S1", "S2", size)
        assert compiled.delay(0, 0, size) == 0.0

    def test_dirty_order_is_descendants_in_topo_order(self, instance):
        workflow, _, compiled = instance
        start = compiled.op_index["start"]
        region = compiled.dirty_order(start)
        assert region[0] == start
        assert len(region) == compiled.num_ops  # start reaches everything
        positions = {op: i for i, op in enumerate(compiled.order)}
        assert list(region) == sorted(region, key=positions.__getitem__)
        end = compiled.op_index["end"]
        assert compiled.dirty_order(end) == (end,)
        assert compiled.dirty_order(start) is region  # memoised

    def test_decision_scopes_span_split_to_join(self, instance):
        _, _, compiled = instance
        scopes = compiled.decision_scopes()
        split = compiled.op_index["split"]
        assert set(scopes) == {split}
        members = {compiled.op_names[i] for i in scopes[split]}
        assert members == {"split", "a", "b", "join"}

    def test_server_index_of_rejects_unknown_servers(self, instance):
        _, _, compiled = instance
        assert compiled.server_index_of("S2") == 1
        with pytest.raises(UnknownServerError):
            compiled.server_index_of("nope")

    def test_validation_matches_cost_model_errors(self):
        workflow = xor_workflow()
        network = bus_network((1e9, 2e9), speed_bps=1e8)
        with pytest.raises(DeploymentError, match="penalty mode"):
            CompiledInstance(workflow, network, penalty_mode="bogus")
        with pytest.raises(DeploymentError, match="weights"):
            CompiledInstance(workflow, network, execution_weight=-1.0)
        cyclic = Workflow("cycle")
        cyclic.add_operation(Operation("A", cycles=1e9))
        cyclic.add_operation(Operation("B", cycles=1e9))
        cyclic.add_transition(Message("A", "B", size_bits=1.0))
        cyclic.add_transition(Message("B", "A", size_bits=1.0))
        with pytest.raises(DeploymentError, match="contains a cycle"):
            CompiledInstance(cyclic, network)

    def test_router_over_another_server_order_rejected(self):
        # the route table is read in the router's server order
        workflow = xor_workflow()
        network = bus_network((1e9, 2e9, 3e9), speed_bps=1e8)
        reordered = ServerNetwork("reordered")
        reordered.add_servers(
            [network.server(name) for name in reversed(network.server_names)]
        )
        with pytest.raises(DeploymentError, match="same order"):
            CompiledInstance(workflow, network, router=Router(reordered))

    def test_penalty_statistic_modes(self):
        values = [1.0, 3.0]
        assert penalty_statistic(values, "mad") == 1.0
        assert penalty_statistic(values, "sum_abs") == 2.0
        assert penalty_statistic(values, "max") == 1.0
        assert penalty_statistic(values, "std") == 1.0
        assert penalty_statistic([], "mad") == 0.0
        assert set(PENALTY_MODES) == {"mad", "sum_abs", "max", "std"}


class TestSharing:
    """One artifact per instance: nobody rebuilds Tproc/route tables."""

    def test_cost_model_builds_and_exposes_the_artifact(self, instance):
        workflow, network, _ = instance
        model = CostModel(workflow, network)
        assert isinstance(model.compiled, CompiledInstance)
        assert model.router is model.compiled.router

    def test_shared_compiled_router_costs_no_dijkstra_runs(self):
        workflow = xor_workflow()
        network = line_network((2e9, 3e9, 4e9, 5e9), 1e8)
        first = CompiledInstance(workflow, network)
        router = first.router
        runs = router.dijkstra_runs
        assert runs > 0  # the first build compiled the whole table
        second = CompiledInstance(workflow, network, router=router)
        assert router.dijkstra_runs == runs
        assert all(None not in row for row in second.routes)
        assert second.routes == first.routes

    def test_from_compiled_shares_instead_of_recompiling(self, instance):
        _, _, compiled = instance
        model = CostModel.from_compiled(compiled)
        assert model.compiled is compiled
        assert model.workflow is compiled.workflow
        assert model.network is compiled.network
        assert model.execution_weight == compiled.execution_weight
        assert model.penalty_mode == compiled.penalty_mode

    def test_evaluators_borrow_the_cost_models_artifact(self, instance):
        workflow, network, _ = instance
        model = CostModel(workflow, network)
        deployment = Deployment.random(
            workflow, network, random.Random(0)
        )
        evaluator = MoveEvaluator(model, deployment)
        assert evaluator.compiled is model.compiled
        assert model.compiled.batch_evaluator().compiled is model.compiled

    def test_simulation_engine_accepts_a_shared_artifact(self, instance):
        workflow, network, compiled = instance
        deployment = Deployment.random(
            workflow, network, random.Random(0)
        )
        engine = SimulationEngine(
            workflow, network, deployment, compiled=compiled
        )
        assert engine.compiled is compiled
        assert engine.router is compiled.router
        result = engine.run(rng=0)
        assert result.makespan > 0

    def test_simulation_engine_compiles_when_not_given_one(self, instance):
        workflow, network, _ = instance
        deployment = Deployment.random(
            workflow, network, random.Random(0)
        )
        engine = SimulationEngine(workflow, network, deployment)
        assert isinstance(engine.compiled, CompiledInstance)

    def test_simulation_engine_rejects_foreign_artifacts(self, instance):
        workflow, network, _ = instance
        other_workflow = line_workflow(4, seed=1)
        other = CompiledInstance(other_workflow, network)
        deployment = Deployment.random(
            workflow, network, random.Random(0)
        )
        from repro.exceptions import SimulationError

        with pytest.raises(SimulationError, match="does not match"):
            SimulationEngine(
                workflow, network, deployment, compiled=other
            )

    def test_fleet_cost_models_carry_one_artifact_per_tenant(self):
        network = random_bus_network(4, seed=3)
        state = FleetState(network)
        workflow = random_graph_workflow(
            8, GraphStructure.HYBRID, seed=5
        )
        deployment = Deployment.random(
            workflow, network, random.Random(0)
        )
        state.add_tenant("t1", workflow, deployment)
        model = state.cost_model("t1")
        # the cached model is returned again, with the same artifact
        assert state.cost_model("t1") is model
        evaluator = MoveEvaluator(model, deployment)
        assert evaluator.compiled is model.compiled
        assert model.router is state.router

    def test_deterministic_equivalence_between_shared_consumers(
        self, instance
    ):
        workflow, network, compiled = instance
        model = CostModel.from_compiled(compiled)
        deployment = Deployment.random(
            workflow, network, random.Random(2)
        )
        evaluator = MoveEvaluator(model, deployment)
        servers = compiled.server_vector(deployment)
        breakdown = model.evaluate(deployment)
        assert evaluator.objective == breakdown.objective
        assert compiled.components(servers)[2] == breakdown.objective
