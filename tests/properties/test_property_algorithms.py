"""Property-based tests: algorithm contracts over random instances."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import algorithm_registry
from repro.algorithms.exhaustive import Exhaustive
from repro.algorithms.fair_load import FairLoad
from repro.algorithms.heavy_ops import HeavyOpsLargeMsgs
from repro.algorithms.line_line import LineLine
from repro.core.cost import CostModel
from repro.workloads.generator import (
    GraphStructure,
    line_workflow,
    random_bus_network,
    random_graph_workflow,
    random_line_network,
)
from repro.workloads.parameters import ClassCParameters

sizes = st.integers(min_value=1, max_value=22)
server_counts = st.integers(min_value=1, max_value=5)
seeds = st.integers(min_value=0, max_value=10_000)
structures = st.sampled_from(list(GraphStructure))

BUS_SUITE = (
    "FairLoad",
    "FL-TieResolver",
    "FL-TieResolver2",
    "FL-MergeMsgEnds",
    "HeavyOps-LargeMsgs",
    "Random",
    "HillClimbing",
    "SimulatedAnnealing",
)


@given(size=sizes, servers=server_counts, seed=seeds, structure=structures)
@settings(max_examples=25, deadline=None)
def test_every_bus_algorithm_returns_valid_complete_mappings(
    size, servers, seed, structure
):
    workflow = random_graph_workflow(size, structure, seed=seed)
    network = random_bus_network(servers, seed=seed + 1)
    model = CostModel(workflow, network)
    registry = algorithm_registry()
    for name in BUS_SUITE:
        algorithm = registry[name]()
        if name == "SimulatedAnnealing":
            algorithm = registry[name](steps=50)
        deployment = algorithm.deploy(
            workflow, network, cost_model=model, rng=seed
        )
        deployment.validate(workflow, network)  # raises on violation


@given(size=sizes, servers=server_counts, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_bus_algorithms_deterministic_per_seed(size, servers, seed):
    workflow = line_workflow(size, seed=seed)
    network = random_bus_network(servers, seed=seed + 1)
    registry = algorithm_registry()
    for name in ("FL-TieResolver", "FL-TieResolver2", "FL-MergeMsgEnds"):
        algorithm = registry[name]()
        d1 = algorithm.deploy(workflow, network, rng=seed)
        d2 = algorithm.deploy(workflow, network, rng=seed)
        assert d1 == d2, name


@given(size=sizes, servers=server_counts, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_fair_load_budget_conservation(size, servers, seed):
    """After Fair Load, assigned cycles equal the total exactly."""
    workflow = line_workflow(size, seed=seed)
    network = random_bus_network(servers, seed=seed + 1)
    deployment = FairLoad().deploy(workflow, network)
    assigned = sum(
        workflow.operation(op).cycles for op, _ in deployment
    )
    assert abs(assigned - workflow.total_cycles) <= 1e-6


@given(size=st.integers(min_value=2, max_value=22), seed=seeds)
@settings(max_examples=25, deadline=None)
def test_fair_load_no_server_exceeds_ideal_by_more_than_one_op(size, seed):
    """Worst-fit bound: a server's overshoot is less than its last op."""
    workflow = line_workflow(size, seed=seed)
    network = random_bus_network(3, seed=seed + 1)
    model = CostModel(workflow, network)
    deployment = FairLoad().deploy(workflow, network, cost_model=model)
    heaviest = max(op.cycles for op in workflow)
    for server in network:
        assigned = sum(
            workflow.operation(op).cycles
            for op in deployment.operations_on(server.name)
        )
        assert assigned <= model.ideal_cycles(server.name) + heaviest


@given(size=st.integers(min_value=1, max_value=7), seed=seeds)
@settings(max_examples=15, deadline=None)
def test_exhaustive_dominates_heuristics_on_tiny_instances(size, seed):
    workflow = line_workflow(size, seed=seed)
    network = random_bus_network(2, seed=seed + 1)
    model = CostModel(workflow, network)
    optimum = Exhaustive().best(workflow, network, model).cost.objective
    for name in ("FairLoad", "HeavyOps-LargeMsgs", "FL-TieResolver2"):
        deployment = algorithm_registry()[name]().deploy(
            workflow, network, cost_model=model, rng=seed
        )
        assert model.objective(deployment) >= optimum - 1e-12, name


@given(size=sizes, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_holm_equals_fair_load_on_gigabit_bus(size, seed):
    """With cheap communication nothing is 'large': HOLM == Fair Load."""
    parameters = ClassCParameters.paper().with_fixed_bus_speed(1000e6)
    workflow = line_workflow(size, seed=seed)
    network = random_bus_network(3, seed=seed + 1, parameters=parameters)
    holm = HeavyOpsLargeMsgs().deploy(workflow, network)
    fair = FairLoad().deploy(workflow, network)
    assert holm.as_dict() == fair.as_dict()


@given(size=st.integers(min_value=2, max_value=15), seed=seeds, structure=structures)
@settings(max_examples=20, deadline=None)
def test_holm_collapses_when_every_transfer_dominates(size, seed, structure):
    """When every message's transfer time dwarfs all processing, HOLM's
    large-message rule must fire on every step, so the whole (connected)
    workflow ends on a single server."""
    workflow = random_graph_workflow(size, structure, seed=seed)
    huge = workflow.scaled(message_factor=1e6, name="huge-messages")
    network = random_bus_network(
        3,
        seed=seed + 1,
        parameters=ClassCParameters.paper().with_fixed_bus_speed(1e6),
    )
    deployment = HeavyOpsLargeMsgs().deploy(huge, network)
    if len(huge.messages) > 0:
        assert len(set(deployment.as_dict().values())) == 1
        from repro.core.cost import CostModel

        model = CostModel(huge, network)
        assert model.total_communication_time(deployment) == 0.0


@given(
    size=st.integers(min_value=3, max_value=22),
    servers=st.integers(min_value=2, max_value=5),
    seed=seeds,
)
@settings(max_examples=25, deadline=None)
def test_line_line_blocks_are_contiguous(size, servers, seed):
    workflow = line_workflow(size, seed=seed)
    network = random_line_network(servers, seed=seed + 1)
    deployment = LineLine(direction="ltr").deploy(workflow, network)
    order = workflow.line_order()
    seen = [deployment.server_of(op) for op in order]
    compact = [s for i, s in enumerate(seen) if i == 0 or seen[i - 1] != s]
    assert len(compact) == len(set(compact))
    if size >= servers:
        assert len(set(seen)) == servers  # every server hosts something
