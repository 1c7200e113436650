"""Unit tests for Heavy Operations -- Large Messages (HOLM)."""

from repro.algorithms.fair_load import FairLoad
from repro.algorithms.heavy_ops import HeavyOpsLargeMsgs
from repro.core.cost import CostModel
from repro.core.workflow import Operation, Workflow
from repro.network.topology import bus_network, line_network


def line_with_sizes(sizes, cycles=None):
    count = len(sizes) + 1
    cycles = cycles or [10e6] * count
    workflow = Workflow("sized")
    names = [f"O{i}" for i in range(1, count + 1)]
    workflow.add_operations(
        Operation(n, c) for n, c in zip(names, cycles)
    )
    for (a, b), size in zip(zip(names, names[1:]), sizes):
        workflow.connect(a, b, size)
    return workflow


def test_fast_bus_reduces_to_fair_load(line3, bus3):
    """With cheap communication no message is 'large': pure option (a)."""
    holm = HeavyOpsLargeMsgs().deploy(line3, bus3)
    fair = FairLoad().deploy(line3, bus3)
    assert holm.as_dict() == fair.as_dict()


def test_slow_bus_collapses_to_one_server():
    """When every transfer dwarfs all processing, everything groups."""
    workflow = line_with_sizes([1_000_000.0] * 4)  # 1 Mbit messages
    network = bus_network([1e9, 1e9, 1e9], speed_bps=1e6)  # 1 s transfers
    model = CostModel(workflow, network)
    deployment = HeavyOpsLargeMsgs().deploy(workflow, network, cost_model=model)
    assert len(set(deployment.as_dict().values())) == 1
    assert model.total_communication_time(deployment) == 0.0


def test_single_large_message_colocated():
    """Only the dominant message's ends must share a server."""
    workflow = line_with_sizes([100.0, 2_000_000.0, 100.0, 100.0])
    network = bus_network([1e9, 1e9], speed_bps=1e6)
    deployment = HeavyOpsLargeMsgs().deploy(workflow, network)
    assert deployment.server_of("O2") == deployment.server_of("O3")


def test_one_end_assigned_pulls_the_other():
    """Option (b1): a large message with one placed end places the other.

    A heavy operation is assigned first via option (a); the large message
    touching it must then pull its free end onto the same server.
    """
    # O1 heavy; message O1->O2 is large relative to the *remaining* groups
    workflow = line_with_sizes(
        [500_000.0, 10.0], cycles=[500e6, 1e6, 1e6]
    )
    network = bus_network([1e9, 1e9], speed_bps=1e6)
    deployment = HeavyOpsLargeMsgs().deploy(workflow, network)
    assert deployment.server_of("O1") == deployment.server_of("O2")


def test_execution_time_never_worse_than_fair_load_on_slow_bus():
    """The design goal: HOLM dodges the transfers Fair Load pays for."""
    workflow = line_with_sizes([200_000.0] * 9)
    network = bus_network([1e9, 2e9, 3e9], speed_bps=1e6)
    model = CostModel(workflow, network)
    holm = model.execution_time(
        HeavyOpsLargeMsgs().deploy(workflow, network, cost_model=model)
    )
    fair = model.execution_time(
        FairLoad().deploy(workflow, network, cost_model=model)
    )
    assert holm <= fair


def test_deterministic(line5, bus3):
    d1 = HeavyOpsLargeMsgs().deploy(line5, bus3)
    d2 = HeavyOpsLargeMsgs().deploy(line5, bus3)
    assert d1 == d2


def test_terminates_on_intra_group_top_message():
    """Two ops merged by one message, with a second message between the
    same group: the skip rule must prevent an endless self-merge."""
    workflow = Workflow("tri")
    workflow.add_operations(
        [Operation("A", 1e6), Operation("B", 1e6), Operation("C", 1e6)]
    )
    workflow.connect("A", "B", 900_000)
    workflow.connect("B", "C", 800_000)
    workflow.connect("A", "C", 700_000)
    network = bus_network([1e9, 1e9], speed_bps=1e6)
    deployment = HeavyOpsLargeMsgs().deploy(workflow, network)
    assert deployment.is_complete(workflow)
    # all three exchange large messages -> one server
    assert len(set(deployment.as_dict().values())) == 1


def test_probability_weighting_on_graphs(xor_diamond, bus3):
    deployment = HeavyOpsLargeMsgs().deploy(xor_diamond, bus3)
    assert deployment.is_complete(xor_diamond)


def test_rare_branch_message_discounted():
    """A huge message on a 1%-probability XOR branch should not force
    co-location the way a certain message would."""
    from repro.core.builder import WorkflowBuilder
    from repro.core.workflow import NodeKind

    def build(probability):
        builder = WorkflowBuilder("rare", default_message_bits=100)
        builder.task("t", 50e6)
        builder.split(NodeKind.XOR_SPLIT, "x", 1e6)
        builder.branch(probability=probability)
        builder.task("rare_op", 50e6, message_bits=400_000)
        builder.branch(probability=1.0 - probability)
        builder.task("common_op", 50e6)
        builder.join("xe", 1e6)
        return builder.build()

    network = bus_network([1e9, 1e9], speed_bps=1e6)
    # certain branch: 0.4 s transfer >> processing -> co-location
    certain = HeavyOpsLargeMsgs().deploy(build(0.999), network)
    assert certain.server_of("x") == certain.server_of("rare_op")
    # 1% branch: weighted size 4k bits -> 4 ms << 50 ms processing, so the
    # algorithm is free to balance load instead; the weighted transfer no
    # longer dominates every decision
    model = CostModel(build(0.01), network)
    rare = HeavyOpsLargeMsgs().deploy(build(0.01), network, cost_model=model)
    loads = model.loads(rare)
    assert max(loads.values()) < sum(loads.values())  # uses both servers


def test_works_on_non_bus_networks(line3):
    """Falls back to the slowest link as the conservative bus estimate."""
    network = line_network([1e9, 2e9, 3e9], speeds_bps=[1e6, 100e6])
    deployment = HeavyOpsLargeMsgs().deploy(line3, network)
    assert deployment.is_complete(line3)


def test_heaviest_group_priority():
    """Groups are served heaviest-first, mirroring Fair Load's order."""
    workflow = line_with_sizes([10.0, 10.0], cycles=[90e6, 10e6, 10e6])
    network = bus_network([1e9, 3e9], speed_bps=100e6)
    deployment = HeavyOpsLargeMsgs().deploy(workflow, network)
    assert deployment.server_of("O1") == "S2"  # 90M cycles -> 3 GHz budget


def test_bus_equivalent_is_derived_once_per_deploy(monkeypatch):
    """The link scan runs once per deployment, not once per step."""
    workflow = line_with_sizes([1e6, 10.0, 1e6, 10.0])
    network = bus_network([1e9, 2e9, 3e9], speed_bps=1e6)
    calls = []
    original = HeavyOpsLargeMsgs._bus_equivalent

    def counting(net):
        calls.append(net)
        return original(net)

    monkeypatch.setattr(
        HeavyOpsLargeMsgs, "_bus_equivalent", staticmethod(counting)
    )
    deployment = HeavyOpsLargeMsgs().deploy(workflow, network)
    assert deployment.is_complete(workflow)
    assert calls == [network]


def test_bus_equivalent_of_a_line_is_conservative():
    network = line_network([1e9, 2e9, 3e9], speeds_bps=[1e6, 100e6])
    speed, propagation = HeavyOpsLargeMsgs._bus_equivalent(network)
    assert speed == 1e6
    assert propagation == max(link.propagation_s for link in network.links)


def test_bus_equivalent_of_one_server_is_none():
    assert HeavyOpsLargeMsgs._bus_equivalent(bus_network([1e9], 1e6)) is None
