"""Shared fixtures: small canonical workflows, networks and cost models."""

from __future__ import annotations

import random

import pytest

from repro.core.builder import WorkflowBuilder
from repro.core.cost import CostModel
from repro.core.workflow import NodeKind, Operation, Workflow
from repro.network.topology import (
    Server,
    ServerNetwork,
    bus_network,
    line_network,
)


@pytest.fixture
def rng():
    """A deterministic RNG for tests that need randomness."""
    return random.Random(12345)


@pytest.fixture
def line3():
    """A 3-operation line workflow with distinct costs and message sizes.

    ``A(10M) -[8k]-> B(20M) -[16k]-> C(30M)``
    """
    workflow = Workflow("line3")
    workflow.add_operations(
        [Operation("A", 10e6), Operation("B", 20e6), Operation("C", 30e6)]
    )
    workflow.connect("A", "B", 8_000)
    workflow.connect("B", "C", 16_000)
    return workflow


@pytest.fixture
def line5():
    """A 5-operation uniform line workflow (10M cycles, 10k-bit messages)."""
    workflow = Workflow("line5")
    names = ["O1", "O2", "O3", "O4", "O5"]
    workflow.add_operations(Operation(n, 10e6) for n in names)
    for a, b in zip(names, names[1:]):
        workflow.connect(a, b, 10_000)
    return workflow


@pytest.fixture
def xor_diamond():
    """A diamond with one XOR region (70/30 branches).

    ``start -> xor -> (left | right) -> /xor -> end``
    """
    builder = WorkflowBuilder("xor-diamond", default_message_bits=8_000)
    builder.task("start", 10e6)
    builder.split(NodeKind.XOR_SPLIT, "choice", 1e6)
    builder.branch(probability=0.7)
    builder.task("left", 20e6)
    builder.branch(probability=0.3)
    builder.task("right", 40e6)
    builder.join("merge", 1e6)
    builder.task("end", 10e6)
    return builder.build()


@pytest.fixture
def and_diamond():
    """A diamond with one AND region (both branches execute)."""
    builder = WorkflowBuilder("and-diamond", default_message_bits=8_000)
    builder.task("start", 10e6)
    builder.split(NodeKind.AND_SPLIT, "fork", 1e6)
    builder.branch()
    builder.task("left", 20e6)
    builder.branch()
    builder.task("right", 40e6)
    builder.join("join", 1e6)
    builder.task("end", 10e6)
    return builder.build()


@pytest.fixture
def or_diamond():
    """A diamond with one OR region (first branch to finish wins)."""
    builder = WorkflowBuilder("or-diamond", default_message_bits=8_000)
    builder.task("start", 10e6)
    builder.split(NodeKind.OR_SPLIT, "race", 1e6)
    builder.branch()
    builder.task("fast", 5e6)
    builder.branch()
    builder.task("slow", 500e6)
    builder.join("first", 1e6)
    builder.task("end", 10e6)
    return builder.build()


@pytest.fixture
def bus3():
    """A 3-server uniform bus: powers 1/2/3 GHz, 100 Mbps."""
    return bus_network([1e9, 2e9, 3e9], speed_bps=100e6)


@pytest.fixture
def bus5():
    """A 5-server uniform bus: mixed powers, 100 Mbps."""
    return bus_network([1e9, 2e9, 2e9, 3e9, 2e9], speed_bps=100e6)


@pytest.fixture
def slow_bus3():
    """A congested 3-server bus (1 Mbps) where communication dominates."""
    return bus_network([1e9, 2e9, 3e9], speed_bps=1e6)


@pytest.fixture
def chain3():
    """A 3-server line network with heterogeneous link speeds."""
    return line_network([1e9, 2e9, 3e9], speeds_bps=[10e6, 100e6])


@pytest.fixture
def pareto_triple():
    """Three disjoint A-B routes with a *third* Pareto-optimal path.

    Min-propagation via ``x`` (1 s + 2e-6 s/bit), min-transfer via
    ``y`` (10 s + 2e-9 s/bit), and a middle route via ``z``
    (4 s + 5e-7 s/bit) that wins only at intermediate sizes (6.5 s at
    5e6 bits, vs 11 s via x and 10.01 s via y) -- so the sized optimum
    of the size-dependent (A, B) pair crosses links on *neither* of its
    classification paths: a route refresh must re-price its per-size
    entries, not only its classification.
    """
    network = ServerNetwork("pareto-triple")
    network.add_servers(
        [Server(name, 1e9) for name in ("A", "x", "y", "z", "B")]
    )
    network.connect("A", "x", 1e6, propagation_s=0.5)
    network.connect("x", "B", 1e6, propagation_s=0.5)
    network.connect("A", "y", 1e9, propagation_s=5.0)
    network.connect("y", "B", 1e9, propagation_s=5.0)
    network.connect("A", "z", 4e6, propagation_s=2.0)
    network.connect("z", "B", 4e6, propagation_s=2.0)
    return network


@pytest.fixture
def cost_line3_bus3(line3, bus3):
    """Cost model for the (line3, bus3) instance."""
    return CostModel(line3, bus3)
