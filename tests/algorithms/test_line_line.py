"""Unit tests for the Line--Line algorithm and its variants."""

import pytest

from repro.algorithms.line_line import LineLine
from repro.core.cost import CostModel
from repro.core.workflow import Operation, Workflow
from repro.exceptions import AlgorithmError, UnsupportedTopologyError
from repro.network.topology import line_network


def uniform_line_workflow(num_ops, cycles=10e6, sizes=None):
    workflow = Workflow("line-wf")
    names = [f"O{i}" for i in range(1, num_ops + 1)]
    workflow.add_operations(Operation(n, cycles) for n in names)
    sizes = sizes or [5_000] * (num_ops - 1)
    for (a, b), size in zip(zip(names, names[1:]), sizes):
        workflow.connect(a, b, size)
    return workflow


def blocks_of(deployment, workflow, network):
    """Operation blocks per server, in line order."""
    order = workflow.line_order()
    blocks = {name: [] for name in network.server_names}
    for op in order:
        blocks[deployment.server_of(op)].append(op)
    return blocks


class TestGuards:
    def test_rejects_non_line_workflow(self, xor_diamond, chain3):
        with pytest.raises(UnsupportedTopologyError):
            LineLine().deploy(xor_diamond, chain3)

    def test_rejects_non_line_network(self, line5, bus3):
        with pytest.raises(UnsupportedTopologyError):
            LineLine().deploy(line5, bus3)

    def test_rejects_bad_direction(self):
        with pytest.raises(AlgorithmError):
            LineLine(direction="up")


class TestPhase1:
    def test_blocks_are_contiguous(self):
        workflow = uniform_line_workflow(9)
        network = line_network([1e9, 1e9, 1e9], 100e6)
        deployment = LineLine(fix_bridges=False, direction="ltr").deploy(
            workflow, network
        )
        order = workflow.line_order()
        servers_seen = [deployment.server_of(op) for op in order]
        # a server never reappears after we left it
        compact = [s for i, s in enumerate(servers_seen)
                   if i == 0 or servers_seen[i - 1] != s]
        assert len(compact) == len(set(compact))

    def test_uniform_case_splits_evenly(self):
        workflow = uniform_line_workflow(9)
        network = line_network([1e9, 1e9, 1e9], 100e6)
        deployment = LineLine(fix_bridges=False, direction="ltr").deploy(
            workflow, network
        )
        blocks = blocks_of(deployment, workflow, network)
        assert [len(b) for b in blocks.values()] == [3, 3, 3]

    def test_every_server_gets_an_operation(self):
        """Coverage guarantee even when early servers could absorb all."""
        workflow = uniform_line_workflow(4)
        # first server is so powerful its ideal share is nearly everything
        network = line_network([100e9, 1e9, 1e9], 100e6)
        deployment = LineLine(fix_bridges=False, direction="ltr").deploy(
            workflow, network
        )
        assert len(set(deployment.as_dict().values())) == 3

    def test_capacity_proportional_fill(self):
        workflow = uniform_line_workflow(12)
        network = line_network([1e9, 2e9, 1e9], 100e6)
        deployment = LineLine(fix_bridges=False, direction="ltr").deploy(
            workflow, network
        )
        blocks = blocks_of(deployment, workflow, network)
        assert len(blocks["S2"]) > len(blocks["S1"])

    def test_more_servers_than_operations(self):
        workflow = uniform_line_workflow(2)
        network = line_network([1e9, 1e9, 1e9], 100e6)
        deployment = LineLine(fix_bridges=False, direction="ltr").deploy(
            workflow, network
        )
        assert deployment.is_complete(workflow)


class TestCriticalBridges:
    def _scenario(self):
        """Slow S2-S3 link with a large crossing message and a small
        adjacent message, so phase 2 must shift O4 rightward."""
        workflow = uniform_line_workflow(
            6, sizes=[5_000, 5_000, 500, 50_000, 5_000]
        )
        network = line_network([1e9, 1e9, 1e9], [100e6, 1e6])
        return workflow, network

    def test_phase1_blocks_before_fixing(self):
        workflow, network = self._scenario()
        deployment = LineLine(fix_bridges=False, direction="ltr").deploy(
            workflow, network
        )
        blocks = blocks_of(deployment, workflow, network)
        assert blocks == {
            "S1": ["O1", "O2"],
            "S2": ["O3", "O4"],
            "S3": ["O5", "O6"],
        }

    def test_bridge_fix_moves_sender_across(self):
        workflow, network = self._scenario()
        deployment = LineLine(fix_bridges=True, direction="ltr").deploy(
            workflow, network
        )
        blocks = blocks_of(deployment, workflow, network)
        assert blocks == {
            "S1": ["O1", "O2"],
            "S2": ["O3"],
            "S3": ["O4", "O5", "O6"],
        }

    def test_bridge_fix_improves_execution_time(self):
        workflow, network = self._scenario()
        model = CostModel(workflow, network)
        fixed = model.execution_time(
            LineLine(fix_bridges=True, direction="ltr").deploy(
                workflow, network, cost_model=model
            )
        )
        unfixed = model.execution_time(
            LineLine(fix_bridges=False, direction="ltr").deploy(
                workflow, network, cost_model=model
            )
        )
        assert fixed < unfixed

    def test_fast_links_leave_mapping_alone(self):
        workflow = uniform_line_workflow(6)
        network = line_network([1e9, 1e9, 1e9], 1000e6)
        with_fix = LineLine(fix_bridges=True, direction="ltr").deploy(
            workflow, network
        )
        without = LineLine(fix_bridges=False, direction="ltr").deploy(
            workflow, network
        )
        # all links and messages are uniform: nothing is 'critical' in a
        # way that finds a small adjacent message to swap behind
        assert with_fix.is_complete(workflow) and without.is_complete(workflow)


class TestDirections:
    def test_rtl_mirrors_ltr_on_symmetric_instances(self):
        workflow = uniform_line_workflow(6)
        network = line_network([1e9, 1e9, 1e9], 100e6)
        ltr = LineLine(fix_bridges=False, direction="ltr").deploy(
            workflow, network
        )
        rtl = LineLine(fix_bridges=False, direction="rtl").deploy(
            workflow, network
        )
        blocks_l = blocks_of(ltr, workflow, network)
        blocks_r = blocks_of(rtl, workflow, network)
        assert [len(b) for b in blocks_l.values()] == [
            len(b) for b in reversed(list(blocks_r.values()))
        ]

    def test_best_picks_the_cheaper_direction(self):
        # asymmetric powers make the directions differ
        workflow = uniform_line_workflow(7)
        network = line_network([3e9, 1e9, 1e9], [1e6, 100e6])
        model = CostModel(workflow, network)
        best = model.objective(
            LineLine(fix_bridges=False, direction="best").deploy(
                workflow, network, cost_model=model
            )
        )
        ltr = model.objective(
            LineLine(fix_bridges=False, direction="ltr").deploy(
                workflow, network, cost_model=model
            )
        )
        rtl = model.objective(
            LineLine(fix_bridges=False, direction="rtl").deploy(
                workflow, network, cost_model=model
            )
        )
        assert best == pytest.approx(min(ltr, rtl))

    def test_all_four_paper_variants_run(self):
        workflow = uniform_line_workflow(8)
        network = line_network([1e9, 2e9, 1e9], [10e6, 100e6])
        for fix in (False, True):
            for direction in ("ltr", "best"):
                deployment = LineLine(
                    fix_bridges=fix, direction=direction
                ).deploy(workflow, network)
                assert deployment.is_complete(workflow)


def test_single_server_line():
    workflow = uniform_line_workflow(3)
    network = line_network([1e9], 1.0)
    deployment = LineLine().deploy(workflow, network)
    assert set(deployment.as_dict().values()) == {"S1"}
