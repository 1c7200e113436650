"""Unit tests for incremental deployment adaptation."""

from repro.algorithms.fair_load import FairLoad
from repro.algorithms.heavy_ops import HeavyOpsLargeMsgs
from repro.core.mapping import Deployment
from repro.core.workflow import Operation
from repro.experiments.incremental import adaptation_report, patch_deployment


def grown(workflow, extra_cycles=25e6):
    """A copy of the line workflow with one appended operation."""
    new = workflow.copy(f"{workflow.name}-grown")
    tail = new.line_order()[-1]
    new.add_operation(Operation("NEW", extra_cycles))
    new.connect(tail, "NEW", 5_000)
    return new


def shrunk(workflow):
    """A copy of the line workflow with the last operation removed."""
    order = workflow.line_order()
    new_workflow = workflow.copy(f"{workflow.name}-shrunk")
    # rebuild without the tail (Workflow has no removal API by design:
    # workflows are immutable problem statements)
    from repro.core.workflow import Workflow

    rebuilt = Workflow(new_workflow.name)
    rebuilt.add_operations(
        workflow.operation(name) for name in order[:-1]
    )
    for a, b in zip(order[:-2], order[1:-1]):
        rebuilt.add_transition(workflow.message(a, b))
    return rebuilt


class TestPatchDeployment:
    def test_existing_assignments_kept(self, line5, bus3):
        old = FairLoad().deploy(line5, bus3)
        new_workflow = grown(line5)
        patched = patch_deployment(new_workflow, bus3, old)
        for operation, server in old:
            assert patched.server_of(operation) == server

    def test_new_operation_placed_and_complete(self, line5, bus3):
        old = FairLoad().deploy(line5, bus3)
        new_workflow = grown(line5)
        patched = patch_deployment(new_workflow, bus3, old)
        patched.validate(new_workflow, bus3)
        assert "NEW" in patched

    def test_new_operation_goes_to_emptiest_budget(self, line5):
        from repro.network.topology import bus_network

        network = bus_network([1e9, 1e9], speed_bps=100e6)
        old = Deployment(
            {"O1": "S1", "O2": "S1", "O3": "S1", "O4": "S1", "O5": "S1"}
        )
        new_workflow = grown(line5)
        patched = patch_deployment(new_workflow, network, old)
        assert patched.server_of("NEW") == "S2"

    def test_removed_operations_dropped(self, line5, bus3):
        old = FairLoad().deploy(line5, bus3)
        new_workflow = shrunk(line5)
        patched = patch_deployment(new_workflow, bus3, old)
        patched.validate(new_workflow, bus3)
        assert "O5" not in patched

    def test_noop_change_is_identity(self, line5, bus3):
        old = FairLoad().deploy(line5, bus3)
        patched = patch_deployment(line5, bus3, old)
        assert patched == old


class TestAdaptationReport:
    def test_report_shape(self, line5, bus3):
        old = FairLoad().deploy(line5, bus3)
        new_workflow = grown(line5)
        report = adaptation_report(
            new_workflow, bus3, old, HeavyOpsLargeMsgs(), rng=1
        )
        report.patched.validate(new_workflow, bus3)
        report.redeployed.validate(new_workflow, bus3)
        assert report.patched_cost.execution_time > 0
        assert isinstance(report.patch_overhead, float)
        # NEW is not a move: it had no previous assignment
        assert "NEW" not in report.moved_by_redeployment

    def test_moved_operations_counted(self, line5, bus3):
        old = Deployment.all_on_one(line5, "S1")
        report = adaptation_report(
            grown(line5), bus3, old, FairLoad(), rng=2
        )
        # Fair Load spreads what was lumped: most old ops move
        assert len(report.moved_by_redeployment) >= 3

    def test_patch_cheaper_in_churn(self, line5, bus3):
        """The whole point: the patch moves nothing that existed."""
        old = FairLoad().deploy(line5, bus3)
        new_workflow = grown(line5)
        report = adaptation_report(
            new_workflow, bus3, old, FairLoad(), rng=3
        )
        patched_moves = [
            name
            for name in new_workflow.operation_names
            if old.get(name) is not None
            and report.patched.server_of(name) != old.get(name)
        ]
        assert patched_moves == []
