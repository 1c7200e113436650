"""Unit tests for the Class A/B/C experiment definitions."""

from repro.experiments.classes import (
    FIG6_BUS_SPEEDS,
    class_a_configs,
    class_b_configs,
    class_c_configs,
)
from repro.experiments.runner import ExperimentRunner


def test_fig6_speeds_match_paper():
    assert FIG6_BUS_SPEEDS == (1e6, 100e6)


class TestClassA:
    def test_sweep_dimensions(self):
        configs = class_a_configs(repetitions=1)
        assert len(configs) == 4 * 4  # speeds x message scales
        labels = {c.label for c in configs}
        assert len(labels) == len(configs)

    def test_cpu_side_is_pinned(self):
        for config in class_a_configs(repetitions=1):
            assert len(config.parameters.operation_cycles.values) == 1
            assert len(config.parameters.server_power_hz.values) == 1

    def test_speed_is_pinned_per_config(self):
        for config in class_a_configs(repetitions=1):
            assert config.bus_speed_bps is not None


class TestClassB:
    def test_sweep_dimensions(self):
        configs = class_b_configs(repetitions=1)
        assert len(configs) == 3 * 3  # cycles x powers

    def test_communication_side_is_pinned(self):
        for config in class_b_configs(repetitions=1):
            assert len(config.parameters.line_speed_bps.values) == 1
            assert len(config.parameters.message_mixture.classes) == 1


class TestClassC:
    def test_one_config_per_bus_speed(self):
        configs = class_c_configs(repetitions=1)
        assert [c.bus_speed_bps for c in configs] == list(FIG6_BUS_SPEEDS)

    def test_table6_mixtures_survive(self):
        for config in class_c_configs(repetitions=1):
            assert config.parameters.operation_cycles.values == (
                10e6,
                20e6,
                30e6,
            )
            assert config.parameters.server_power_hz.values == (1e9, 2e9, 3e9)

    def test_workflow_kind_parameter(self):
        configs = class_c_configs(workflow_kind="bushy", repetitions=1)
        assert all(c.workflow_kind == "bushy" for c in configs)


def test_all_classes_runnable_end_to_end():
    """Smoke: one tiny repetition of each class through the runner."""
    runner = ExperimentRunner(["FairLoad", "HeavyOps-LargeMsgs"])
    configs = (
        class_a_configs(
            num_operations=6, num_servers=2, repetitions=1,
            speeds=(1e6,), message_scales=("medium",),
        )
        + class_b_configs(
            num_operations=6, num_servers=2, repetitions=1,
            cycles=(50e6,), powers=(2e9,),
        )
        + class_c_configs(
            num_operations=6, num_servers=2, repetitions=1,
            bus_speeds=(100e6,),
        )
    )
    results = runner.run_many(configs)
    assert len(results) == 3
    for result in results:
        assert len(result.records) == 2
