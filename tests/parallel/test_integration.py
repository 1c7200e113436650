"""Parallel wiring of the experiment harness.

The harness promises the same contract as ``deploy_parallel``: fanning
work across processes changes wall-clock time only, never the results
-- records are byte-identical to the serial run.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.runner import ExperimentConfig, ExperimentRunner


def _record_key(record):
    return (
        record.algorithm,
        record.repetition,
        record.cost.objective,
        record.deployment.as_dict(),
    )


class TestExperimentRunnerWorkers:
    CONFIG = ExperimentConfig(
        workflow_kind="line",
        num_operations=6,
        num_servers=3,
        repetitions=3,
        seed=11,
    )
    SUITE = ("HeavyOps-LargeMsgs", "FL-TieResolver2")

    def test_parallel_repetitions_match_serial(self):
        serial = ExperimentRunner(self.SUITE, workers=1).run(self.CONFIG)
        parallel = ExperimentRunner(self.SUITE, workers=2).run(self.CONFIG)
        assert len(serial.records) == len(parallel.records)
        assert [_record_key(r) for r in serial.records] == [
            _record_key(r) for r in parallel.records
        ]

    def test_workers_validated(self):
        with pytest.raises(ExperimentError):
            ExperimentRunner(self.SUITE, workers=0)
