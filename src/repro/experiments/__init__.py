"""Experiment harness reproducing the paper's evaluation (section 4).

* :mod:`repro.experiments.runner` -- generate instances, run algorithm
  suites over repetitions, aggregate (Texecute, TimePenalty) points.
* :mod:`repro.experiments.classes` -- the Class A / B / C experiment
  definitions of section 4.1.
* :mod:`repro.experiments.quality` -- the 32 000-sample deviation-from-
  best protocol behind the paper's "(2.9 %, 12 %)" quality numbers.
* :mod:`repro.experiments.reporting` -- plain-text tables and CSV series
  mirroring the rows behind the paper's figures.
* :mod:`repro.experiments.multi_workflow` -- the section 6 future-work
  extension: deploying several workflows jointly.
"""

from repro.experiments.runner import (
    ExperimentConfig,
    ExperimentResult,
    ExperimentRunner,
    RunRecord,
    DEFAULT_ALGORITHMS,
)
from repro.experiments.classes import (
    class_a_configs,
    class_b_configs,
    class_c_configs,
    FIG6_BUS_SPEEDS,
)
from repro.experiments.quality import QualityProtocol, QualityReport
from repro.experiments.reporting import (
    TextTable,
    scatter_table,
    ascii_scatter,
    format_seconds,
)
from repro.experiments.multi_workflow import (
    combine_workflows,
    deploy_workflows,
)
from repro.experiments.failover import (
    replace_orphans,
    analyze_failure,
    FailureReport,
    failover_table,
)
from repro.experiments.stats import (
    SummaryStats,
    summarize,
    win_matrix,
    comparison_table,
)
from repro.experiments.pareto import (
    pareto_front,
    distance_to_origin,
    rank_by_distance,
    weight_sensitivity_table,
)
from repro.experiments.incremental import (
    patch_deployment,
    AdaptationReport,
    adaptation_report,
)
from repro.experiments.figures import ReproductionScale, reproduce_all
from repro.experiments.claims import (
    Claim,
    ClaimReport,
    PAPER_CLAIMS,
    verify_claims,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "ExperimentRunner",
    "RunRecord",
    "DEFAULT_ALGORITHMS",
    "class_a_configs",
    "class_b_configs",
    "class_c_configs",
    "FIG6_BUS_SPEEDS",
    "QualityProtocol",
    "QualityReport",
    "TextTable",
    "scatter_table",
    "format_seconds",
    "combine_workflows",
    "deploy_workflows",
    "ascii_scatter",
    "replace_orphans",
    "analyze_failure",
    "FailureReport",
    "failover_table",
    "SummaryStats",
    "summarize",
    "win_matrix",
    "comparison_table",
    "pareto_front",
    "distance_to_origin",
    "rank_by_distance",
    "weight_sensitivity_table",
    "patch_deployment",
    "AdaptationReport",
    "adaptation_report",
    "ReproductionScale",
    "reproduce_all",
    "Claim",
    "ClaimReport",
    "PAPER_CLAIMS",
    "verify_claims",
]
