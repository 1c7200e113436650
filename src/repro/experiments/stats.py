"""Statistical summaries for experiment results.

The paper reports means and worst cases; a reproduction should also say
how sure it is. This module adds:

* :func:`summarize` -- mean / standard deviation / Student-t confidence
  interval for a sample of measurements;
* :func:`win_matrix` -- per-instance pairwise win counts between
  algorithms (who beats whom, how often) over an
  :class:`~repro.experiments.runner.ExperimentResult`;
* :func:`comparison_table` -- the above as a printable table.

The Student-t quantile (:func:`t_ppf`) is computed here with the
standard library alone, so the CLI and the service do not need SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

from repro.exceptions import ExperimentError
from repro.experiments.reporting import TextTable, format_seconds
from repro.experiments.runner import ExperimentResult

__all__ = [
    "SummaryStats",
    "summarize",
    "t_ppf",
    "win_matrix",
    "comparison_table",
]


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (Lentz)."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    return h


def _beta_regularized(a: float, b: float, x: float, y: float) -> float:
    """The regularized incomplete beta function ``I_x(a, b)``.

    *y* is ``1 - x``, computed by the caller without cancellation.
    """
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(y)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, y) / b


def t_ppf(probability: float, df: int) -> float:
    """The Student-t quantile: ``t`` with ``P(T <= t) = probability``.

    Newton's method on the t CDF (through the regularized incomplete
    beta function), started at the normal quantile. For
    ``probability > 0.5`` the CDF is concave on ``t > 0`` and the start
    lies below the root, so the iterates rise monotonically onto it.
    The CDF residual is taken from whichever beta tail is small, so it
    stays accurate near the centre and far out in the tail alike.
    """
    if not 0.0 < probability < 1.0:
        raise ExperimentError("probability must lie strictly in (0, 1)")
    if df < 1:
        raise ExperimentError("degrees of freedom must be >= 1")
    if probability < 0.5:
        return -t_ppf(1.0 - probability, df)
    if probability == 0.5:
        return 0.0
    nu = float(df)
    log_norm = (
        math.lgamma((nu + 1.0) / 2.0) - math.lgamma(nu / 2.0)
        - 0.5 * math.log(nu * math.pi)
    )
    t = NormalDist().inv_cdf(probability)
    for _ in range(200):
        t2 = t * t
        x = nu / (nu + t2)
        y = t2 / (nu + t2)
        # F(t) - probability, with F(t) = 1 - I_x(nu/2, 1/2) / 2
        #                                = 1/2 + I_y(1/2, nu/2) / 2
        if t2 < nu:
            excess = (
                0.5 * _beta_regularized(0.5, nu / 2.0, y, x)
                - (probability - 0.5)
            )
        else:
            excess = (
                (1.0 - probability)
                - 0.5 * _beta_regularized(nu / 2.0, 0.5, x, y)
            )
        density = math.exp(log_norm - (nu + 1.0) / 2.0 * math.log1p(t2 / nu))
        step = excess / density
        t -= step
        if abs(step) <= 1e-15 * t:
            break
    return t


@dataclass(frozen=True)
class SummaryStats:
    """Mean, spread and confidence interval of one sample."""

    count: int
    mean: float
    std: float
    ci_low: float
    ci_high: float
    confidence: float

    @property
    def half_width(self) -> float:
        """Half the confidence interval's width."""
        return (self.ci_high - self.ci_low) / 2

    def format(self) -> str:
        """``mean ± half-width`` with time formatting."""
        return (
            f"{format_seconds(self.mean)} +/- "
            f"{format_seconds(self.half_width)}"
        )


def summarize(
    samples: Sequence[float], confidence: float = 0.95
) -> SummaryStats:
    """Mean, sample std and Student-t confidence interval of *samples*."""
    if not samples:
        raise ExperimentError("cannot summarise an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ExperimentError("confidence must lie strictly in (0, 1)")
    n = len(samples)
    mean = sum(samples) / n
    if n == 1:
        return SummaryStats(1, mean, 0.0, mean, mean, confidence)
    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    std = math.sqrt(variance)
    t = t_ppf(0.5 + confidence / 2, n - 1)
    half = t * std / math.sqrt(n)
    return SummaryStats(n, mean, std, mean - half, mean + half, confidence)


def win_matrix(
    result: ExperimentResult, metric: str = "execution"
) -> dict[tuple[str, str], int]:
    """Per-instance pairwise wins: ``matrix[(a, b)]`` counts instances
    where algorithm *a* strictly beats *b* on *metric*.

    *metric* is ``"execution"``, ``"penalty"`` or ``"objective"``.
    """
    extractors = {
        "execution": lambda record: record.cost.execution_time,
        "penalty": lambda record: record.cost.time_penalty,
        "objective": lambda record: record.cost.objective,
    }
    if metric not in extractors:
        raise ExperimentError(
            f"metric must be one of {sorted(extractors)}, got {metric!r}"
        )
    extract = extractors[metric]
    algorithms = result.algorithms()
    by_repetition: dict[int, dict[str, float]] = {}
    for record in result.records:
        by_repetition.setdefault(record.repetition, {})[record.algorithm] = (
            extract(record)
        )
    matrix = {
        (a, b): 0 for a in algorithms for b in algorithms if a != b
    }
    for values in by_repetition.values():
        for a in algorithms:
            for b in algorithms:
                if a != b and values[a] < values[b]:
                    matrix[(a, b)] += 1
    return matrix


def comparison_table(
    result: ExperimentResult,
    metric: str = "execution",
    confidence: float = 0.95,
) -> TextTable:
    """Mean ± CI per algorithm plus total pairwise wins on *metric*."""
    extractors = {
        "execution": lambda record: record.cost.execution_time,
        "penalty": lambda record: record.cost.time_penalty,
        "objective": lambda record: record.cost.objective,
    }
    if metric not in extractors:
        raise ExperimentError(
            f"metric must be one of {sorted(extractors)}, got {metric!r}"
        )
    extract = extractors[metric]
    matrix = win_matrix(result, metric)
    table = TextTable(
        ["algorithm", f"{metric} (mean +/- CI{confidence:.0%})", "wins"],
        title=result.config.describe(),
    )
    for name in result.algorithms():
        samples = [extract(r) for r in result.records_for(name)]
        wins = sum(
            count for (a, _b), count in matrix.items() if a == name
        )
        table.add_row([name, summarize(samples, confidence).format(), wins])
    return table
