"""Picklable algorithm specs, shard plans and the default portfolio.

Worker processes cannot receive live algorithm objects bound to problem
data, and the CLI needs a textual way to name "FLTR2-seeded hill
climbing". :class:`AlgorithmSpec` is the common currency: a frozen,
picklable description -- registry name, constructor parameters, and an
optional constructive *seed algorithm* for the refinement family --
that each worker :meth:`~AlgorithmSpec.build`\\ s locally.

:class:`ShardPlan` names how one algorithm's work is split across
workers (``restarts`` / ``islands``; see
:mod:`repro.parallel.runtime` for the protocols), and
:data:`DEFAULT_PORTFOLIO` is the racing line-up used when the caller
does not provide one: the paper's strongest constructive baselines
(HOLM, FLTR2) fanned into hill-climbing / annealing polishers, plus a
genetic improver and a cold random-start climber for diversity.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any

from repro.algorithms.base import DeploymentAlgorithm, get_algorithm
from repro.algorithms.runtime import SearchBudget
from repro.exceptions import AlgorithmError

__all__ = [
    "AlgorithmSpec",
    "ShardPlan",
    "PLAN_KINDS",
    "DEFAULT_PORTFOLIO",
    "auto_plan",
]


@dataclass(frozen=True)
class AlgorithmSpec:
    """A picklable recipe for one configured deployment algorithm.

    Attributes
    ----------
    name:
        Registry name of the algorithm class.
    seed_algorithm:
        Optional registry name of the constructive algorithm passed as
        the ``seed_algorithm`` constructor argument (the refinement
        family's starting-point hook).
    params:
        Remaining constructor keyword arguments as a sorted tuple of
        ``(key, value)`` pairs -- tuple, not dict, so specs are
        hashable and their labels deterministic.
    """

    name: str
    seed_algorithm: str | None = None
    params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def of(
        cls, name: str, seed_algorithm: str | None = None, **params
    ) -> "AlgorithmSpec":
        """Validated constructor (names resolved, kwargs accepted)."""
        algorithm_cls = get_algorithm(name)
        accepted = inspect.signature(algorithm_cls.__init__).parameters
        if seed_algorithm is not None:
            get_algorithm(seed_algorithm)
            if "seed_algorithm" not in accepted:
                raise AlgorithmError(
                    f"algorithm {name!r} takes no seed_algorithm; "
                    f"cannot build {name}@{seed_algorithm}"
                )
        for key in params:
            if key not in accepted:
                raise AlgorithmError(
                    f"algorithm {name!r} has no parameter {key!r}"
                )
        return cls(
            name=name,
            seed_algorithm=seed_algorithm,
            params=tuple(sorted(params.items())),
        )

    @classmethod
    def parse(cls, text: str) -> "AlgorithmSpec":
        """Parse the CLI syntax ``Name`` or ``Name@SeedName``.

        ``"HillClimbing@HeavyOps-LargeMsgs"`` is FLTR-style notation
        for "HillClimbing seeded with HeavyOps-LargeMsgs".
        """
        name, _, seed_name = text.partition("@")
        return cls.of(name.strip(), seed_name.strip() or None)

    @classmethod
    def coerce(
        cls, entry: "AlgorithmSpec | DeploymentAlgorithm | str"
    ) -> "AlgorithmSpec | DeploymentAlgorithm":
        """Accept specs, registry names, or ready (picklable) instances."""
        if isinstance(entry, (AlgorithmSpec, DeploymentAlgorithm)):
            return entry
        return cls.parse(entry)

    @property
    def label(self) -> str:
        """Human/CLI label, invertible through :meth:`parse` when bare."""
        label = self.name
        if self.seed_algorithm is not None:
            label = f"{label}@{self.seed_algorithm}"
        if self.params:
            details = ",".join(f"{k}={v}" for k, v in self.params)
            label = f"{label}({details})"
        return label

    def build(self) -> DeploymentAlgorithm:
        """Instantiate the algorithm (in the worker process, usually)."""
        kwargs = dict(self.params)
        if self.seed_algorithm is not None:
            kwargs["seed_algorithm"] = get_algorithm(self.seed_algorithm)()
        return get_algorithm(self.name)(**kwargs)


def spec_label(entry: "AlgorithmSpec | DeploymentAlgorithm") -> str:
    """Label for either currency accepted by the fan-out layer."""
    if isinstance(entry, AlgorithmSpec):
        return entry.label
    return entry.name


#: Valid :attr:`ShardPlan.kind` values.
PLAN_KINDS = ("restarts", "islands")


@dataclass(frozen=True)
class ShardPlan:
    """How one algorithm's search is sharded across workers.

    Attributes
    ----------
    kind:
        ``"restarts"`` -- every worker runs the full algorithm from its
        own spawned RNG stream; best run wins. Works for any algorithm.
        ``"islands"`` -- GA islands evolving in parallel with periodic
        ring migration of elites (Genetic only).
    migration_every:
        Islands: generations evolved between migration barriers.
    """

    kind: str = "restarts"
    migration_every: int = 5

    def __post_init__(self) -> None:
        if self.kind not in PLAN_KINDS:
            raise AlgorithmError(
                f"plan kind must be one of {PLAN_KINDS}, got {self.kind!r}"
            )
        SearchBudget.validate_count("migration_every", self.migration_every)

    @classmethod
    def coerce(cls, plan: "ShardPlan | str | None") -> "ShardPlan | None":
        """``None`` passes through; strings become default-knob plans."""
        if plan is None or isinstance(plan, ShardPlan):
            return plan
        return cls(kind=plan)


def auto_plan(name: str) -> ShardPlan:
    """The default plan for an algorithm: islands for the GA (its
    population structure is what migration exploits), parallel seeded
    restarts for everything else.
    """
    if name == "Genetic":
        return ShardPlan(kind="islands")
    return ShardPlan(kind="restarts")


#: The default racing line-up for :func:`repro.parallel.api.
#: race_portfolio`: constructive seeds fanned into polishers, ordered
#: strongest-first so truncation to few workers keeps the best entries.
DEFAULT_PORTFOLIO: tuple[AlgorithmSpec, ...] = (
    AlgorithmSpec("HillClimbing", "HeavyOps-LargeMsgs"),
    AlgorithmSpec("HillClimbing", "FL-TieResolver2"),
    AlgorithmSpec("Genetic"),
    AlgorithmSpec("SimulatedAnnealing", "HeavyOps-LargeMsgs"),
    AlgorithmSpec("SimulatedAnnealing", "FL-TieResolver2"),
    AlgorithmSpec("HillClimbing"),
)
