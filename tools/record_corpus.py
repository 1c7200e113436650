"""Record the exact-behaviour corpus: digests of seeded, deterministic runs.

The corpus pins behaviour at full ``repr`` precision, where the golden
log's ``.6f`` rendering would hide ulp drift:

* every builtin fleet scenario at seeds 0, 3 and 7: the sha256 of the
  canonical JSON of the decision log (``record_to_dict`` per record;
  JSON floats are exact ``repr``), and ``repr`` of the fleet metrics;
* seeded serial deployments (``deploy_parallel(..., workers=1)``) of
  nine registered algorithms on a 20-op x 10-server bus instance and a
  60-op x 50-server geo instance: the sha256 of the mapping and
  ``repr`` of the objective.

Four registered algorithms are left out of the deployment entries:

* ``ConstraintAware`` takes about 4 s per geo deploy;
* ``Exhaustive`` and ``BranchAndBound`` search an exponential space;
* ``Line-Line`` needs a line workflow, and both reference workflows are
  hybrid graphs.

``tests/test_corpus.py`` recomputes every entry and compares. A change
that is meant to move a decision re-records here, and names the moved
entries and the reason in CHANGES.md::

    python tools/record_corpus.py            # rewrite tests/corpus.json
    python tools/record_corpus.py --check    # compare only; exit 1 on drift
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS_PATH = REPO_ROOT / "tests" / "corpus.json"
sys.path.insert(0, str(REPO_ROOT / "src"))

SEEDS = (0, 3, 7)
DEPLOY_ALGORITHMS = (
    "HillClimbing",
    "SimulatedAnnealing",
    "Genetic",
    "HeavyOps-LargeMsgs",
    "FairLoad",
    "FL-MergeMsgEnds",
    "FL-TieResolver",
    "FL-TieResolver2",
    "Random",
)
#: Seed of the workflow and network of each reference instance.
INSTANCE_SEED = 1


def canonical_sha256(document) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def fleet_entry(name: str, seed: int) -> dict[str, str]:
    """Digest of one builtin scenario replayed from *seed*."""
    from repro.service.checkpoint import record_to_dict
    from repro.service.scenarios import replay

    controller = replay(name, seed=seed)
    log = [record_to_dict(record) for record in controller.log]
    return {
        "log_sha256": canonical_sha256(log),
        "metrics": repr(controller.metrics()),
    }


def reference_instances() -> dict:
    """The bus 20 x 10 and geo 60 x 50 instances, by label."""
    from repro.scenarios import random_geo_network
    from repro.workloads.generator import (
        GraphStructure,
        random_bus_network,
        random_graph_workflow,
    )

    return {
        "bus": (
            random_graph_workflow(
                20, GraphStructure.HYBRID, seed=INSTANCE_SEED
            ),
            random_bus_network(10, seed=INSTANCE_SEED),
        ),
        "geo": (
            random_graph_workflow(
                60, GraphStructure.HYBRID, seed=INSTANCE_SEED
            ),
            random_geo_network(5, servers_per_region=10, seed=INSTANCE_SEED),
        ),
    }


def deploy_entry(workflow, network, algorithm: str, seed: int) -> dict:
    """Digest of one seeded serial deployment."""
    from repro.parallel import deploy_parallel

    outcome = deploy_parallel(algorithm, workflow, network, workers=1, seed=seed)
    return {
        "mapping_sha256": canonical_sha256(outcome.best.as_dict()),
        "best_value": repr(outcome.best_value),
    }


def fleet_keys() -> list[tuple[str, str, int]]:
    from repro.service.scenarios import builtin_scenarios

    return [
        (f"{name}/{seed}", name, seed)
        for name in builtin_scenarios()
        for seed in SEEDS
    ]


def deploy_keys() -> list[tuple[str, str, str, int]]:
    return [
        (f"{label}/{algorithm}/{seed}", label, algorithm, seed)
        for label in ("bus", "geo")
        for algorithm in DEPLOY_ALGORITHMS
        for seed in SEEDS
    ]


def compute_corpus() -> dict:
    """Every corpus entry, recomputed on the code at hand."""
    instances = reference_instances()
    return {
        "fleet": {
            key: fleet_entry(name, seed) for key, name, seed in fleet_keys()
        },
        "deploy": {
            key: deploy_entry(*instances[label], algorithm, seed)
            for key, label, algorithm, seed in deploy_keys()
        },
    }


def load_corpus(path: Path = CORPUS_PATH) -> dict:
    return json.loads(path.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare with the committed corpus instead of rewriting it",
    )
    args = parser.parse_args(argv)
    corpus = compute_corpus()
    if args.check:
        recorded = load_corpus()
        drift = [
            f"{section}/{key}"
            for section in ("fleet", "deploy")
            for key in sorted(set(corpus[section]) | set(recorded[section]))
            if corpus[section].get(key) != recorded[section].get(key)
        ]
        for key in drift:
            print(f"drift: {key}")
        return 1 if drift else 0
    CORPUS_PATH.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {CORPUS_PATH.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
