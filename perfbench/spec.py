"""What the benchmark needs beyond what ``BENCHMARK.json`` can hold.

``BENCHMARK.json`` at the repository root lists the workloads and the
metrics every run prints on its last line, with their units,
directions and bounds. Its schema is fixed, so the rest lives here: the
inputs and tail percentile of each workload, the exact prefixes, the
seeds, the end-to-end metrics kept off the JSON line, and for every
per-layer metric the end-to-end metric and workload it should move.
:func:`check` refuses a ``BENCHMARK.json`` that has drifted from it.

Importable without the ``repro`` package: the entry script
(``run.py``), the workload process (``worker.py``) and the comparison
tool (``compare.py``) all read it.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCHMARK_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Seed whose inputs are fingerprinted on every run (see fingerprints.json).
CANARY_SEED = 0

#: Seed never used while tuning the benchmark; validate a claimed gain
#: on it (``run.py --seed 90001``) after the tuning seeds agree.
HELD_OUT_SEED = 90001

#: Seeds whose input fingerprints ``fingerprints.json`` records.
FINGERPRINT_SEEDS = (*range(21), HELD_OUT_SEED)

#: Threading pins applied to every workload process.
PINNED_THREADS_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

#: Extra set-up-only interpreters spawned per run; ``setup_s`` is the
#: median over these and the measuring process itself.
SETUP_PROBES = 2

WORKLOADS = {
    "deploy-bus": {
        "algorithms": ("HillClimbing", "SimulatedAnnealing", "Genetic"),
        "operations": 20,
        # requests whose objective is reported: exact for a seed
        "exact_requests": 150,
        # highest percentile with >= 10 samples beyond it at 30 s
        "tail_pct": 98.0,
    },
    "deploy-geo": {
        "algorithms": ("SimulatedAnnealing", "Genetic"),
        "operations": 60,
        "exact_requests": 16,
        "tail_pct": 75.0,
    },
    "fleet": {
        "scenarios": (
            "steady", "churn", "surge", "drift", "abilene", "geo", "diurnal",
        ),
        # rotations whose objective / admitted share is reported
        "exact_rotations": 3,
        "tail_pct": 99.5,
    },
}
ALL = tuple(WORKLOADS)

#: End-to-end metrics printed in the table and kept in the history but
#: not on the JSON line: not defined on every workload, or -- like
#: ``objective`` -- exact for a seed but spread by the inputs across
#: seeds, so ``compare.py`` pairs them seed by seed (``exact``).
OFF_LINE_END_TO_END = {
    "objective": {"unit": "s", "better": "lower", "exact": True, "bound": 0.0},
    "admitted_share": {
        "unit": "ratio", "better": "higher", "exact": True, "bound": 0.0,
        "workloads": ("fleet",),
    },
    "restore_s": {
        "unit": "s", "better": "lower", "bound": 0.25, "workloads": ("fleet",),
    },
    "failed_share": {
        "unit": "ratio", "better": "lower", "exact": True, "bound": 0.0,
    },
}

SERVICE_KINDS = (
    "deploy", "undeploy", "tick", "server-failed", "server-joined",
    "workload-drift", "capacity-drift", "link-failed", "link-degraded",
    "region-outage",
)
TRACED_ALGORITHMS = (
    "HillClimbing", "SimulatedAnnealing", "Genetic", "HeavyOps-LargeMsgs",
)

_GEO_SPEED = "latency_p50_ms+throughput_rps@deploy-geo"
_BUS_SPEED = "latency_p50_ms+throughput_rps@deploy-bus"
_ALGORITHM_MOVES = {
    "HillClimbing": "throughput_rps@deploy-bus (batch-sweep default)",
    "SimulatedAnnealing": "latency_p50_ms@deploy-bus,deploy-geo",
    "Genetic": "latency_p50_ms@deploy-bus,deploy-geo",
    "HeavyOps-LargeMsgs": "latency_p50_ms@fleet (_bus_transfer_time)",
}


def _service_moves(kind: str) -> str:
    if kind in ("deploy", "workload-drift"):
        return "latency_p50_ms@fleet"
    if kind in ("tick", "server-failed", "link-failed", "link-degraded"):
        return "latency_tail_ms@fleet"
    return "nothing predicted"


#: Every per-layer metric of the traced run, and the end-to-end
#: metric(s) and workload(s) it should move; every other pairing is
#: predicted flat.
MOVES = {
    "import.repro_s": "setup_s@all",
    "import.cli_s": "setup_s@all",
    "import.service_s": "setup_s@all",
    "workloads.generate_s": "nothing (kept out of setup_s)",
    "compiled.build_calls": "latency_p50_ms@fleet,deploy-geo",
    "compiled.build_ms": "latency_p50_ms@fleet,deploy-geo (small on deploy-bus)",
    "routing.query_calls": _GEO_SPEED,
    "routing.query_ms": _GEO_SPEED + "; flat on deploy-bus",
    "routing.hit_ratio": _GEO_SPEED,
    "routing.dijkstra_runs": _GEO_SPEED,
    "routing.compile_all_pairs_calls": _GEO_SPEED,
    "routing.compile_all_pairs_ms": _GEO_SPEED,
    "routing.invalidate_calls": "latency_tail_ms@fleet",
    "routing.invalidate_ms": "latency_tail_ms@fleet",
    "routing.pairs_invalidated": "latency_tail_ms@fleet",
    "routing.pairs_recomputed": "latency_tail_ms@fleet",
    "cost.evaluate_calls": "latency_p50_ms@fleet",
    "cost.evaluate_ms": "latency_p50_ms@fleet",
    "incremental.propose_calls": _BUS_SPEED + "; deploy-geo through SA",
    "incremental.propose_ms": _BUS_SPEED + "; deploy-geo through SA",
    "incremental.commit_calls": _BUS_SPEED,
    "incremental.accept_ratio": _BUS_SPEED,
    "incremental.resync_calls": _BUS_SPEED,
    "batch.init_ms": "latency_p50_ms@deploy-geo",
    "batch.evaluate_calls":
        "GA share of latency_p50_ms@deploy-bus; latency_tail_ms@fleet",
    "batch.evaluate_ms":
        "GA share of latency_p50_ms@deploy-bus; latency_tail_ms@fleet",
    "batch.rows_scored": "GA share of latency_p50_ms@deploy-bus",
    "runtime.run_calls": "latency_p50_ms@deploy-bus",
    "runtime.self_ms": "latency_p50_ms@deploy-bus",
    "runtime.steps": "latency_p50_ms@deploy-bus",
    "runtime.evaluations": "latency_p50_ms@deploy-bus",
    "runtime.accept_ratio": "latency_p50_ms@deploy-bus",
    **{
        f"algorithms.{name}.{stat}": moves
        for name, moves in _ALGORITHM_MOVES.items()
        for stat in ("calls", "p50_ms", "self_ms")
    },
    **{
        f"service.{kind}.{stat}": _service_moves(kind)
        for kind in SERVICE_KINDS
        for stat in ("count", "p50_ms")
    },
    "service.placement_evaluations": "latency_p50_ms@fleet",
    "service.rebalance_moves": "latency_tail_ms@fleet",
    "service.cost_model_hit_ratio": "latency_p50_ms@fleet",
    "checkpoint.write_ms": "restore_s@fleet",
    "checkpoint.bytes": "restore_s@fleet",
    "checkpoint.restore_ms": "restore_s@fleet",
    "checkpoint.restore_events": "restore_s@fleet",
    "trace.untraced_p50_ms": "the untraced half of the traced run (overhead base)",
    "trace.traced_p50_ms": "the traced half of the traced run",
    "trace.overhead_pct": "tracing overhead: traced vs untraced p50 on the same requests",
    "trace.untraced_throughput_rps": "overhead base",
    "trace.traced_throughput_rps": "overhead",
    "trace.spans_written": "nothing",
    "trace.spans_dropped": "nothing",
}

#: Units of the per-layer metrics kept off the JSON line: times that are
#: structurally zero on some workload (their layer is not on that
#: workload's path), where a time on the line must be a live measurement
#: on every run. They are printed in the layer table and kept in the
#: history.
OFF_LINE_UNITS = {
    "routing.compile_all_pairs_ms": "ms",
    "routing.invalidate_ms": "ms",
    # the fleet prices through CompiledInstance directly: zero calls there
    "cost.evaluate_ms": "ms",
    **{
        f"algorithms.{name}.{stat}": "ms"
        for name in TRACED_ALGORITHMS
        for stat in ("p50_ms", "self_ms")
    },
    **{f"service.{kind}.p50_ms": "ms" for kind in SERVICE_KINDS},
    "checkpoint.write_ms": "ms",
    "checkpoint.restore_ms": "ms",
    "trace.untraced_throughput_rps": "1/s",
    "trace.traced_throughput_rps": "1/s",
    "trace.spans_written": "count",
    "trace.spans_dropped": "count",
}


def load_benchmark(path: Path = BENCHMARK_PATH) -> dict:
    """``BENCHMARK.json``, checked against this module."""
    benchmark = json.loads(path.read_text())
    check(benchmark)
    return benchmark


def check(benchmark: dict) -> None:
    """Raise ``ValueError`` where *benchmark* and this module disagree."""
    problems = []
    workloads = tuple(w["name"] for w in benchmark["workloads"])
    if workloads != ALL:
        problems.append(f"workloads {workloads} != {ALL}")
    on_line = {m["name"] for m in benchmark["end_to_end"]}
    if on_line & set(OFF_LINE_END_TO_END):
        problems.append(
            f"on and off the line: {sorted(on_line & set(OFF_LINE_END_TO_END))}"
        )
    layers = {m["name"] for m in benchmark["per_layer"]}
    if layers - set(MOVES):
        problems.append(f"per-layer metrics without MOVES: {sorted(layers - set(MOVES))}")
    if set(MOVES) - layers != set(OFF_LINE_UNITS):
        problems.append(
            "OFF_LINE_UNITS must name exactly the MOVES entries not in "
            f"BENCHMARK.json: {sorted(set(MOVES) - layers ^ set(OFF_LINE_UNITS))}"
        )
    if problems:
        raise ValueError("BENCHMARK.json vs spec.py: " + "; ".join(problems))


def end_to_end(benchmark: dict) -> dict[str, dict]:
    """Every end-to-end metric: name -> unit, better, bound (and flags)."""
    return {
        **{m["name"]: m for m in benchmark["end_to_end"]},
        **OFF_LINE_END_TO_END,
    }


def layer_units(benchmark: dict) -> dict[str, str]:
    """Every per-layer metric, in MOVES order: name -> unit."""
    on_line = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    return {
        name: on_line[name] if name in on_line else OFF_LINE_UNITS[name]
        for name in MOVES
    }
