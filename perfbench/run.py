"""End-to-end benchmark of the deployment library and the fleet service.

Run from the repository root::

    python3 perfbench/run.py --workload deploy-bus --seed 1 --seconds 30
    python3 perfbench/run.py --workload all --seed 1          # all three
    python3 perfbench/run.py --workload fleet --seed 1 --trace 1
    python3 perfbench/run.py --record-fingerprints            # maintainers

Each run spawns fresh single-threaded interpreters (``worker.py``):
``spec.SETUP_PROBES`` that only set up, then the measuring one. It
prints a table of every end-to-end metric (``--trace 0``) or the
per-layer table (``--trace 1``), appends a stamped record to
``perfbench/results/history.jsonl`` and ends with one JSON line holding
the metrics ``BENCHMARK.json`` lists. It refuses to report -- exit code
3, no JSON line -- when the generated inputs do not match
``fingerprints.json``, and exits 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import compileall
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

HISTORY = HERE / "results" / "history.jsonl"
FINGERPRINTS = HERE / "fingerprints.json"
#: Every workload process must end inside the 180 s run limit.
WORKER_TIMEOUT_S = 170.0


class Refused(Exception):
    """The run cannot produce a trustworthy result."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def worker_env() -> dict:
    env = dict(os.environ)
    source = str(ROOT / "src")
    env["PYTHONPATH"] = source + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = "0"
    env.update(spec.PINNED_THREADS_ENV)
    return env


def spawn(mode: str, workload: str, *extra: str, timeout=WORKER_TIMEOUT_S):
    """Run one worker process; return its final JSON line, decoded."""
    import time

    command = [
        sys.executable, str(HERE / "worker.py"), mode, "--workload", workload,
        *extra, "--spawned-at", repr(time.monotonic()),
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=worker_env(), capture_output=True,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise Refused(f"{workload} {mode} worker exceeded {timeout:.0f} s", 4)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-4000:])
        raise Refused(
            f"{workload} {mode} worker failed (exit {done.returncode})", 4
        )
    return json.loads(lines[-1])


def git_stamp() -> dict:
    """SHA and dirty flag, when the root is itself a git work tree."""
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
        if top.returncode != 0 or Path(top.stdout.strip()) != ROOT:
            return {"git_sha": "unknown", "git_dirty": None}
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "--no-optional-locks", "status", "--porcelain",
             "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout
        return {"git_sha": sha, "git_dirty": bool(status.strip())}
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": "unknown", "git_dirty": None}


def check_fingerprints(workload: str, seed: int, result: dict) -> None:
    recorded = json.loads(FINGERPRINTS.read_text()).get(workload, {})
    canary = recorded.get(str(spec.CANARY_SEED))
    if canary is None:
        raise Refused(f"no recorded fingerprint for {workload}", 3)
    if result["canary_fingerprint"] != canary:
        raise Refused(
            f"{workload}: inputs of canary seed {spec.CANARY_SEED} changed "
            f"({result['canary_fingerprint'][:12]} != {canary[:12]}); the "
            "generators in src/ no longer produce the benchmarked inputs",
            3,
        )
    expected = recorded.get(str(seed))
    if expected is not None and result["fingerprint"] != expected:
        raise Refused(
            f"{workload}: inputs of seed {seed} changed "
            f"({result['fingerprint'][:12]} != {expected[:12]})", 3,
        )


def measure(workload: str, seed: int, seconds: float, trace: int,
            benchmark: dict) -> dict:
    """One benchmark run of *workload*; returns the full record."""
    setups = [
        spawn("setup", workload, "--seed", str(seed))["setup_s"]
        for _ in range(spec.SETUP_PROBES)
    ]
    result = spawn(
        "run", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    )
    check_fingerprints(workload, seed, result)
    setups.append(result["setup"]["setup_s"])
    attempted, failed = result["attempted"], result["failed"]
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "failed_share": failed / attempted if attempted else 1.0,
    }
    for name in ("throughput_rps", "latency_p50_ms", "latency_tail_ms",
                 "objective", "admitted_share", "restore_s"):
        if result.get(name) is not None:
            metrics[name] = result[name]
    correct = failed == 0 and attempted > 0
    if not trace:
        applicable = [
            name for name, info in spec.end_to_end(benchmark).items()
            if workload in info.get("workloads", spec.ALL)
        ]
        missing = [name for name in applicable if name not in metrics]
        if missing:
            correct = False
            result["errors"].append(f"metrics not measured: {missing}")
    return {
        "stamp": {
            "time_utc": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds"),
            **git_stamp(),
            **result["versions"],
            "host": platform.node(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": int(spec.PINNED_THREADS_ENV["OMP_NUM_THREADS"]),
            "traced": bool(trace),
            "seed": seed,
            "seconds": seconds,
            "held_out_seed": seed == spec.HELD_OUT_SEED,
        },
        "workload": workload,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "errors": result["errors"],
        "metrics": metrics,
        "setup_samples_s": setups,
        "setup": result["setup"],
        "detail": {
            key: result[key]
            for key in ("requests", "latency_tail_pct", "latency_tail_beyond",
                        "generate_s", "rotations", "spans_path")
            if key in result
        },
        "per_layer": result.get("per_layer"),
        "fingerprint": result["fingerprint"],
    }


def print_table(record: dict, benchmark: dict) -> None:
    workload = record["workload"]
    stamp = record["stamp"]
    print(f"== {workload}  seed {stamp['seed']}  "
          f"{'traced' if stamp['traced'] else 'untraced'}  "
          f"sha {stamp['git_sha'][:10]}{'+dirty' if stamp['git_dirty'] else ''}")
    if record["per_layer"] is None:
        for name, info in spec.end_to_end(benchmark).items():
            if name in record["metrics"]:
                value = record["metrics"][name]
                print(f"  {name:<18} {value:>14.6g} {info['unit']:<6} "
                      f"({info['better']} is better)")
        detail = record["detail"]
        if "latency_tail_pct" in detail:
            print(f"  tail = p{detail['latency_tail_pct']:g} over "
                  f"{detail['requests']} requests, "
                  f"{detail['latency_tail_beyond']} beyond it")
    else:
        units = spec.layer_units(benchmark)
        for name, value in record["per_layer"].items():
            print(f"  {name:<40} {value:>14.6g} {units.get(name, '')}")
    print(f"  attempted {record['attempted']}, failed {record['failed']}")
    for error in record["errors"]:
        print(f"  error: {error}")


def result_line(record: dict, benchmark: dict) -> dict:
    """The JSON object BENCHMARK.json promises on the last line."""
    key = "per_layer" if record["stamp"]["traced"] else "end_to_end"
    source = record["per_layer"] or record["metrics"]
    metrics = {}
    correct = record["correct"]
    for metric in benchmark[key]:
        value = source.get(metric["name"])
        if value is None:
            correct = False
            continue
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def record_fingerprints() -> None:
    table = {
        workload: spawn("fingerprint", workload, timeout=600)
        for workload in spec.ALL
    }
    FINGERPRINTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FINGERPRINTS.relative_to(ROOT)} for seeds "
          f"{list(spec.FINGERPRINT_SEEDS)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end deploy + fleet benchmark (see BENCHMARK.json)."
    )
    parser.add_argument("--workload", choices=(*spec.ALL, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-fingerprints", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write("perfbench: src/repro not found next to perfbench/\n")
        return 2
    if not spec.BENCHMARK_PATH.is_file():
        sys.stderr.write("perfbench: BENCHMARK.json not found\n")
        return 2
    benchmark = spec.load_benchmark()
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    if args.record_fingerprints:
        record_fingerprints()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workloads = spec.ALL if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for workload in workloads:
            record = measure(
                workload, args.seed, args.seconds, args.trace, benchmark
            )
            print_table(record, benchmark)
            HISTORY.parent.mkdir(parents=True, exist_ok=True)
            with HISTORY.open("a") as history:
                history.write(json.dumps(record) + "\n")
            lines[workload] = result_line(record, benchmark)
    except Refused as refusal:
        sys.stderr.write(f"perfbench: refused: {refusal}\n")
        return refusal.code
    sys.stdout.flush()
    print(json.dumps(lines[workloads[0]] if len(workloads) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
