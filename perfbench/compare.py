"""Compare two result sets of ``run.py``: parent commit vs change.

Usage, from the repository root::

    python3 perfbench/compare.py PARENT/perfbench/results/history.jsonl \\
        perfbench/results/history.jsonl

Each input is the history ``run.py`` appends to in one checkout: here a
checkout of the parent commit, then one of the change.
Untraced records give one row per workload x end-to-end metric: each
side's median and quartiles, the pairs the change won, and a verdict:

``better``
    The change won at least nine tenths of the pairs (ties count for
    neither side) and the medians differ by more than the parent's own
    quartile spread.
``worse``
    The change's median is worse than the parent's by more than the
    metric's bound, and the spread of either side is within the bound
    (or every change run is worse than every parent run).
``unresolved``
    The run-to-run spread is wider than the bound, so "unchanged"
    cannot be told apart from a regression.
``unchanged``
    Otherwise.

Runs pair by seed (seed order within one seed). Metrics that are exact
for a seed (``objective``, ``admitted_share``, ``failed_share``) are
judged pair by pair: identical pairs are ``unchanged`` and any consistent
worsening is ``worse``. Traced records add a per-layer table of medians.
Records whose seeds match but whose input fingerprints differ are
refused: the two sides did not run the same inputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs_of(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Pair runs by seed; fall back to run order when no seed is shared."""
    by_seed = defaultdict(lambda: ([], []))
    for record in parent:
        by_seed[record["stamp"]["seed"]][0].append(record)
    for record in change:
        by_seed[record["stamp"]["seed"]][1].append(record)
    pairs = [
        pair for left, right in by_seed.values() for pair in zip(left, right)
    ]
    return pairs or list(zip(parent, change))


def verdict(info, parent_values, change_values, pairs) -> tuple[str, int]:
    bound = info["bound"]
    sign = 1.0 if info["better"] == "lower" else -1.0

    def worse_by(old, new):  # > 0 when new is worse
        return sign * (new - old)

    wins = sum(1 for old, new in pairs if worse_by(old, new) < 0)
    losses = sum(1 for old, new in pairs if worse_by(old, new) > 0)
    p_q1, p_med, p_q3 = quartiles(parent_values)
    c_q1, c_med, c_q3 = quartiles(change_values)
    if pairs and wins >= 0.9 * len(pairs) and abs(c_med - p_med) > p_q3 - p_q1:
        return "better", wins
    if info.get("exact"):
        if not losses and not wins:
            return "unchanged", wins
        paired = statistics.median(worse_by(o, n) for o, n in pairs)
        return ("worse" if paired > 0 or losses > wins else "unresolved"), wins
    scale = abs(p_med) or 1.0
    spread = max((p_q3 - p_q1) / scale, (c_q3 - c_q1) / (abs(c_med) or 1.0))
    if worse_by(p_med, c_med) / scale > bound:
        separated = (
            min(change_values) > max(parent_values) if sign > 0
            else max(change_values) < min(parent_values)
        )
        return ("worse" if spread <= bound or separated else "unresolved"), wins
    if spread > bound:
        return "unresolved", wins
    return "unchanged", wins


def compare(parent: list[dict], change: list[dict], benchmark: dict) -> int:
    rows = []
    for workload in spec.ALL:
        old = [r for r in parent if r["workload"] == workload
               and not r["stamp"]["traced"]]
        new = [r for r in change if r["workload"] == workload
               and not r["stamp"]["traced"]]
        if not old or not new:
            continue
        pairs = pairs_of(old, new)
        for left, right in pairs:
            if (left["stamp"]["seed"] == right["stamp"]["seed"]
                    and left["fingerprint"] != right["fingerprint"]):
                sys.stderr.write(
                    f"refused: {workload} seed {left['stamp']['seed']} ran "
                    "different inputs on the two sides\n"
                )
                return 3
        for name, info in spec.end_to_end(benchmark).items():
            if workload not in info.get("workloads", spec.ALL):
                continue
            usable = [
                (a["metrics"][name], b["metrics"][name]) for a, b in pairs
                if name in a["metrics"] and name in b["metrics"]
            ]
            old_values = [r["metrics"][name] for r in old if name in r["metrics"]]
            new_values = [r["metrics"][name] for r in new if name in r["metrics"]]
            if not old_values or not new_values:
                continue
            result, wins = verdict(info, old_values, new_values, usable)
            p_q = quartiles(old_values)
            c_q = quartiles(new_values)
            rows.append((
                workload, name, info["unit"], p_q, c_q,
                f"{wins}/{len(usable)}", info["bound"], result,
            ))
    print(f"{'workload':<11} {'metric':<16} {'unit':<5} "
          f"{'parent q1/med/q3':>30} {'change q1/med/q3':>30} "
          f"{'won':>6} {'bound':>5}  verdict")
    for workload, name, unit, p_q, c_q, won, bound, result in rows:
        print(f"{workload:<11} {name:<16} {unit:<5} "
              f"{'/'.join(f'{v:.4g}' for v in p_q):>30} "
              f"{'/'.join(f'{v:.4g}' for v in c_q):>30} "
              f"{won:>6} {bound:>5.2f}  {result}")
    layers(parent, change, spec.layer_units(benchmark))
    held_out = any(r["stamp"]["seed"] == spec.HELD_OUT_SEED for r in change)
    if not held_out:
        print(f"note: no run on the held-out seed {spec.HELD_OUT_SEED}; "
              "confirm a claimed gain there")
    return 0


def layers(parent: list[dict], change: list[dict], units: dict) -> None:
    """Medians of each per-layer metric over the traced records."""
    for workload in spec.ALL:
        old = [r["per_layer"] for r in parent
               if r["workload"] == workload and r["stamp"]["traced"]]
        new = [r["per_layer"] for r in change
               if r["workload"] == workload and r["stamp"]["traced"]]
        if not old or not new:
            continue
        print(f"\nper-layer medians, {workload} "
              f"({len(old)} parent / {len(new)} change traced runs)")
        for name, unit in units.items():
            a = [r[name] for r in old if name in r]
            b = [r[name] for r in new if name in r]
            if not a or not b:
                continue
            a_med, b_med = statistics.median(a), statistics.median(b)
            if a_med == b_med == 0:
                continue
            ratio = f"{b_med / a_med:8.3f}x" if a_med else "     new"
            print(f"  {name:<40} {a_med:>14.6g} {b_med:>14.6g} {ratio} "
                  f"{unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="history of the parent")
    parser.add_argument("change", type=Path, help="history of the change")
    args = parser.parse_args(argv)
    parent, change = load(args.parent), load(args.change)
    if not parent or not change:
        parser.error("one side has no records")
    return compare(parent, change, spec.load_benchmark())


if __name__ == "__main__":
    sys.exit(main())
