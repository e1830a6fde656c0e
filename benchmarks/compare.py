#!/usr/bin/env python3
"""Summarise one result set of the dualvae benchmark, or compare two.

    python3 benchmarks/compare.py RESULTS.jsonl
    python3 benchmarks/compare.py PARENT.jsonl CHANGE.jsonl

A result set is a JSON-lines file of run records, as ``run.py --out`` and
``series.py`` write them. One row is printed per workload and metric.

A summary gives the median, the quartiles, the run count and the spread
(quartile distance over median) next to the metric's bound.

A comparison gives both sides' medians and quartiles, the ratio of the
change's median to the parent's with that base, and a verdict:

* ``gain``: the change wins at least nine tenths of the runs paired by seed,
  ties counting for neither, and the medians differ by more than the
  parent's quartile distance;
* ``regression``: the change's median is worse than the parent's by more
  than the bound, whatever the spreads;
* ``unresolved``: either side's spread is wider than the bound, and not
  every run of the change beats every run of the parent;
* ``within bound``: none of these.

Metrics without a bound (per-layer metrics and those run.py reports outside
BENCHMARK.json) get ``gain`` or ``-``. Of the latter, the quality metrics
and ``error_rate`` are exact for a given code and seed, so their rows also
count the seeds on which the value changed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# reported by run.py next to the end-to-end metrics, without a bound
REPORTED = {
    "val_recall_at_20": {"unit": "ratio", "better": "higher"},
    "aspect_recovery": {"unit": "ratio", "better": "higher"},
    "error_rate": {"unit": "ratio", "better": "lower"},
}


def metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    return {**REPORTED, **out}


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile) as ``statistics.quantiles`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(med) if med else float("inf")


def _better(a: float, b: float, better: str) -> bool:
    return a > b if better == "higher" else a < b


def verdict(parent: list, change: list, pairs: list, better: str, bound) -> str:
    """The verdict described in the module docstring; ``pairs`` are (parent, change)."""
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    wins = sum(1 for p, c in pairs if _better(c, p, better))
    if pairs and wins >= 0.9 * len(pairs) and abs(c_med - p_med) > p_q3 - p_q1 \
            and _better(c_med, p_med, better):
        return "gain"
    if bound is None:
        return "-"
    if _better(p_med, c_med, better):
        worse = abs(c_med - p_med) / abs(p_med) if p_med else float("inf")
        if worse > bound:
            return "regression"
    all_better = all(_better(c, p, better) for p in parent for c in change)
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved"
    return "within bound"


def load(path) -> tuple:
    """``({(workload, trace): {metric: {seed: value}}}, {metric: unit})``."""
    table: dict = defaultdict(lambda: defaultdict(dict))
    units: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            group = table[(rec["workload"], rec["trace"])]
            for name, m in rec["metrics"].items():
                group[name][rec["seed"]] = m["value"]
                units[name] = m["unit"]
    return table, units


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _side(values) -> str:
    q1, med, q3 = quartiles(values)
    return f"{_fmt(med)} [{_fmt(q1)}, {_fmt(q3)}] n={len(values)}"


def summarise(path) -> list:
    specs = metric_specs()
    table, units = load(path)
    rows = [("workload", "trace", "metric", "unit", "median [q1, q3] n", "spread", "bound")]
    for (workload, trace), metrics in sorted(table.items()):
        for name, by_seed in metrics.items():
            values = list(by_seed.values())
            bound = specs.get(name, {}).get("bound")
            rows.append((workload, str(trace), name, units[name], _side(values),
                         f"{spread(values):.4f}", "-" if bound is None else str(bound)))
    return rows


def compare(parent_path, change_path) -> list:
    specs = metric_specs()
    parent, units = load(parent_path)
    change, _ = load(change_path)
    rows = [("workload", "trace", "metric", "unit", "parent median [q1, q3] n",
             "change median [q1, q3] n", "ratio (base: parent median)", "verdict")]
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        for name, p_seeds in parent[key].items():
            c_seeds = change[key].get(name)
            if not c_seeds:
                continue
            spec = specs.get(name, {})
            better = spec.get("better", "lower")
            p_vals, c_vals = list(p_seeds.values()), list(c_seeds.values())
            pairs = [(p_seeds[s], c_seeds[s]) for s in sorted(set(p_seeds) & set(c_seeds))]
            p_med, c_med = quartiles(p_vals)[1], quartiles(c_vals)[1]
            ratio = f"{c_med / p_med:.4f} of {_fmt(p_med)}" if p_med else f"n/a (base {_fmt(p_med)})"
            v = verdict(p_vals, c_vals, pairs, better, spec.get("bound"))
            if name in REPORTED:
                changed = sum(1 for p, c in pairs if p != c)
                v += f"; changed on {changed}/{len(pairs)} seeds"
            rows.append((workload, str(trace), name, units[name], _side(p_vals), _side(c_vals), ratio, v))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    rows = summarise(argv[0]) if len(argv) == 1 else compare(*argv)
    widths = [max(len(r[k]) for r in rows) for k in range(len(rows[0]))]
    for r in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
