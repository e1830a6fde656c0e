#!/usr/bin/env python3
"""Run the benchmark over several seeds and workloads, one process per run.

    python3 benchmarks/series.py --out results.jsonl --seeds 1-10
    python3 benchmarks/series.py --out traced.jsonl --seeds 1 --trace 1 --workloads train_proxy
    python3 benchmarks/series.py --out change.jsonl --parent ../parent --parent-out parent.jsonl

Runs go one after another; each appends its record to ``--out``, and every
run lasts ``run_seconds`` from BENCHMARK.json. With ``--parent``, another
checkout (the parent commit, with its own ``benchmarks/run.py``) runs the
same workload and seed next to each run of this one, into ``--parent-out``.
The two sides alternate which goes first from one seed to the next, so that
the host's changes of speed fall on both alike. Summarise or compare the
files with ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(tree: Path, out: str, workload: str, seed: int, seconds: int, trace: int) -> int:
    cmd = [sys.executable, str(tree / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(Path(out).resolve())]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=600)
    last = done.stdout.strip().splitlines()[-1:] or ["(no output)"]
    print(f"{tree.name} {workload} seed {seed}: exit {done.returncode} {last[0][:120]}", flush=True)
    return done.returncode


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--parent", type=Path, default=None,
                        help="checkout of the parent commit, run alternately with this one")
    parser.add_argument("--parent-out", default=None, help="where the parent's records go")
    args = parser.parse_args(argv)
    if (args.parent is None) != (args.parent_out is None):
        parser.error("--parent and --parent-out go together")

    sides = [(ROOT, args.out)]
    if args.parent is not None:
        sides.append((args.parent.resolve(), args.parent_out))
    status = 0
    for workload in args.workloads.split(","):
        for k, seed in enumerate(seed_list(args.seeds)):
            order = sides if k % 2 else sides[::-1]
            for tree, out in order:
                code = run_one(tree, out, workload, seed, spec["run_seconds"], args.trace)
                status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
