#!/usr/bin/env python3
"""One run of the dualvae benchmark.

    python3 benchmarks/run.py --workload train_proxy --seed 1 --seconds 50 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
lines before it give the environment and every metric by name with its
unit. ``--out FILE`` also appends the full record as one JSON line, which is
what ``compare.py`` reads.

A traced run makes the same fixed amount of work twice in one process,
first untraced and then with every layer wrapped (see ``layers.py``), and
checks that both give the same outputs. It then fits once more traced and
once more untraced, so that the fits run plain, traced, traced, plain; the
tracing overhead is the median of the two traced-minus-plain differences in
epoch time, which cancels a steady drift of the host's speed.
"""

import os

# One BLAS thread, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import json
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a name from workload.WORKLOADS")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append the full record to this JSON-lines file")
    return parser


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _src_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "dualvae").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas():
    import numpy

    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info['name']} {info['version']}"
    except (TypeError, KeyError):
        name = None
    threads = None
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, fn):
                threads = int(getattr(handle, fn)())
                break
    return name, threads


def environment(seed, sizes):
    import numpy
    import scipy

    blas, blas_threads = _blas()
    return {
        "commit": _git_commit(), "src_sha256": _src_sha256(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas, "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)), "seed": seed, **sizes,
    }


def timed_run(wl, args, workdir):
    import workload as W

    p = W.run_pass(wl, args.seed, workdir, args.seconds)
    ledger = W.Ledger()
    W.check_pass(p, wl, ledger, args.seed)
    return p, ledger, W.end_to_end(p, ledger), W.reported(p, ledger)


def traced_run(wl, args, workdir):
    import layers
    import workload as W
    from spans import Tracer, lookup

    plain = W.run_pass(wl, args.seed, workdir / "plain", None)
    originals = [lookup(owner, key) for _, owner, key, _ in layers.TARGETS]
    tracer = Tracer()
    with tracer.installed(layers.TARGETS):
        traced = W.run_pass(wl, args.seed, workdir / "traced", None)
    with Tracer().installed(layers.TARGETS):  # kept out of the per-layer metrics
        traced.trained.append(W.train(traced.prep, traced.speed))
    plain.trained.append(W.train(plain.prep, plain.speed))

    ledger = W.Ledger()
    W.check_pass(plain, wl, ledger, args.seed)
    W.check_pass(traced, wl, ledger, args.seed)
    a, b = plain.signature(), traced.signature()
    problems = [f"{k} differs with tracing on" for k in a if a[k] != b[k]]
    problems += [f"{name} not restored" for (name, owner, key, _), orig
                 in zip(layers.TARGETS, originals) if lookup(owner, key) is not orig]
    ledger.record("traced run matches the untraced one", problems)

    metrics = layers.per_layer_metrics(tracer)
    untraced = [t.fit_epoch_s for t in plain.trained]
    with_trace = [t.fit_epoch_s for t in traced.trained]
    metrics["trace.overhead_s"] = (statistics.median(b - a for a, b in zip(untraced, with_trace)), "s")
    epochs = traced.trained[0].result.stopped_epoch
    metrics["trace.fit_layers_s"] = (layers.fit_layer_seconds(tracer) / epochs, "s")
    untraced_s = statistics.median(untraced)
    extra = {"untraced_epoch_s": (untraced_s, "s"),
             "traced_epoch_s": (statistics.median(with_trace), "s"),
             "fit_layers_minus_untraced_s": (metrics["trace.fit_layers_s"][0] - untraced_s, "s"),
             "spans": (len(tracer.spans), "count")}
    return traced, ledger, metrics, extra


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not (SRC / "dualvae" / "__init__.py").is_file():
        print(f"benchmark: no dualvae sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workload as W

    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(W.WORKLOADS)}")
    wl = W.WORKLOADS[args.workload]
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        run = traced_run if args.trace else timed_run
        p, ledger, metrics, extra = run(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still has its directory there
            pass

    env, samples = environment(args.seed, W.sizes(p)), W.samples(p)
    print("env " + json.dumps(env, sort_keys=True))
    print("samples " + json.dumps(samples))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{args.workload}\t{name}\t{value!r}\t{unit}")
    for problem in ledger.problems:
        print(f"problem: {problem}", file=sys.stderr)

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, **result, "problems": ledger.problems, "env": env,
                  "samples": samples, "timings": W.timings(p), "probes": p.speed.probes,
                  "metrics": {**result["metrics"],
                              **{n: {"value": v, "unit": u} for n, (v, u) in extra.items()}}}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
