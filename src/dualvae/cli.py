"""Command-line front end.

Subcommands: ingest, train, evaluate, recommend, export-aspects, ablate
(train alias), sweep, gradcheck. Exit codes: 0 ok, 1 usage or config error,
2 data error, 3 numeric error.

Every run pins BLAS to one thread before numpy loads, which is why heavy
imports happen inside the handlers. The aspect pool is then the one source
of threads, and its bytes do not depend on its width, so every run is
bitwise reproducible.
"""

from __future__ import annotations

import argparse
import os
import sys

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _pin_single_thread():
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"


def _config_epilog(schema) -> str:
    lines = ["configuration file keys (INI sections):"]
    for section, keys in schema.items():
        lines.append(f"  [{section}] " + ", ".join(keys))
    return "\n".join(lines)


def build_parser() -> _Parser:
    from .config import _SCHEMA

    parser = _Parser(prog="dualvae", description=__doc__.splitlines()[0],
                     epilog=_config_epilog(_SCHEMA),
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="build and export a canonical dataset")
    p_ingest.add_argument("path", nargs="?", help="interaction file (tsv/csv)")
    data_keys = _SCHEMA["data"]  # their defaults; "" is the suffix's format, as in _ini_args
    p_ingest.add_argument("--format", choices=("tsv", "csv"), default=data_keys["format"][2] or None)
    p_ingest.add_argument("--min-user-core", type=int, default=data_keys["min_user_core"][2])
    p_ingest.add_argument("--min-item-core", type=int, default=data_keys["min_item_core"][2])
    p_ingest.add_argument("--synthetic", action="store_true",
                          help="generate planted-aspect data instead of reading a file")
    p_ingest.add_argument("--users", type=int, default=400)
    p_ingest.add_argument("--items", type=int, default=400)
    p_ingest.add_argument("--true-aspects", type=int, default=4)
    p_ingest.add_argument("--density", type=float, default=0.01)
    p_ingest.add_argument("--mixed", action="store_true",
                          help="mixed-membership planted mixtures instead of one-hot")
    p_ingest.add_argument("--seed", type=int, default=0)
    p_ingest.add_argument("--out", required=True, help="output directory")

    for name, alias_help in (("train", "train a model"),
                             ("ablate", "train alias for ablation variants")):
        p = sub.add_parser(name, help=alias_help)
        p.add_argument("--config", required=True, help="INI run configuration")
        p.add_argument("--seed", type=int, default=None, help="override [train] seed")
        p.add_argument("--ablate", default=None,
                       help="comma list: no_add,no_ud,no_id,no_nrc,no_uns,no_ans,no_nps")
        p.add_argument("--out", default=None, help="override [output] dir")
        p.add_argument("--epochs", type=int, default=None, help="override [train] epochs")
        p.add_argument("--verbose", action="store_true")

    p_eval = sub.add_parser("evaluate", help="metrics for a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--target", choices=("test", "valid", "train"), default="test",
                        help="split to rank; train masks nothing (diagnostics)")
    p_eval.add_argument("--out", default=None, help="directory for the metrics TSV")

    p_rec = sub.add_parser("recommend", help="top-N lists with per-aspect score breakdown")
    p_rec.add_argument("--checkpoint", required=True)
    p_rec.add_argument("--config", required=True)
    p_rec.add_argument("--users", required=True, help="comma list of original user ids")
    p_rec.add_argument("--top-n", type=int, default=10)

    p_exp = sub.add_parser("export-aspects", help="write the aspect probability matrices")
    p_exp.add_argument("--checkpoint", required=True)
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--out", required=True)

    p_sweep = sub.add_parser("sweep", help="grid search over lr / gamma / aspects")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--lr-grid", default="1e-4,1e-3,1e-2,1e-1")
    p_sweep.add_argument("--gamma-grid", default="1e-5,1e-4,1e-3,1e-2,1e-1")
    p_sweep.add_argument("--aspects-grid", default="")
    p_sweep.add_argument("--epochs", type=int, default=None)
    p_sweep.add_argument("--out", required=True)

    p_gc = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.add_argument("--tolerance", type=float, default=1e-4)
    p_gc.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)

    return parser


def _ini_args(run_cfg):
    """The [data] values as ``data.ingest`` takes them, and the [split]
    values as ``data.split`` does."""
    path = run_cfg["data", "path"]
    if not path:
        raise_config("no [data] path configured")
    return ((path, run_cfg["data", "format"] or None, run_cfg["data", "min_user_core"],
             run_cfg["data", "min_item_core"]),
            (run_cfg["split", "train_ratio"], run_cfg["split", "valid_of_test"],
             run_cfg["split", "seed"]))


def _load_dataset(run_cfg):
    from . import data

    data_args, split_args = _ini_args(run_cfg)
    return data.split(data.ingest(*data_args), *split_args)


def raise_config(msg):
    from .errors import ConfigError

    raise ConfigError(msg)


def _load_trained(args):
    """The run config, the float64 checkpoint and the split stored in it. The
    configured file and the [data] and [split] values must give the record
    the checkpoint stores; otherwise it was trained on other data, a DataError."""
    from . import config as config_mod, data, trainer
    from .errors import DataError

    run_cfg = config_mod.load_config(args.config)
    ckpt = trainer.load_checkpoint(args.checkpoint, dtype="float64")
    data_args, split_args = _ini_args(run_cfg)
    source = data.split_record(data.file_record(*data_args), *split_args)
    stored = ckpt.split.source
    if stored != source:
        differ = sorted(k for k in source.keys() | stored.keys() if source.get(k) != stored.get(k))
        raise DataError("checkpoint was trained on a different dataset "
                        f"({', '.join(differ)} differ); id maps do not match")
    return run_cfg, ckpt, ckpt.split


def cmd_ingest(args) -> int:
    from pathlib import Path

    from . import data, synth

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.synthetic:
        matrix, world = synth.generate(args.users, args.items, args.true_aspects,
                                       args.density, args.seed, one_hot=not args.mixed)
        synth.write_planted_tsv(world, matrix, out)
    else:
        if not args.path:
            raise_config("ingest needs a file path unless --synthetic is given")
        matrix = data.ingest(args.path, args.format, args.min_user_core, args.min_item_core)
        matrix.write_tsv(out)
    print(f"users={matrix.num_users} items={matrix.num_items} interactions={matrix.nnz}")
    print(f"wrote {out}/interactions.tsv")
    return EXIT_OK


def cmd_train(args) -> int:
    import hashlib
    from pathlib import Path

    from . import config as config_mod, evaluation, trainer

    run_cfg = config_mod.load_config(args.config)
    if args.seed is not None:
        run_cfg.set("train", "seed", args.seed)
    if args.epochs is not None:
        run_cfg.set("train", "epochs", args.epochs)
    if args.ablate:
        run_cfg.set("train", "ablate", config_mod._to_str_list(args.ablate))
    if args.out is not None:
        run_cfg.set("output", "dir", args.out)

    out = Path(run_cfg["output", "dir"])
    out.mkdir(parents=True, exist_ok=True)
    cfg = run_cfg.train_config()
    split = _load_dataset(run_cfg)

    cutoffs = run_cfg["eval", "cutoffs"]
    result = trainer.fit(split, cfg, log_path=out / "train_log.tsv", verbose=args.verbose,
                         cutoffs=cutoffs)
    ckpt_path = out / "checkpoint.ckpt"
    trainer.save_checkpoint(result.checkpoint, ckpt_path)
    config_mod.save_config(run_cfg, out / "config_resolved.ini")
    evaluation.write_metrics_tsv(out / "valid_metrics.tsv", result.valid_metrics, cutoffs)
    digest = hashlib.sha256(ckpt_path.read_bytes()).hexdigest()
    print(f"best epoch {result.checkpoint.epoch} val R@20 {result.checkpoint.best_metric:.4f} "
          f"({result.stopped_epoch} epochs run)")
    print(f"checkpoint {ckpt_path} sha256 {digest}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    from pathlib import Path

    from . import evaluation

    run_cfg, ckpt, split = _load_trained(args)
    cutoffs = run_cfg["eval", "cutoffs"]
    result = evaluation.evaluate_ranking(ckpt.params, ckpt.snapshot, split,
                                         target=args.target, cutoffs=cutoffs)
    print("\n".join(evaluation.metric_lines(result, cutoffs)))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        evaluation.write_metrics_tsv(out / "metrics.tsv", result, cutoffs)
        print(f"wrote {out}/metrics.tsv")
    return EXIT_OK


def cmd_recommend(args) -> int:
    import numpy as np

    from . import evaluation
    from .errors import DataError

    _, ckpt, split = _load_trained(args)
    id_to_idx = {orig: k for k, orig in enumerate(split.train.user_ids)}
    tokens = [token.strip() for token in args.users.split(",")]
    for token in tokens:
        if token not in id_to_idx:
            raise DataError(f"unknown user id {token!r}")
    users = np.array([id_to_idx[token] for token in tokens])
    ranked, scores = evaluation.rank(ckpt.snapshot, users, [split.train], args.top_n)
    # masked items rank last; a list stops before them, so it may hold fewer than N
    rows, cols = np.nonzero(scores > -np.inf)
    items = ranked[rows, cols]
    addends = evaluation.pair_addends(ckpt.snapshot, users[rows], items)
    print("user\trank\titem\tscore\t" + "\t".join(f"aspect_{a}" for a in range(addends.shape[1])))
    # formatted from Python floats, which format faster than numpy scalars
    for k, rank, item, score, row in zip(rows.tolist(), cols.tolist(), items.tolist(),
                                         scores[rows, cols].tolist(), addends.tolist()):
        addend_cols = "\t".join(f"{x:.6f}" for x in row)
        print(f"{tokens[k]}\t{rank + 1}\t{split.train.item_ids[item]}\t{score:.6f}\t{addend_cols}")
    return EXIT_OK


def cmd_export_aspects(args) -> int:
    from pathlib import Path

    _, ckpt, split = _load_trained(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for fname, probs, ids in (
        ("item_aspects.tsv", ckpt.snapshot.C, split.train.item_ids),
        ("user_aspects.tsv", ckpt.snapshot.P, split.train.user_ids),
    ):
        with open(out / fname, "w", encoding="utf-8") as fh:
            header = "entity_id\t" + "\t".join(f"p_{a + 1}" for a in range(probs.shape[1]))
            fh.write(header + "\n")
            for k, row in enumerate(probs):
                fh.write(ids[k] + "\t" + "\t".join(f"{x:.6f}" for x in row) + "\n")
    print(f"wrote {out}/item_aspects.tsv and {out}/user_aspects.tsv")
    return EXIT_OK


def _grid(text: str, cast, flag: str, default=None) -> list:
    """The values of a comma-list sweep flag; empty means ``default``, and
    with no default an empty list is a config error."""
    try:
        values = [cast(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as e:
        raise_config(f"{flag}: {e}")
    if not values and default is None:
        raise_config(f"{flag} lists no value")
    return values or [default]


def cmd_sweep(args) -> int:
    from pathlib import Path

    from . import config as config_mod, trainer

    run_cfg = config_mod.load_config(args.config)
    lrs = _grid(args.lr_grid, float, "--lr-grid")
    gammas = _grid(args.gamma_grid, float, "--gamma-grid")
    aspect_grid = _grid(args.aspects_grid, int, "--aspects-grid", run_cfg["model", "aspects"])
    # every grid point is validated before any data is read or fit is run
    configs = []
    for A in aspect_grid:
        for lr in lrs:
            for gamma in gammas:
                cfg = run_cfg.train_config()
                cfg.aspects, cfg.dim = A, run_cfg["model", "dim"]  # 0: derived per A
                cfg.lr, cfg.gamma = lr, gamma
                if args.epochs is not None:
                    cfg.epochs = args.epochs
                configs.append(cfg.validate())
    split = _load_dataset(run_cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for cfg in configs:
        result = trainer.fit(split, cfg)
        rows.append((cfg.aspects, cfg.lr, cfg.gamma, result.checkpoint.best_metric,
                     result.checkpoint.epoch))
        print(f"A={cfg.aspects} lr={cfg.lr:g} gamma={cfg.gamma:g} -> val R@20 "
              f"{result.checkpoint.best_metric:.4f}")
    with open(out / "sweep.tsv", "w", encoding="utf-8") as fh:
        fh.write("aspects\tlr\tgamma\tval_r20\tbest_epoch\n")
        for A, lr, gamma, metric, epoch in rows:
            fh.write(f"{A}\t{lr:g}\t{gamma:g}\t{metric:.6f}\t{epoch}\n")
    print(f"wrote {out}/sweep.tsv")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from .gradcheck import format_report, run_gradcheck

    report = run_gradcheck(seed=args.seed, inject_fault=args.inject_fault)
    print(format_report(report, tol=args.tolerance))
    if any(v >= args.tolerance for v in report.values()):
        print("gradcheck FAILED", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


_HANDLERS = {
    "ingest": cmd_ingest,
    "train": cmd_train,
    "ablate": cmd_train,
    "evaluate": cmd_evaluate,
    "recommend": cmd_recommend,
    "export-aspects": cmd_export_aspects,
    "sweep": cmd_sweep,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _pin_single_thread()

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "ablate" and not args.ablate:
        parser.error("ablate requires --ablate with at least one variant flag")
    if args.command == "recommend" and args.top_n < 1:
        parser.error(f"--top-n must be at least 1, got {args.top_n}")

    from .errors import (CheckpointError, ConfigError, ContractError, DataError,
                         DomainError, NumericError, ShapeError)

    try:
        return _HANDLERS[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, CheckpointError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, DomainError, ShapeError, ContractError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
