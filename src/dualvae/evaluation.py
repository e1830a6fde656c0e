"""Top-N ranking evaluation: capped Recall@N and NDCG@N.

Scores are the training objective's pair scores in evaluation mode (z = mu):
``score_block`` and ``user_addends`` feed the snapshot's arrays to
``generation``'s per-aspect addends, whose skip sigmoid
``generation.poisson_loglik`` also uses, so ranking, ``recommend`` and
training share one score. Each aspect's addend is made in one array, in
place, and ``score_block`` sums them in place, in row blocks on the aspect
pool. Items the user interacted with in masked splits are pushed to -inf
before ranking so they can never be recommended back. Ties are broken by
ascending item index so results reproduce across runs. ``top_n`` ranks in
blocks of rows, so its transients stay a few MB for any number of users.
"""

from __future__ import annotations

import numpy as np

from . import generation as gen
from .data import DatasetSplit, InteractionMatrix
from .model import ModelParams, Snapshot


def user_addends(snap: Snapshot, users):
    """Per-aspect addends of the pair scores g(u, i) of the given users
    against all items: a generator of (b, n_items) arrays, which sum to the
    scores in aspect order."""
    users = np.asarray(users, dtype=np.int64)
    codes = snap.user_codes[:, users].reshape(-1, snap.user_codes.shape[2])
    return gen.aspect_addends(codes, snap.P[users], snap.frozen_items())


_SCORE_BLOCK = 256  # rows scored per task


def score_block(snap: Snapshot, users) -> np.ndarray:
    """Pair scores g(u, i) for the given users against all items.

    Rows are scored ``_SCORE_BLOCK`` at a time, one task per block, on the
    aspect pool's lanes (``generation._map``): a block's first addend is made
    in its output rows and the others, added in aspect order, in its lane's
    scratch rows."""
    users = np.asarray(users, dtype=np.int64)
    frozen = snap.frozen_items()
    out = np.empty((len(users), frozen.codes.shape[1]), dtype=frozen.codes.dtype)
    starts = range(0, len(users), _SCORE_BLOCK)
    rows_per_task = min(len(users), _SCORE_BLOCK)
    lanes = gen._lanes(len(starts), rows_per_task * out.shape[1])
    scratch = np.empty((lanes, rows_per_task, out.shape[1]), out.dtype)

    def task(k, lane):
        lo = starts[k]
        rows = users[lo: lo + _SCORE_BLOCK]
        codes, probs, dest = snap.user_codes[:, rows], snap.P[rows], out[lo: lo + len(rows)]
        gen._addend(codes[0], probs, frozen, 0, out=dest)
        for a in range(1, len(codes)):
            dest += gen._addend(codes[a], probs, frozen, a, out=scratch[lane, :len(rows)])

    gen._map(task, len(starts), lanes)
    return out


def score_all(snap: Snapshot, users, masks) -> np.ndarray:
    """Scores with every masked (user, item) position set to -inf.

    ``masks`` is a list of InteractionMatrix; anything a user touched in any
    of them is removed from the ranking candidates.
    """
    users = np.asarray(users, dtype=np.int64)
    out = score_block(snap, users)
    for m in masks:
        out[m.user_items.gather(users)] = -np.inf
    return out


_RANK_BLOCK = 256  # rows ranked at a time: 6 MB of transients at 3,000 items


def top_n(score_rows: np.ndarray, n: int) -> np.ndarray:
    """Indices of the n best scores per row, ties broken by item index.

    Equals ``np.argsort(-score_rows, kind="stable")[:, :n]``. Rows are ranked
    ``_RANK_BLOCK`` at a time, so the negated copy and the partition's index
    matrix never span the whole input; every block is negated into one buffer.
    """
    score_rows = np.asarray(score_rows)
    buf = np.empty_like(score_rows[:_RANK_BLOCK])
    blocks = (score_rows[start: start + _RANK_BLOCK]
              for start in range(0, max(len(score_rows), 1), _RANK_BLOCK))
    return np.concatenate([_top_n_rows(np.negative(b, out=buf[:len(b)]), n) for b in blocks])


def _top_n_rows(neg: np.ndarray, n: int) -> np.ndarray:
    """``top_n`` of one block, given its negated scores: each row's n best
    come from a partition and are sorted by (-score, index); a row whose
    n-th best value also lies outside them (a tie) is sorted in full."""
    if not 0 < n < neg.shape[1]:
        return np.argsort(neg, axis=1, kind="stable")[:, :n]
    best = np.sort(np.argpartition(neg, n - 1, axis=1)[:, :n], axis=1)
    values = np.take_along_axis(neg, best, axis=1)
    out = np.take_along_axis(best, np.argsort(values, axis=1, kind="stable"), axis=1)
    tied = (neg <= values.max(axis=1, keepdims=True)).sum(axis=1) != n
    if tied.any():
        out[tied] = np.argsort(neg[tied], axis=1, kind="stable")[:, :n]
    return out


_MASKS = {"valid": ("train",), "test": ("train", "valid"), "train": ()}


def evaluate_ranking(params: ModelParams, snap: Snapshot, split: DatasetSplit,
                     target: str = "test", cutoffs=(20, 50)) -> dict:
    """Macro-averaged capped Recall@N and NDCG@N on the validation, test or
    train split: |top N ∩ held| / min(N, |held|), and the discounted gain of
    the hits over that of min(N, |held|) hits ranked first. ``params`` is not
    read; the snapshot holds everything ranking needs.

    The held-out matrix is ``split.<target>``. Validation ranking masks only
    train items, test ranking additionally masks validation items, and train
    ranking (a diagnostic) masks nothing. Users without target interactions
    are skipped.
    """
    if target not in _MASKS:
        raise ValueError(f"unknown target {target!r}")
    held = getattr(split, target)
    masks = [getattr(split, name) for name in _MASKS[target]]

    n_held = np.diff(held.user_items.indptr)
    users = np.flatnonzero(n_held)
    n_held = n_held[users]
    result = {"n_users": len(users)}
    if not len(users):
        for n in cutoffs:
            result[f"recall@{n}"] = float("nan")
            result[f"ndcg@{n}"] = float("nan")
        return result

    ranked = top_n(score_all(snap, users, masks), max(cutoffs))
    is_held = np.zeros((len(users), held.num_items), dtype=bool)
    is_held[held.user_items.gather(users)] = True
    hits = np.take_along_axis(is_held, ranked, axis=1)
    # the scalar discounts 1 / log2(rank + 1), summed in rank order
    discounts = np.array([1.0 / np.log2(r + 1) for r in range(1, ranked.shape[1] + 1)])
    dcg = np.cumsum(hits * discounts, axis=1)
    ideal = np.cumsum(discounts)
    for n in cutoffs:
        width = min(n, ranked.shape[1])
        denom = np.minimum(n, n_held)
        result[f"recall@{n}"] = float(np.mean(hits[:, :width].sum(axis=1) / denom))
        result[f"ndcg@{n}"] = float(np.mean(dcg[:, width - 1] / ideal[denom - 1]))
    return result


def write_metrics_tsv(path, result: dict, cutoffs=(20, 50)):
    """Line-oriented report: ``metric N value n_users``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("metric\tN\tvalue\tn_users\n")
        for n in cutoffs:
            fh.write(f"recall\t{n}\t{result[f'recall@{n}']:.6f}\t{result['n_users']}\n")
        for n in cutoffs:
            fh.write(f"ndcg\t{n}\t{result[f'ndcg@{n}']:.6f}\t{result['n_users']}\n")
