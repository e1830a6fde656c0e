"""Top-N ranking evaluation: capped Recall@N and NDCG@N.

Scores come from the evaluation-mode pair model (z = mu). Items the user
interacted with in masked splits are pushed to -inf before ranking so they
can never be recommended back. Ties are broken by ascending item index so
results reproduce across runs.
"""

from __future__ import annotations

import numpy as np

from .data import DatasetSplit, InteractionMatrix
from .model import ModelParams, Snapshot


def score_block(params: ModelParams, snap: Snapshot, users) -> np.ndarray:
    """Pair scores g(u, i) for the given users against all items."""
    users = np.asarray(users, dtype=np.int64)
    n_items = snap.item_means.shape[0]
    out = np.zeros((len(users), n_items), dtype=np.float64)
    for a in range(params.n_aspects):
        zu = snap.user_means[users, a, :]
        fu = snap.user_decoded[users, a, :]
        skip = zu @ snap.item_means[:, a, :].T + fu @ snap.item_decoded[:, a, :].T
        sig = 1.0 / (1.0 + np.exp(-skip))
        out += snap.P[users, a][:, None] * snap.C[:, a][None, :] * sig
    return out


def score_all(params: ModelParams, snap: Snapshot, users, masks, block: int = 256) -> np.ndarray:
    """Scores with every masked (user, item) position set to -inf.

    ``masks`` is a list of InteractionMatrix; anything a user touched in any
    of them is removed from the ranking candidates.
    """
    users = np.asarray(users, dtype=np.int64)
    out = np.empty((len(users), snap.item_means.shape[0]), dtype=np.float64)
    for start in range(0, len(users), block):
        out[start: start + block] = score_block(params, snap, users[start: start + block])
    for m in masks:
        out[m.user_items.gather(users)] = -np.inf
    return out


def top_n(score_rows: np.ndarray, n: int) -> np.ndarray:
    """Indices of the n best scores per row, ties broken by item index.

    Equals ``np.argsort(-score_rows, kind="stable")[:, :n]``: each row's n
    best come from a partition and are sorted by (-score, index); a row whose
    n-th best value also lies outside them (a tie) is sorted in full.
    """
    neg = -np.asarray(score_rows)
    if not 0 < n < neg.shape[1]:
        return np.argsort(neg, axis=1, kind="stable")[:, :n]
    best = np.sort(np.argpartition(neg, n - 1, axis=1)[:, :n], axis=1)
    values = np.take_along_axis(neg, best, axis=1)
    out = np.take_along_axis(best, np.argsort(values, axis=1, kind="stable"), axis=1)
    tied = (neg <= values.max(axis=1, keepdims=True)).sum(axis=1) != n
    if tied.any():
        out[tied] = np.argsort(neg[tied], axis=1, kind="stable")[:, :n]
    return out


def recall_at_n(topn_row, test_items, n: int) -> float:
    """|topN ∩ test| / min(N, |test|)."""
    test = set(int(i) for i in test_items)
    if not test:
        raise ValueError("recall undefined for a user with no test items")
    hits = sum(1 for i in topn_row[:n] if int(i) in test)
    return hits / min(n, len(test))


def ndcg_at_n(topn_row, test_items, n: int) -> float:
    """Position-discounted gain over the ideal prefix ordering."""
    test = set(int(i) for i in test_items)
    if not test:
        raise ValueError("ndcg undefined for a user with no test items")
    dcg = 0.0
    for rank, item in enumerate(topn_row[:n], start=1):
        if int(item) in test:
            dcg += 1.0 / np.log2(rank + 1)
    ideal = sum(1.0 / np.log2(r + 1) for r in range(1, min(n, len(test)) + 1))
    return dcg / ideal


_MASKS = {"valid": ("train",), "test": ("train", "valid"), "train": ()}


def evaluate_ranking(params: ModelParams, snap: Snapshot, split: DatasetSplit,
                     target: str = "test", cutoffs=(20, 50)) -> dict:
    """Macro-averaged metrics on the validation, test or train split.

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

    ranked = top_n(score_all(params, snap, users, masks), max(cutoffs))
    is_held = np.zeros((len(users), held.num_items), dtype=bool)
    is_held[held.user_items.gather(users)] = True
    hits = np.take_along_axis(is_held, ranked, axis=1)
    # the same scalar discounts, summed in the same order, as ndcg_at_n
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
