"""Top-N ranking evaluation: capped Recall@N and NDCG@N.

Scores are the training objective's pair scores in evaluation mode (z = mu):
``score_block`` feeds the snapshot's arrays to ``generation``'s per-aspect
addends, whose skip sigmoid ``generation.poisson_loglik`` also uses, so
ranking, ``recommend`` and training share one score. Each aspect's addend
is made in one array, in place, and ``score_block`` sums them in place, in
row tasks on the aspect pool. ``pair_addends`` gives the same addends of
single pairs, which ``recommend`` prints beside each score. Items the user
interacted with in masked splits are pushed to -inf before ranking so they
can never be recommended back. Ties are broken by ascending item index so
results reproduce across runs. ``rank`` keeps each chunk's n best, and
``evaluate_ranking`` ranks the held items within a chunk row's K best, so
no array spans all users and all items.
"""

from __future__ import annotations

import numpy as np

from . import generation as gen, tensor as T
from .data import DatasetSplit, InteractionMatrix
from .model import ModelParams, Snapshot


def pair_addends(snap: Snapshot, users, items) -> np.ndarray:
    """The (k, A) per-aspect addends p_a * c_a * sigmoid_a of the pair scores
    g(users[j], items[j]), the explanation ``recommend`` prints. Row j sums,
    in aspect order, to the score ``score_block`` ranks that pair by, within
    a few ulps: the skip scores are dot products here and a matmul there."""
    skips = np.einsum("akd,akd->ka", snap.user_codes[:, users], snap.item_codes[:, items])
    return T._logistic(skips, out=skips) * snap.C[items] * snap.P[users]


_SCORE_BLOCK = 128  # most rows scored per task


def _even_bounds(n: int, most: int) -> list:
    """Bounds of the fewest near-equal pieces (the last the largest) of at most ``most``
    rows over range(n); for n > 1, most > 2 none is a lone row, whose product rounds apart."""
    pieces = max(-(-n // most), 1)
    return [k * n // pieces for k in range(pieces + 1)]


def score_block(snap: Snapshot, users, frozen: "gen.FrozenSide | None" = None,
                out: "np.ndarray | None" = None) -> np.ndarray:
    """Pair scores g(u, i) for the given users against all items.

    Rows are split into near-equal tasks of at most ``_SCORE_BLOCK`` rows, on
    the aspect pool's lanes (``generation._map``): a task's first addend is
    made in its output rows and the others, added in aspect order, in its
    lane's scratch rows. A caller scoring many chunks of users may pass
    ``frozen`` (``snap.frozen("item")``) and ``out`` (score rows; a lone user needs two)."""
    users = np.asarray(users, dtype=np.int64)
    frozen = snap.frozen("item") if frozen is None else frozen
    # a lone user is scored as two rows: numpy rounds a one-row product as a vector one
    rows = np.repeat(users, 2) if len(users) == 1 else users
    out = (np.empty((len(rows), frozen.codes.shape[1]), frozen.codes.dtype) if out is None
           else out[:len(rows)])
    bounds = _even_bounds(len(rows), _SCORE_BLOCK)
    lanes = gen._lanes(len(bounds) - 1, (bounds[-1] - bounds[-2]) * out.shape[1])
    scratch = np.empty((lanes, bounds[-1] - bounds[-2], out.shape[1]), out.dtype)

    def task(k, lane):
        block = rows[bounds[k]: bounds[k + 1]]
        codes, probs, dest = snap.user_codes[:, block], snap.P[block], out[bounds[k]: bounds[k + 1]]
        gen._addend(codes[0], probs, frozen, 0, out=dest)
        for a in range(1, len(codes)):
            dest += gen._addend(codes[a], probs, frozen, a, out=scratch[lane, :len(block)])

    gen._map(task, len(bounds) - 1, lanes)
    return out[:len(users)]


def score_all(snap: Snapshot, users, masks, frozen: "gen.FrozenSide | None" = None,
              out: "np.ndarray | None" = None) -> np.ndarray:
    """Scores with every masked (user, item) position set to -inf.

    ``masks`` is a list of InteractionMatrix; anything a user touched in any
    of them is removed from the ranking candidates.
    """
    users = np.asarray(users, dtype=np.int64)
    out = score_block(snap, users, frozen, out)
    for m in masks:
        out[m.user_items.gather(users)] = -np.inf
    return out


_RANK_USERS = 256  # most users per ranking chunk: two score tasks, one per lane


def rank(snap: Snapshot, users, masks, n: int):
    """``(ranked, top_scores)``: each user's n best items under ``score_all``
    and their scores, ties broken by item index, as two (len(users), n)
    arrays (narrower if there are fewer items). Users are scored into one
    buffer and ranked in even chunks of at most ``_RANK_USERS``; only each
    chunk's n best are kept."""
    users = np.asarray(users, dtype=np.int64)
    frozen = snap.frozen("item")
    bounds = _even_bounds(len(users), _RANK_USERS)
    buf = np.empty((max(bounds[-1] - bounds[-2], 2), frozen.codes.shape[1]), frozen.codes.dtype)
    ranked, top = [], []
    for lo, hi in zip(bounds, bounds[1:]):
        scores = score_all(snap, users[lo:hi], masks, frozen, buf)
        ranked.append(top_n(scores, n))
        top.append(np.take_along_axis(scores, ranked[-1], 1))
    return np.concatenate(ranked), np.concatenate(top)


def top_n(score_rows: np.ndarray, n: int) -> np.ndarray:
    """Indices of the n best scores per row, ties broken by item index.

    Equals ``np.argsort(-score_rows, kind="stable")[:, :n]``: each row's n
    best come from a partition of the negated scores and are sorted by
    (-score, index); a row whose n-th best value also lies outside them (a
    tie) is sorted in full. Its transients are input-sized; ``rank`` passes
    one chunk of users at a time."""
    neg = np.negative(score_rows)
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


def _best_values(scores: np.ndarray, top: int, scratch: np.ndarray) -> np.ndarray:
    """Each row's ``top`` largest scores, the top-th first: near-equal parts of the rows are
    copied to the lanes of the caller's ``scratch`` and value-partitioned there."""
    lanes, items = len(scratch), scores.shape[1]
    parts = [k * len(scores) // lanes for k in range(lanes + 1)]

    def task(k, lane):
        part = scratch[lane, :parts[k + 1] - parts[k]]
        np.copyto(part, scores[parts[k]:parts[k + 1]])
        part.partition(items - top, axis=1)
        return part[:, items - top:].copy()

    return np.concatenate(gen._map(task, lanes, lanes))


def evaluate_ranking(params: ModelParams, snap: Snapshot, split: DatasetSplit, target: str,
                     cutoffs) -> dict:
    """Macro-averaged capped Recall@N and NDCG@N on the validation, test or
    train split: |top N ∩ held| / min(N, |held|), and the discounted gain of
    the hits over that of min(N, |held|) hits ranked first. ``params`` is not
    read; the snapshot holds everything ranking needs.

    The held-out matrix is ``split.<target>``. Validation ranking masks only
    train items, test ranking additionally masks validation items, and train
    ranking (a diagnostic) masks nothing. Users without target interactions
    are skipped. No top-N list is built: held items within a row's K best (K
    the largest cutoff) get their exact rank, and each user's discounts are
    summed in rank order, as a cumulative sum over the list is.
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
        return {**result, **{f"{m}@{n}": float("nan") for n in cutoffs for m in ("recall", "ndcg")}}

    frozen, items, top = snap.frozen("item"), held.num_items, min(max(cutoffs), held.num_items)
    bounds = _even_bounds(len(users), _RANK_USERS)
    buf = np.empty((max(bounds[-1] - bounds[-2], 2), items), frozen.codes.dtype)
    lanes = gen._lanes(2, -(-len(buf) // 2) * items)  # the partition's, gated as score_block's
    scratch = np.empty((lanes, -(-len(buf) // lanes), items), buf.dtype)
    ranked = []  # per chunk, each held item ranked within K: its user's position, its rank
    for lo, hi in zip(bounds, bounds[1:]):
        scores = score_all(snap, users[lo:hi], masks, frozen, buf)
        best = _best_values(scores, top, scratch)
        row, col = held.user_items.gather(users[lo:hi])
        row, col = np.compress(scores[row, col] >= best[row, 0], [row, col], axis=1)
        s, rank = scores[row, col][:, None], np.empty(len(row), np.int64)
        # rank 1 + #(row > s) + #(row[:col] == s): among the K best, or on a tie over the row
        for at in np.split(np.arange(len(row)), np.arange(len(scores), len(row), len(scores))):
            vals = best[row[at]]
            rank[at] = 1 + (vals > s[at]).sum(axis=1)
            tied = at[(s[at, 0] == vals[:, 0]) | ((vals == s[at]).sum(axis=1) > 1)]
            full, before = scores[row[tied]], np.arange(items) < col[tied, None]
            rank[tied] = 1 + (full > s[tied]).sum(axis=1) + ((full == s[tied]) & before).sum(axis=1)
        order = np.argsort(rank, kind="stable")  # each user's hits in rank order
        ranked.append((lo + row[order], rank[order]))
    owner, rank = map(np.concatenate, zip(*ranked))
    # the scalar discounts 1 / log2(rank + 1)
    discounts = np.array([1.0 / np.log2(r + 1) for r in range(1, top + 1)])
    ideal = np.cumsum(discounts)
    for n in cutoffs:
        hit, denom = rank <= n, np.minimum(n, n_held)
        dcg = np.bincount(owner[hit], discounts[rank[hit] - 1], minlength=len(users))
        result[f"recall@{n}"] = float(np.mean(np.bincount(owner[hit], minlength=len(users)) / denom))
        result[f"ndcg@{n}"] = float(np.mean(dcg / ideal[denom - 1]))
    return result


def metric_lines(result: dict, cutoffs) -> list:
    """The report's lines, ``metric N value n_users``: Recall, then NDCG."""
    return [f"{m}\t{n}\t{result[f'{m}@{n}']:.6f}\t{result['n_users']}"
            for m in ("recall", "ndcg") for n in cutoffs]


def write_metrics_tsv(path, result: dict, cutoffs):
    """``metric_lines`` under a header line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("metric\tN\tvalue\tn_users\n")
        for line in metric_lines(result, cutoffs):
            fh.write(line + "\n")
