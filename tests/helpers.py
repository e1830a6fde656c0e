"""Shared independent oracles for the test suite.

Everything in here is deliberately written the slow, obvious way (explicit
loops, brute-force enumeration) so it stays independent of the library code
paths it checks, apart from the small adapters marked as such.
"""

import functools
import hashlib

import numpy as np

from dualvae import data, generation as gen, tensor as T
from dualvae.gradcheck import finite_difference  # noqa: F401  (re-exported for the tests)


def max_rel_err(analytic, numeric, zero_floor=1e-7, zero_atol=1e-8):
    """Max relative error, treating near-zero pairs with an absolute check."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        a = np.asarray(a, dtype=np.float64)
        n = np.asarray(n, dtype=np.float64)
        denom = np.maximum(np.abs(a), np.abs(n))
        big = denom > zero_floor
        if np.any(big):
            worst = max(worst, float((np.abs(a - n)[big] / denom[big]).max()))
        small = ~big
        if np.any(small):
            assert float(np.abs(a - n)[small].max()) < zero_atol, "near-zero gradient mismatch"
    return worst


def reference_sigmoid(v):
    """Logistic function written out: exp of -|v| never overflows."""
    e = np.exp(-np.abs(v))
    return np.where(v >= 0.0, 1.0, e) / (1.0 + e)


def paired_scores(P, C, skips):
    """Adapter, not an oracle: g and its (n, A) addends for the pairs
    (row k of P, row k of C) whose aspect-a skip score is ``skips[k, a]``,
    summed as the library sums ``generation.aspect_addends``. With d = 1,
    unit frozen means and zero images, the skip score of aspect a is the
    code z_a itself."""
    P, C, skips = (np.atleast_2d(np.asarray(x, dtype=np.float64)) for x in (P, C, skips))
    n, A = P.shape
    frozen = gen.FrozenSide(np.ones((n, A, 1)), np.zeros((n, A, 1)), C)
    terms = list(gen.aspect_addends([skips[:, a:a + 1] for a in range(A)],
                                    [np.zeros((n, 1))] * A, P, frozen))
    g = functools.reduce(np.add, terms)
    return np.diag(g), np.stack([np.diag(t) for t in terms], axis=1)


def dense_poisson_loglik(codes, probs, frozen, r):
    """Reference for ``generation.poisson_loglik``: the batch-mean
    likelihood composed from generic tape ops over the dense (b, N) scores g
    and the dense target ``r``, which logs every score."""
    addends = []
    for a, code in enumerate(codes):
        live_w = T.slice_cols(probs, a, a + 1)
        frozen_w = frozen.probs[:, a][None, :]
        addends.append(T.mul(T.mul(T.sigmoid(T.matmul(code, frozen.keys[a])), frozen_w), live_w))
    g = functools.reduce(T.add, addends)
    return T.mean_all(T.sum_rows(T.sub(T.mul(r, T.log(g)), g)))


def tape_grads(build_loss, params):
    """Analytic gradients of a tape-built scalar loss wrt the parameters."""
    for p in params:
        p.zero_grad()
    tape = T.Tape()
    loss = build_loss(tape)
    tape.backward(loss)
    return [p.grad.copy() for p in params]


class SlowMatrix:
    """Per-pair reference for ``data.InteractionMatrix``: lists of row arrays
    built from a sorted set of tuples, and the digest hashed pair by pair."""

    def __init__(self, num_users, num_items, pairs, user_ids, item_ids):
        self.num_users, self.num_items = num_users, num_items
        self.user_ids, self.item_ids = list(user_ids), list(item_ids)
        uniq = sorted(set((int(u), int(i)) for u, i in pairs))
        by_user = [[] for _ in range(num_users)]
        by_item = [[] for _ in range(num_items)]
        for u, i in uniq:
            by_user[u].append(i)
            by_item[i].append(u)
        self.user_items = [np.asarray(v, dtype=np.int64) for v in by_user]
        self.item_users = [np.asarray(v, dtype=np.int64) for v in by_item]
        self.nnz = len(uniq)

    def pairs(self):
        for u, items in enumerate(self.user_items):
            for i in items:
                yield u, int(i)

    def digest(self):
        h = hashlib.sha256()
        h.update(f"{self.num_users},{self.num_items},{self.nnz};".encode())
        for u, i in self.pairs():
            h.update(f"{u}:{i};".encode())
        return h.hexdigest()[:16]


def slow_ingest(path, fmt=None, min_user_core=1, min_item_core=1):
    """Dict-and-set reference for ``data.ingest``; None when nothing survives."""
    pairs = set(data.read_pairs(path, fmt))
    while True:
        ucnt, icnt = {}, {}
        for u, i in pairs:
            ucnt[u] = ucnt.get(u, 0) + 1
            icnt[i] = icnt.get(i, 0) + 1
        keep = {(u, i) for u, i in pairs
                if ucnt[u] >= min_user_core and icnt[i] >= min_item_core}
        if len(keep) == len(pairs):
            break
        pairs = keep
    if not pairs:
        return None
    users = sorted({u for u, _ in pairs})
    items = sorted({i for _, i in pairs})
    umap = {u: k for k, u in enumerate(users)}
    imap = {i: k for k, i in enumerate(items)}
    return SlowMatrix(len(users), len(items), [(umap[u], imap[i]) for u, i in pairs],
                      users, items)


def slow_split(matrix, train_ratio, valid_of_test, seed):
    """Per-user loop reference for ``data.split``: (train, valid, test)."""
    rng = T.RngState(seed).derive(101)
    train_pairs, pool = [], []
    for u in range(matrix.num_users):
        items = matrix.user_items[u]
        n_test = int(np.floor(len(items) * (1.0 - train_ratio) + 1e-9))
        shuffled = items[rng.permutation(len(items))]
        train_pairs += [(u, int(i)) for i in shuffled[: len(items) - n_test]]
        pool += [(u, int(i)) for i in shuffled[len(items) - n_test:]]
    n_valid = int(round(valid_of_test * len(pool)))
    vidx = set(map(int, rng.choice(len(pool), n_valid, replace=False))) if n_valid else set()
    parts = ([p for k, p in enumerate(pool) if k in vidx],
             [p for k, p in enumerate(pool) if k not in vidx])
    return tuple(SlowMatrix(matrix.num_users, matrix.num_items, pairs, matrix.user_ids,
                            matrix.item_ids) for pairs in (train_pairs,) + parts)
