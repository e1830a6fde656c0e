"""Shared independent oracles for the test suite.

Everything in here is deliberately written the slow, obvious way (explicit
loops, brute-force enumeration) so it stays independent of the library code
paths it checks, apart from the small adapters marked as such.
"""

import functools
import hashlib
from itertools import permutations

import numpy as np
import scipy.sparse as sp

from dualvae import data, encoder as enc_mod, generation as gen, tensor as T
from dualvae.errors import ShapeError
from dualvae.gradcheck import finite_difference  # noqa: F401  (re-exported for the tests)


def from_dense(matrix, user_ids=None, item_ids=None):
    """Adapter, not an oracle: the InteractionMatrix of a dense 0/1 matrix's
    nonzero entries."""
    users, items = np.nonzero(matrix)
    return data.InteractionMatrix(matrix.shape[0], matrix.shape[1], users, items,
                                  user_ids, item_ids)


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


def sigmoid(x):
    """Tape op, not an oracle: the logistic function, with the library's
    ``tensor._logistic`` forward and the backward g * y * (1 - y)."""
    return T._unary(x, T._logistic, lambda g, y: g * y * (1.0 - y))


def mean_all(x):
    """Tape op, not an oracle: the mean of every entry, as (1, 1)."""
    (xv,) = T._vals(x)
    inv = 1.0 / xv.size
    return T._op((x,), xv.mean().reshape(1, 1), lambda g: np.full_like(xv, g[0, 0] * inv))


def cosine_rows(a, b):
    """Tape op, not an oracle: row-wise cosine similarity from the library's
    ``row_normalize`` and ``dot_rows``; pairs involving a zero row score 0."""
    return T.dot_rows(T.row_normalize(a), T.row_normalize(b))


def cosine_pairs(a, b):
    """Tape op, not an oracle: the all-pairs cosine matrix (rows of a) x
    (rows of b) from the library's ``row_normalize``, ``matmul`` and
    ``transpose``."""
    return T.matmul(T.row_normalize(a), T.transpose(T.row_normalize(b)))


def slice_rows(x, i0, i1):
    """Tape op, not an oracle: rows [i0, i1) of x; the backward scatters g
    back into a zero array of x's shape."""
    (xv,) = T._vals(x)
    if not (0 <= i0 < i1 <= xv.shape[0]):
        raise ShapeError(f"slice_rows: [{i0}:{i1}] out of range for {xv.shape}")

    def vjp(g):
        gx = np.zeros_like(xv)
        gx[i0:i1, :] = g
        return gx

    return T._op((x,), np.ascontiguousarray(xv[i0:i1, :]), vjp)


def stacked_codes(means, images=None):
    """Adapter, not an oracle: the (A, N, 2d) aspect-major codes
    [means | images] that snapshots and ``generation.FrozenSide`` hold, from
    (N, A, d) means and images (zeros when None)."""
    images = np.zeros_like(means) if images is None else images
    return np.ascontiguousarray(np.concatenate([means, images], axis=2).transpose(1, 0, 2))


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
    frozen = gen.FrozenSide(stacked_codes(np.ones((n, A, 1))), C)
    # aspect a's codes [z_a, f(z_a)] = [skip_a, 0], stacked aspect-major
    codes = np.concatenate([np.concatenate([skips[:, a:a + 1], np.zeros((n, 1))], axis=1)
                            for a in range(A)])
    terms = list(gen.aspect_addends(codes, P, frozen))
    g = functools.reduce(np.add, terms)
    return np.diag(g), np.stack([np.diag(t) for t in terms], axis=1)


def dense_poisson_loglik(codes, probs, frozen, r):
    """Reference for ``generation.poisson_loglik``: the batch-mean
    likelihood composed from generic tape ops over the dense (b, N) scores g
    and the dense target ``r``, which logs every score. ``codes`` is a list
    of A per-aspect (b, 2d) code tensors."""
    addends = []
    for a, code in enumerate(codes):
        live_w = T.slice_cols(probs, a, a + 1)
        frozen_w = frozen.probs[:, a][None, :]
        addends.append(T.mul(T.mul(sigmoid(T.matmul(code, frozen.codes[a].T)), frozen_w), live_w))
    g = functools.reduce(T.add, addends)
    return mean_all(T.sum_rows(T.sub(T.mul(r, T.log(g)), g)))


def infonce_losses(z_list, o, cfg, participate):
    """Reference for ``contrast.infonce_rows``: per-entity InfoNCE losses,
    one (b, 1) column per aspect, composed aspect by aspect from cosine tape
    ops (each z_a normalised A + 1 times). ``z_list`` holds the per-aspect
    (b, d) codes, ``o`` the (A, b, d) neighbourhood array; ``cfg`` gives
    ``tau`` and the ablations, and ``participate`` masks the in-batch
    negative pool."""
    n_aspects = len(z_list)
    batch = z_list[0].shape[0]
    inv_tau = 1.0 / cfg.tau

    def partner(a):
        if "no_nps" in cfg.ablate:
            return z_list[a]
        return T.constant(o[a])

    dtype = z_list[0].dtype
    part_col = participate.astype(dtype).reshape(batch, 1)
    losses = []
    for a in range(n_aspects):
        pos = cosine_rows(z_list[a], partner(a))
        pos_scaled = T.scale(pos, inv_tau)
        denom = T.exp(pos_scaled)
        if "no_ans" not in cfg.ablate:
            for b_asp in range(n_aspects):
                if b_asp == a:
                    continue
                neg = cosine_rows(z_list[a], partner(b_asp))
                denom = T.add(denom, T.exp(T.scale(neg, inv_tau)))
        if "no_uns" not in cfg.ablate and batch > 1:
            pairs = cosine_pairs(z_list[a], partner(a))
            mask = np.outer(np.ones(batch, dtype), part_col[:, 0])
            np.fill_diagonal(mask, 0.0)
            offdiag = T.mul(T.exp(T.scale(pairs, inv_tau)), mask)
            denom = T.add(denom, T.sum_rows(offdiag))
        losses.append(T.sub(T.log(denom), pos_scaled))
    return losses


def per_aspect_probs(means_per_aspect, protos, temp):
    """Reference for ``aspects.aspect_probs_live``: one cosine column per
    aspect against that aspect's prototype row, from generic tape ops."""
    cols = []
    for a, mean in enumerate(means_per_aspect):
        proto_row = slice_rows(protos, a, a + 1)
        ones = np.ones((mean.shape[0], 1), mean.dtype)
        cols.append(cosine_rows(mean, T.matmul(ones, proto_row)))
    return T.softmax_rows(T.scale(T.concat_cols(cols), 1.0 / temp))


def per_aspect_side_loss(target, rows, enc, dec, protos, frozen, temp, beta, eps_list, tape):
    """Reference for ``generation.side_loss``: the objective composed aspect
    by aspect (A masked CSR copies, A encoder passes, A KL columns, A codes),
    with the likelihood of ``dense_poisson_loglik``. Returns
    (loss, recon, kl, per-aspect z, probs)."""
    batch, _ = target.shape
    n_aspects, dim = frozen.n_aspects, frozen.codes.shape[2] // 2
    mus, zs, kls = [], [], []
    for a in range(n_aspects):
        col = frozen.probs[:, a]
        masked = sp.csr_matrix(((rows.data * col[rows.indices]).astype(rows.dtype),
                                rows.indices, rows.indptr), shape=rows.shape)
        mu, logvar, sigma = enc_mod.encode(masked, enc, tape)
        eps = np.zeros((batch, dim), target.dtype) if eps_list is None else eps_list[a]
        mus.append(mu)
        zs.append(enc_mod.reparameterize(mu, sigma, T.constant(eps)))
        kls.append(enc_mod.kl_rows(mu, logvar))
    if protos is not None:
        proto_leaf = tape.leaf(protos) if tape is not None else T.constant(protos.value)
        probs = per_aspect_probs(mus, proto_leaf, temp)
    else:
        probs = T.constant(np.full((batch, n_aspects), 1.0 / n_aspects, target.dtype))
    codes = [T.concat_cols([z, gen.decode(z, dec, tape)]) for z in zs]
    recon = dense_poisson_loglik(codes, probs, frozen, target.toarray())
    kl = mean_all(functools.reduce(T.add, kls))
    loss = T.sub(T.scale(kl, beta), recon)
    return loss, recon, kl, zs, probs


def loop_stored_probs(means, protos, temp):
    """Reference for ``aspects.item_aspect_probs`` / ``user_aspect_probs``:
    numpy cosines of each aspect's (n, d) means to its prototype, a zero-norm
    side scoring 0, then the temperature softmax."""
    n, n_aspects, _ = means.shape
    aff = np.empty((n, n_aspects), dtype=means.dtype)
    for a in range(n_aspects):
        mn = np.linalg.norm(means[:, a, :], axis=1)
        pn = np.linalg.norm(protos[a])
        denom = np.where(mn > 0.0, mn, 1.0) * (pn if pn > 0.0 else 1.0)
        cos = means[:, a, :] @ protos[a] / denom
        cos[(mn == 0.0) | (pn == 0.0)] = 0.0
        aff[:, a] = cos
    aff /= temp
    aff -= aff.max(axis=1, keepdims=True)
    e = np.exp(aff)
    return e / e.sum(axis=1, keepdims=True)


def kl_gaussian(mu, sigma) -> float:
    """Scalar closed-form KL( N(mu, sigma) || N(0, I) ) of plain arrays."""
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    var = sigma * sigma
    return float(0.5 * np.sum(var + mu * mu - 1.0 - np.log(var)))


def neighborhood_repr(neighbors, weight_col, latents):
    """Single entity, single aspect: sum of weighted neighbor latents.

    ``weight_col`` and ``latents`` are indexed over the whole frozen side;
    an empty neighbor set yields the zero vector.
    """
    if len(neighbors) == 0:
        return np.zeros(latents.shape[1], dtype=latents.dtype)
    return (weight_col[neighbors, None] * latents[neighbors]).sum(axis=0)


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


def best_accuracy_exhaustive(learned, planted, n_aspects):
    """Most agreements between a relabeling of ``learned`` and ``planted``,
    by trying every permutation of the aspect labels."""
    best = 0
    for perm in permutations(range(n_aspects)):
        mapped = np.array(perm)[learned]
        best = max(best, int((mapped == planted).sum()))
    return best


def sample_standard_normal(rng, shape):
    """i.i.d. N(0, 1) constant tensor, deterministic under the rng state."""
    rows, cols = (shape, 1) if isinstance(shape, int) else tuple(shape)
    return T.Tensor(rng.standard_normal(rows, cols))


def tape_grads(build_loss, params):
    """Analytic gradients of a tape-built scalar loss wrt the parameters."""
    for p in params:
        p.grad[...] = 0.0
    tape = T.Tape()
    loss = build_loss(tape)
    tape.backward(loss)
    return [p.grad.copy() for p in params]


class LoopAdam:
    """Per-parameter reference for ``trainer.Adam``: one pair of moment
    arrays per parameter, updated one parameter at a time with the same
    arithmetic in the same order."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self):
        self.step_count += 1
        t = self.step_count
        for k, p in enumerate(self.params):
            g = p.grad
            self.m[k] = self.BETA1 * self.m[k] + (1.0 - self.BETA1) * g
            self.v[k] = self.BETA2 * self.v[k] + (1.0 - self.BETA2) * (g * g)
            m_hat = self.m[k] / (1.0 - self.BETA1 ** t)
            v_hat = self.v[k] / (1.0 - self.BETA2 ** t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)


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
