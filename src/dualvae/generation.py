"""Joint generation of interactions from both sides' latent codes.

A pair's score aggregates per-aspect agreement: the aspect probabilities of
the user and the item weight a sigmoid of a skip-connection score, which sums
the raw inner product of the two latents with the inner product of their
nonlinearly mapped images. The raw term keeps gradients alive when the
nonlinear path saturates (latent-collapse guard). Both sides hold their
codes [z_a, f(z_a)] aspect-major, the live batch as (A * b, 2d) rows and the
frozen side as the snapshot's (A, N, 2d) array, so each aspect's skip scores
are one product. ``_addend`` makes one aspect's (b, N) addend of a batch's
pair scores from plain arrays; ``evaluation.score_block`` ranks by their sum.

Training scores each batch row's whole interaction vector under a Poisson
likelihood, sum_j r_j * log g_j - g_j, whose log r! term vanishes for binary
feedback. ``poisson_loglik`` computes it as one tape op from the same skip
sigmoids, without building the (b, N) matrix of scores: r is sparse, so
r * log g is needed only at its stored entries, and the -g term only needs
each row's sum of g.

Training alternates sides: while one side's parameters are optimized, the
other side's codes and aspect probabilities enter as plain constants, so
their gradient accumulators provably stay zero.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import aspects, encoder as enc_mod, tensor as T
from .errors import DomainError, ShapeError
from .tensor import Parameter, RngState, Tensor


class DecoderParams:
    """One-layer tanh map d -> d, shared across aspects within a side."""

    def __init__(self, name: str, dim: int, rng: "RngState | None", dtype):
        self.name = name
        self.dim = dim
        self.w = Parameter(f"{name}.w", T.init_weights(rng, dim, dim, 1.0 / float(np.sqrt(dim)), dtype))
        self.b = Parameter(f"{name}.b", np.zeros((1, dim), dtype=dtype))

    def params(self):
        return [self.w, self.b]


def decode(z, dec: DecoderParams, tape: "T.Tape | None" = None) -> Tensor:
    if tape is not None:
        return T.tanh(T.add(T.matmul(z, tape.leaf(dec.w)), tape.leaf(dec.b)))
    return T.tanh(T.add(T.matmul(z, dec.w.value), dec.b.value))


@dataclass
class FrozenSide:
    """Evaluation-mode snapshot of the side not being trained this phase."""

    codes: np.ndarray  # (A, N, 2d) [posterior means | tanh decoder images], aspect-major
    probs: np.ndarray  # (N, A) aspect probabilities (C or P)
    neg_codes: np.ndarray = field(init=False, repr=False)  # -codes, for ``_skip_sigmoid``

    def __post_init__(self):
        self.neg_codes = np.negative(self.codes)

    @cached_property
    def weighted(self):  # c_a * codes_a, for training only: the codes vjp, the neighbourhoods
        return self.codes * self.probs.T[:, :, None]

    @property
    def n_aspects(self):
        return self.probs.shape[1]


@dataclass
class ElboTerms:
    """Reconstruction and KL pieces of one batch objective."""

    recon: Tensor  # scalar, batch-mean full-vector log-likelihood
    kl: Tensor     # scalar, batch-mean KL summed over aspects
    loss: Tensor   # scalar, -(recon - beta * kl)


@dataclass
class SideForward:
    """Live-side quantities the contrastive constraint reuses."""

    z: Tensor      # (A * b, d) sampled codes, aspect-major
    probs: Tensor  # (b, A) live aspect probabilities (constant if pinned)


def side_loss(
    target,
    rows,
    live_enc: enc_mod.EncoderParams,
    live_dec: DecoderParams,
    live_protos,
    frozen: FrozenSide,
    temp: float,
    beta: float,
    eps,
    tape: "T.Tape | None",
) -> tuple[ElboTerms, SideForward]:
    """One batch of the alternating objective for whichever side is live.

    ``target`` holds the batch's interaction rows against the frozen side's
    entities as scipy CSR, the reconstruction target. ``rows`` is the
    encoder's input: the same rows, possibly after input dropout or
    normalization. ``live_protos`` is the prototype Parameter producing the
    live side's aspect probabilities, or None to pin them uniform (the
    disentanglement ablations). ``eps`` is the (A * b, d) reparameterization
    noise, aspect-major like every per-aspect array here; None means
    evaluation mode (z = mu).
    """
    n_aspects = frozen.n_aspects
    batch, n_frozen = target.shape
    if frozen.codes.shape[1] != n_frozen:
        raise ShapeError(f"target width {n_frozen} vs frozen side {frozen.codes.shape[1]}")
    if rows.shape != target.shape:
        raise ShapeError(f"encoder rows {rows.shape} vs target {target.shape}")

    mu, logvar, sigma = enc_mod.encode(enc_mod.mask_aspects(rows, frozen.probs), live_enc, tape)
    z = mu if eps is None else enc_mod.reparameterize(mu, sigma, T.constant(eps))
    if live_protos is not None:
        proto_leaf = tape.leaf(live_protos) if tape is not None else T.constant(live_protos.value)
        probs = aspects.aspect_probs_live(mu, proto_leaf, temp)
    else:
        probs = T.constant(aspects.uniform_probs(batch, n_aspects, target.dtype))

    codes = T.concat_cols([z, decode(z, live_dec, tape)])
    recon = poisson_loglik(codes, probs, frozen, target)
    kl = T.scale(T.sum_all(enc_mod.kl_rows(mu, logvar)), 1.0 / batch)
    loss = T.sub(T.scale(kl, beta), recon)
    return ElboTerms(recon, kl, loss), SideForward(z, probs)


# ---------------------------------------------------------------------------
# the aspect pool
#
# The per-aspect dense kernels of ``poisson_loglik``, and the row blocks of
# ``evaluation.score_block`` and ``_best_values``, run on one thread pool; numpy
# releases the GIL in BLAS, ufuncs and partitions. Every cross-aspect sum runs
# in aspect order after the join, so the bytes do not depend on the pool's
# width. A task run by ``_map`` may be on a worker thread, so it
# - calls no function that ``benchmarks/layers.py`` wraps (``decode``,
#   ``evaluation.score_block``, ...), since its tracer keeps one
#   unsynchronised span stack;
# - calls no tape op, so that a pooled kernel is still one tape node, and
#   not ``_map``, whose tasks would wait for the workers that wait on them;
# - enters any ``np.errstate`` it needs itself: errstate is per thread;
# - allocates nothing (b, N)-sized, but writes into arrays its caller made:
#   a worker thread has its own glibc arena, whose freed blocks the main
#   thread does not reuse. Scratch is one array per lane, not per task.
#   ``trainer.fit`` pins the heap so freed blocks stay for the next batch; a
#   process that serves without fitting keeps glibc's trimming defaults.

_GATE = 1 << 17  # cells in one task's dense block below which the pool loses
_pool = None     # the ThreadPoolExecutor, made on first use


def _pool_width() -> int:
    """The CPUs this process may run on (``taskset`` narrows them)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _lanes(n: int, cells: int) -> int:
    """How many lanes ``_map`` should run n tasks on: one per CPU, but only
    when there is more than one task and each task's dense block holds at
    least ``_GATE`` cells; otherwise one, a plain loop."""
    return 1 if n < 2 or cells < _GATE else min(_pool_width(), n)


def _map(fn, n: int, lanes: int) -> list:
    """``[fn(0, 0), ..., fn(n - 1, (n - 1) % lanes)]``: lane w runs the tasks
    k = w, w + lanes, ... one after another, so a task may use a scratch
    array of its lane's own. The lanes run on the pool."""
    global _pool
    if lanes < 2:
        return [fn(k, 0) for k in range(n)]
    if _pool is None:
        _pool = ThreadPoolExecutor(_pool_width(), thread_name_prefix="dualvae-aspect")
    done = list(_pool.map(lambda w: [fn(k, w) for k in range(w, n, lanes)], range(lanes)))
    return [done[k % lanes][k // lanes] for k in range(n)]


def _skip_sigmoid(code: np.ndarray, frozen: FrozenSide, a: int, out=None) -> np.ndarray:
    """sigmoid(<z_a, m_a> + <f(z_a), f(m_a)>) of a batch's (b, 2d) aspect-a
    codes [z_a, f(z_a)] against every frozen entity, in one (b, N) array:
    ``out``, or a fresh one. The product with the negated codes is bytewise
    -s, where the logistic starts."""
    return T._logistic_of_negated(np.matmul(code, frozen.neg_codes[a].T, out=out))


def _addend(code: np.ndarray, probs: np.ndarray, frozen: FrozenSide, a: int, out=None):
    """Aspect a's (b, N) addend p_a * c_a * sigmoid_a of the pair scores of a
    batch, from its (b, 2d) aspect-a codes and (b, A) probabilities."""
    out = _skip_sigmoid(code, frozen, a, out)
    out *= frozen.probs[:, a]
    out *= probs[:, a:a + 1]
    return out


def poisson_loglik(codes, probs, frozen: FrozenSide, target) -> Tensor:
    """The batch's mean Poisson log-likelihood sum_j r_j * log g_j - g_j of
    each row's whole interaction vector, as one (1, 1) tape op.

    ``codes`` holds the batch's (A * b, 2d) codes ``[z_a, f(z_a)]``,
    aspect-major, ``probs`` its (b, A) aspect probabilities (tensors, on the
    tape or constant), ``frozen`` the other side, and ``target`` the batch's
    interactions r as scipy CSR. g is the pair score, the sum over aspects of
    ``_addend``, but no (b, N) matrix of it is built: g is formed only at r's
    stored entries, and sum_j g_j = sum_a p_a * (sigmoid_a @ c_a). Only those
    entries are logged, so a score that underflows to 0 where r = 0 is
    harmless; a score <= 0 at a stored entry raises DomainError.

    Backward, with k = upstream / b, the gradient wrt the aspect-a skip score
    is k * p_a * c_a * sigmoid_a' * (r / g - 1): a dense part that needs no
    g, sigmoid_a' @ (c_a * codes_a), plus a sparse one at the stored entries.
    The gradient wrt p_a is k * (sum over a row's stored entries of
    r / g * c_a * sigmoid_a, minus sigmoid_a @ c_a). Each is computed only if
    its input is on the tape; both recompute the per-entry share
    k * r / g * c_a * sigmoid_a.
    """
    cv, pv = T._vals(codes, probs)
    dtype = cv.dtype
    cprobs, fcodes = frozen.probs, frozen.codes
    shape, indptr, cols, r = target.shape, target.indptr, target.indices, target.data
    batch, n_aspects = shape[0], fcodes.shape[0]
    if cv.shape[0] != n_aspects * batch or pv.shape != (batch, n_aspects) or shape[1] != fcodes.shape[1]:
        raise ShapeError(f"poisson_loglik: codes {cv.shape}, probs {pv.shape}, target {shape} "
                         f"vs {n_aspects} aspects and {fcodes.shape[1]} frozen entities")
    entry_row = np.repeat(np.arange(batch), np.diff(indptr))
    blocks = [slice(a * batch, (a + 1) * batch) for a in range(n_aspects)]
    lanes = _lanes(n_aspects, batch * shape[1])

    # per aspect, in its own task: the (b, N) sigmoids, the same at the
    # stored entries, each row's sigmoid @ c_a, and the stored entries'
    # addend in its own order, (sigmoid * c) * p
    sigmoids = np.empty((n_aspects, batch, shape[1]), dtype)

    def forward(a, _):
        sig = _skip_sigmoid(cv[blocks[a]], frozen, a, out=sigmoids[a])
        stored = sig[entry_row, cols]
        return stored, sig @ cprobs[:, a], stored * cprobs[cols, a] * pv[entry_row, a]

    stored, masses, addends = zip(*_map(forward, n_aspects, lanes))
    g_stored = np.zeros(len(cols), dtype)
    row_sums = np.zeros(batch, dtype)  # sum_j g_j of each row
    for a in range(n_aspects):  # in aspect order
        row_sums += pv[:, a] * masses[a]
        g_stored += addends[a]
    if np.any(g_stored <= 0.0):
        raise DomainError("poisson_loglik: pair score must be strictly positive where r > 0")
    value = np.full((1, 1), (np.dot(r, np.log(g_stored)) - row_sums.sum()) / batch, dtype)

    def ratio_of(g):  # k and the sparse part of dL/dg, k * r / g
        k = g[0, 0] / batch
        return k, k * r / g_stored

    def d_codes(g):
        k, ratio = ratio_of(g)
        out = np.empty_like(cv)
        derivs = np.empty_like(sigmoids[:lanes])  # sigma_a * (1 - sigma_a), one per lane
        weighted = frozen.weighted  # built here, not by the lanes at once

        def backward(a, lane):
            sig, sig_stored, deriv = sigmoids[a], stored[a], derivs[lane]
            share = ratio * cprobs[cols, a] * sig_stored  # k * r / g * c_a * sigmoid_a
            np.subtract(1.0, sig, out=deriv)
            deriv *= sig
            d_code = out[blocks[a]]
            np.matmul(deriv, weighted[a], out=d_code)
            d_code *= -k * pv[:, a:a + 1]
            spread = sp.csr_matrix((share * (1.0 - sig_stored) * pv[entry_row, a], cols, indptr),
                                   shape=shape)
            d_code += spread @ fcodes[a]

        _map(backward, n_aspects, lanes)
        return out

    def d_probs(g):
        k, ratio = ratio_of(g)
        out = np.empty((batch, n_aspects), dtype)
        for a in range(n_aspects):
            share = ratio * cprobs[cols, a] * stored[a]
            out[:, a] = np.bincount(entry_row, share, minlength=batch) - k * masses[a]
        return out

    return T._op((codes, probs), value, d_codes, d_probs)
