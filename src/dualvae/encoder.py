"""Aspect-masked variational encoders.

One shallow network per side, shared across aspects: the aspect identity
enters only through the masked interaction vector (interaction row times an
aspect probability column). The encoder maps that masked vector to the mean
and log-variance of a diagonal Gaussian posterior; samples come from the
usual reparameterization z = mu + sigma * eps.

Interaction rows come in sparse (scipy CSR, masked by scaling the stored
values) and the first layer costs O(nnz * hidden); everything after it is
dense. A batch's A masked copies are encoded in one pass, stacked aspect by
aspect: row ``a * b + i`` of every per-aspect array holds entity i under
aspect a, so each aspect's block is a contiguous row slice.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import tensor as T
from .errors import NumericError, ShapeError
from .tensor import Parameter, RngState, Tensor

LOGVAR_MIN, LOGVAR_MAX = -10.0, 10.0


class EncoderParams:
    """input -> tanh hidden -> [mu; logvar] affine head."""

    def __init__(self, name: str, input_dim: int, hidden_dim: int, latent_dim: int,
                 rng: "RngState | None", dtype):
        self.name = name
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.latent_dim = latent_dim
        self.w1 = Parameter(f"{name}.w1", T.init_weights(rng, input_dim, hidden_dim, 1.0 / float(np.sqrt(input_dim)), dtype))
        self.b1 = Parameter(f"{name}.b1", np.zeros((1, hidden_dim), dtype=dtype))
        self.w2 = Parameter(f"{name}.w2", T.init_weights(rng, hidden_dim, 2 * latent_dim, 1.0 / float(np.sqrt(hidden_dim)), dtype))
        self.b2 = Parameter(f"{name}.b2", np.zeros((1, 2 * latent_dim), dtype=dtype))

    def params(self):
        return [self.w1, self.b1, self.w2, self.b2]


def mask_interactions(rows: np.ndarray, aspect_col: np.ndarray) -> np.ndarray:
    """Aspect-level interaction vectors: rows times one probability column.

    Because probability rows sum to one across aspects, summing the masked
    vectors over aspects reconstructs the original rows exactly.
    """
    rows = np.asarray(rows)
    col = np.asarray(aspect_col).reshape(-1)
    if rows.ndim == 1:
        rows = rows.reshape(1, -1)
    if rows.shape[1] != col.shape[0]:
        raise ShapeError(f"mask length {col.shape[0]} vs row width {rows.shape[1]}")
    return rows * col[None, :]


def mask_aspects(rows: sp.csr_matrix, probs: np.ndarray) -> sp.csr_matrix:
    """``mask_interactions`` on CSR rows, for every aspect at once.

    ``rows`` is (b, N) and ``probs`` the (N, A) aspect probabilities of the
    columns. Row ``a * b + i`` of the (A * b, N) result is row i times column
    a of ``probs``: the A masked copies share the rows' sparsity pattern, so
    they stack into one matrix, built in O(A * nnz); it keeps the rows' dtype.
    """
    probs = np.asarray(probs)
    if probs.ndim != 2 or rows.shape[1] != probs.shape[0]:
        raise ShapeError(f"mask probabilities {probs.shape} vs row width {rows.shape[1]}")
    n_aspects, nnz = probs.shape[1], rows.nnz
    data = (rows.data * probs[rows.indices].T).astype(rows.dtype, copy=False).ravel()
    starts = rows.indptr[:-1] + nnz * np.arange(n_aspects)[:, None]
    indptr = np.append(starts.ravel(), n_aspects * nnz)
    return sp.csr_matrix((data, np.tile(rows.indices, n_aspects), indptr),
                         shape=(n_aspects * rows.shape[0], rows.shape[1]))


def encode(x, enc: EncoderParams, tape: "T.Tape | None" = None):
    """Run the encoder; returns (mu, logvar, sigma) tensors.

    ``x`` may be CSR rows (the first layer is then a sparse product), a
    constant array or any tensor. When ``tape`` is given the encoder weights
    are recorded as leaves so gradients reach them; otherwise everything
    stays off-tape.
    """
    if tape is not None:
        w1, b1, w2, b2 = (tape.leaf(p) for p in enc.params())
    else:
        w1, b1, w2, b2 = (p.value for p in enc.params())
    first = T.sparse_matmul(x, w1) if sp.issparse(x) else T.matmul(x, w1)
    h = T.tanh(T.add(first, b1))
    out = T.add(T.matmul(h, w2), b2)
    if not np.all(np.isfinite(out.value)):
        bad = np.nonzero(~np.isfinite(out.value).all(axis=1))[0]
        raise NumericError(f"{enc.name}: non-finite activations for batch rows {bad[:8].tolist()}")
    d = enc.latent_dim
    mu = T.slice_cols(out, 0, d)
    logvar = T.clip(T.slice_cols(out, d, 2 * d), LOGVAR_MIN, LOGVAR_MAX)
    sigma = T.exp(T.scale(logvar, 0.5))
    return mu, logvar, sigma


def reparameterize(mu, sigma, eps) -> Tensor:
    """z = mu + sigma * eps with eps ~ N(0, I) (or zeros in evaluation mode)."""
    return T.add(mu, T.mul(sigma, eps))


def kl_rows(mu, logvar) -> Tensor:
    """Per-row KL( N(mu, sigma) || N(0, I) ) as a column vector.

    Closed form 0.5 * sum_j (sigma_j^2 + mu_j^2 - 1 - log sigma_j^2) with
    sigma^2 = exp(logvar).
    """
    inner = T.sub(T.sub(T.add(T.exp(logvar), T.mul(mu, mu)), 1.0), logvar)
    return T.scale(T.sum_rows(inner), 0.5)

