"""Attention-based aspect assignment.

Each side owns a small bank of trainable prototype vectors, one per aspect.
An entity's aspect probability row is the softmax (optionally temperature
scaled) of the cosine affinity between its per-aspect latent mean and the
matching prototype. Rows therefore live on the probability simplex, which is
what makes the masked-interaction decomposition exact downstream.
"""

from __future__ import annotations

import logging

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .tensor import Parameter, RngState, Tensor

log = logging.getLogger(__name__)


class Prototypes:
    """Trainable per-aspect anchor vectors for both sides.

    ``item_protos`` (rows h_a) drive item aspect probabilities; ``user_protos``
    (rows m_a) drive user preference probabilities. Initialized i.i.d. normal
    with std 1/sqrt(dim); no norm constraint is imposed, training shapes them.
    """

    def __init__(self, n_aspects: int, dim: int, rng: RngState, dtype=np.float64):
        self.n_aspects = n_aspects
        self.dim = dim
        scale = 1.0 / float(np.sqrt(dim))
        self.item_protos = Parameter(
            "protos.item", scale * rng.standard_normal(n_aspects, dim, dtype)
        )
        self.user_protos = Parameter(
            "protos.user", scale * rng.standard_normal(n_aspects, dim, dtype)
        )

    def params(self):
        return [self.item_protos, self.user_protos]


def aspect_probs_live(means_per_aspect, protos: Tensor, temp: float) -> Tensor:
    """On-tape aspect probability rows for a batch.

    ``means_per_aspect`` is a list of A tensors (batch x dim), the a-th being
    each entity's mean under aspect a; ``protos`` the matching (A x dim)
    prototype leaf. Gradients flow into both.
    """
    if temp <= 0:
        raise ShapeError("softmax temperature must be positive")
    n_aspects = protos.shape[0]
    if len(means_per_aspect) != n_aspects:
        raise ShapeError("one mean tensor per aspect required")
    cols = []
    for a in range(n_aspects):
        proto_row = T.slice_rows(protos, a, a + 1)
        batch = means_per_aspect[a].shape[0]
        ones = np.ones((batch, 1), means_per_aspect[a].dtype)
        cols.append(T.cosine_rows(means_per_aspect[a], T.matmul(ones, proto_row)))
    return T.softmax_rows(T.scale(T.concat_cols(cols), 1.0 / temp))


def _cosine_to_proto(means: np.ndarray, proto: np.ndarray) -> np.ndarray:
    mn = np.linalg.norm(means, axis=1)
    pn = np.linalg.norm(proto)
    if pn == 0.0 or np.any(mn == 0.0):
        log.warning("zero-norm vector in aspect affinity; cosine treated as 0")
    denom = np.where(mn > 0.0, mn, 1.0) * (pn if pn > 0.0 else 1.0)
    cos = means @ proto / denom
    if pn == 0.0:
        cos[:] = 0.0
    else:
        cos[mn == 0.0] = 0.0
    return cos


def _probs(means: np.ndarray, protos: np.ndarray, temp: float) -> np.ndarray:
    if temp <= 0:
        raise ShapeError("softmax temperature must be positive")
    n, n_aspects, dim = means.shape
    if protos.shape != (n_aspects, dim):
        raise ShapeError(f"prototype shape {protos.shape} vs means {means.shape}")
    aff = np.empty((n, n_aspects), dtype=means.dtype)
    for a in range(n_aspects):
        aff[:, a] = _cosine_to_proto(means[:, a, :], protos[a])
    aff /= temp
    aff -= aff.max(axis=1, keepdims=True)
    e = np.exp(aff)
    return e / e.sum(axis=1, keepdims=True)


def item_aspect_probs(item_means: np.ndarray, item_protos: np.ndarray, temp: float) -> np.ndarray:
    """Evaluation-mode item aspect matrix C (items x aspects) from stored means."""
    return _probs(item_means, item_protos, temp)


def user_aspect_probs(user_means: np.ndarray, user_protos: np.ndarray, temp: float) -> np.ndarray:
    """Evaluation-mode user aspect matrix P (users x aspects) from stored means."""
    return _probs(user_means, user_protos, temp)


def uniform_probs(n: int, n_aspects: int, dtype=np.float64) -> np.ndarray:
    return np.full((n, n_aspects), 1.0 / n_aspects, dtype=dtype)


def aspect_entropy_report(probs: np.ndarray):
    """Per-row entropy (nats) and argmax aspect, ties broken by lowest index."""
    p = np.asarray(probs, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, -p * np.log(p), 0.0)
    return terms.sum(axis=1), p.argmax(axis=1)
