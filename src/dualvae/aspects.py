"""Attention-based aspect assignment.

Each side owns a small bank of trainable prototype vectors, one per aspect
(``ModelParams.item_protos`` and ``user_protos``, in that side's group). An
entity's aspect probability row is the softmax (optionally temperature
scaled) of the cosine affinity between its per-aspect latent mean and the
matching prototype. Rows therefore live on the probability simplex, which is
what makes the masked-interaction decomposition exact downstream.
"""

from __future__ import annotations

import logging

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .tensor import Tensor

log = logging.getLogger(__name__)


def aspect_probs_live(means, protos, temp: float) -> Tensor:
    """Aspect probability rows of b entities, on the tape or off it.

    ``means`` is the (A * b, d) stack of per-aspect posterior means, row
    ``a * b + i`` holding entity i under aspect a; ``protos`` the matching
    (A, d) prototypes. Each row's cosine to its aspect's prototype, folded
    to (b, A) and divided by ``temp``, is softmaxed per entity; a zero-norm
    row or prototype has cosine 0. Gradients flow into both inputs.
    """
    if temp <= 0:
        raise ShapeError("softmax temperature must be positive")
    n_aspects = protos.shape[0]
    rows, dim = means.shape
    if rows % n_aspects or protos.shape[1] != dim:
        raise ShapeError(f"stacked means {means.shape} vs prototypes {protos.shape}")
    batch = rows // n_aspects
    # one-hot (A * b, A) rows copy each aspect's unit prototype to its block
    spread = np.repeat(np.eye(n_aspects, dtype=means.dtype), batch, axis=0)
    cos = T.dot_rows(T.row_normalize(means), T.matmul(spread, T.row_normalize(protos)))
    folded = T.transpose(T.reshape(cos, n_aspects, batch))
    return T.softmax_rows(T.scale(folded, 1.0 / temp))


def _stored_probs(codes: np.ndarray, protos: np.ndarray, temp: float) -> np.ndarray:
    """``aspect_probs_live`` on the means of stored (A, n, 2d) codes
    [means | images] and plain prototypes."""
    n_aspects, n, width = codes.shape
    dim = width // 2
    if protos.shape != (n_aspects, dim):
        raise ShapeError(f"prototype shape {protos.shape} vs codes {codes.shape}")
    stacked = codes[:, :, :dim].reshape(n_aspects * n, dim)
    if not (np.all((stacked * stacked).sum(axis=1)) and np.all((protos * protos).sum(axis=1))):
        log.warning("zero-norm vector in aspect affinity; cosine treated as 0")
    return aspect_probs_live(T.constant(stacked), T.constant(protos), temp).value


def item_aspect_probs(item_codes: np.ndarray, item_protos: np.ndarray, temp: float) -> np.ndarray:
    """Evaluation-mode item aspect matrix C (items x aspects) from stored codes."""
    return _stored_probs(item_codes, item_protos, temp)


def user_aspect_probs(user_codes: np.ndarray, user_protos: np.ndarray, temp: float) -> np.ndarray:
    """Evaluation-mode user aspect matrix P (users x aspects) from stored codes."""
    return _stored_probs(user_codes, user_protos, temp)


def uniform_probs(n: int, n_aspects: int, dtype) -> np.ndarray:
    return np.full((n, n_aspects), 1.0 / n_aspects, dtype=dtype)


def aspect_entropy_report(probs: np.ndarray):
    """Per-row entropy (nats) and argmax aspect, ties broken by lowest index."""
    p = np.asarray(probs, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, -p * np.log(p), 0.0)
    return terms.sum(axis=1), p.argmax(axis=1)
