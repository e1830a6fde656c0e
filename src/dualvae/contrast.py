"""Neighborhood-contrastive representation constraint.

Each entity's positive partner under aspect ``a`` is its neighborhood
representation: the aspect-probability-weighted sum of its train-split
neighbors' latents from the other side. Negatives come from two pools, the
same entity's neighborhood representations under other aspects (keeps
aspects apart) and other in-batch entities' representations under the same
aspect (keeps entities apart). The temperature-scaled cosine InfoNCE loss
ties them together, in the single-similarity-matrix form of NT-Xent (Chen
et al., ICML 2020).

The codes stay in their aspect-major (A * b, d) layout: the codes and their
partners are normalised once, and each pool is one ``tensor.group_pairs``
product, so the loss records the same handful of tape nodes for any A.

Entities with an empty train neighborhood have no meaningful positive; they
are excluded from the loss and from the in-batch negative pool.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import generation as gen, tensor as T
from .errors import ConfigError, ShapeError
from .tensor import Tensor

if TYPE_CHECKING:
    from .trainer import TrainConfig


def batch_neighborhood_reprs(rows, frozen: gen.FrozenSide) -> np.ndarray:
    """Neighborhood representations for a batch, all aspects at once.

    ``rows`` is the batch's interaction rows over the frozen side as scipy
    CSR, so row b of the (A, b, d) result's block a is sum_j rows[b, j] *
    probs[j, a] * means_a[j, :], the means being the first half of the
    frozen codes: the product with the first half of ``frozen.weighted``.
    """
    n, dim = rows.shape[1], frozen.codes.shape[2] // 2
    if frozen.probs.shape != (n, frozen.n_aspects) or frozen.codes.shape[1] != n:
        raise ShapeError("frozen side does not match row width")
    return np.stack([rows @ w[:, :dim] for w in frozen.weighted]).astype(frozen.codes.dtype,
                                                                          copy=False)


def infonce_rows(z, o, cfg: TrainConfig, participate: np.ndarray) -> Tensor:
    """Per-row InfoNCE losses of the live side's codes, as (A * b, 1).

    ``z`` holds the (A * b, d) aspect-major codes, ``o`` the (A, b, d)
    neighborhood array and ``participate`` the (b,) mask of entities with a
    train neighborhood. ``cfg`` gives the temperature ``tau`` and the
    ablations: ``no_nps`` ignores ``o`` (the codes then act as both positives
    and negative pool), ``no_ans`` drops the other aspects' negatives and
    ``no_uns`` the other in-batch entities' negatives. Both pools are
    grouped products of the normalised codes with their partners: across
    the aspect blocks (which holds the positive too) and within each block,
    where non participating entities and the entity itself are masked out.
    """
    n_aspects, batch, dim = o.shape
    unit = T.row_normalize(z)
    if "no_nps" in cfg.ablate:
        partners = unit
    else:
        partners = T.row_normalize(T.constant(o.reshape(n_aspects * batch, dim)))
    scaled = T.scale(unit, 1.0 / cfg.tau)
    pos = T.dot_rows(scaled, partners)
    if "no_ans" in cfg.ablate:
        denom = T.exp(pos)
    else:
        denom = T.sum_rows(T.exp(T.group_pairs(scaled, partners, n_aspects, across=True)))
    if "no_uns" not in cfg.ablate and batch > 1:
        mask = np.tile(participate.astype(z.dtype), (batch, 1))
        np.fill_diagonal(mask, 0.0)
        pairs = T.exp(T.group_pairs(scaled, partners, n_aspects))
        denom = T.add(denom, T.sum_rows(T.mul(pairs, np.tile(mask, (n_aspects, 1)))))
    return T.sub(T.log(denom), pos)


def batch_contrast(z, o, cfg: TrainConfig, participate: np.ndarray) -> Tensor:
    """Aspect-summed InfoNCE averaged over participating batch entities;
    the arguments are those of ``infonce_rows``."""
    count = int(participate.sum())
    if count == 0:
        return T.constant(np.zeros((1, 1), z.dtype))
    rows = infonce_rows(z, o, cfg, participate)
    mask = np.tile(participate.astype(z.dtype), o.shape[0]).reshape(-1, 1)
    return T.scale(T.sum_all(T.mul(rows, mask)), 1.0 / count)


def total_loss(elbo: "gen.ElboTerms", contrast: "Tensor | None", gamma: float) -> Tensor:
    """Minimized objective: negative ELBO plus gamma-weighted contrast."""
    if gamma < 0.0:
        raise ConfigError("gamma must be non-negative")
    if contrast is None or gamma == 0.0:
        return elbo.loss
    return T.add(elbo.loss, T.scale(contrast, gamma))
