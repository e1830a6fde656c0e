"""Neighborhood-contrastive representation constraint.

Each entity's positive partner under aspect ``a`` is its neighborhood
representation: the aspect-probability-weighted sum of its train-split
neighbors' latents from the other side. Negatives come from two pools, the
same entity's neighborhood representations under other aspects (keeps
aspects apart) and other in-batch entities' representations under the same
aspect (keeps entities apart). The temperature-scaled cosine InfoNCE loss
ties them together.

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
    frozen codes.
    """
    b, n = rows.shape
    n_aspects, dim = frozen.n_aspects, frozen.codes.shape[2] // 2
    if frozen.probs.shape != (n, n_aspects) or frozen.codes.shape[1] != n:
        raise ShapeError("frozen side does not match row width")
    out = np.empty((n_aspects, b, dim), dtype=frozen.codes.dtype)
    for a in range(n_aspects):
        out[a] = rows @ (frozen.probs[:, a, None] * frozen.codes[a, :, :dim])
    return out


def infonce_losses(z_list, o, cfg: TrainConfig, participate: np.ndarray):
    """Per-entity InfoNCE losses, one (b, 1) column per aspect.

    ``z_list`` holds the live per-aspect codes; ``o`` is the (A, b, d)
    neighborhood array. ``cfg`` gives the temperature ``tau`` and the
    ablations: ``no_nps`` ignores ``o`` (the codes themselves then act as
    both positives and negative pool), ``no_ans`` drops the other aspects'
    negatives and ``no_uns`` the other in-batch entities' negatives (users
    in a user batch, items in an item batch). Non participating entities
    are masked out of the pairwise negative pool.
    """
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
        pos = T.cosine_rows(z_list[a], partner(a))
        pos_scaled = T.scale(pos, inv_tau)
        denom = T.exp(pos_scaled)
        if "no_ans" not in cfg.ablate:
            for b_asp in range(n_aspects):
                if b_asp == a:
                    continue
                neg = T.cosine_rows(z_list[a], partner(b_asp))
                denom = T.add(denom, T.exp(T.scale(neg, inv_tau)))
        if "no_uns" not in cfg.ablate and batch > 1:
            pairs = T.cosine_pairs(z_list[a], partner(a))
            mask = np.outer(np.ones(batch, dtype), part_col[:, 0])
            np.fill_diagonal(mask, 0.0)
            offdiag = T.mul(T.exp(T.scale(pairs, inv_tau)), mask)
            denom = T.add(denom, T.sum_rows(offdiag))
        losses.append(T.sub(T.log(denom), pos_scaled))
    return losses


def batch_contrast(z, o, cfg: TrainConfig, participate: np.ndarray) -> Tensor:
    """Aspect-summed InfoNCE averaged over participating batch entities.

    ``z`` is the live side's (A * b, d) aspect-major codes, ``o`` the (A, b, d)
    neighborhood array and ``participate`` the (b,) mask of entities with a
    train neighborhood.
    """
    count = int(participate.sum())
    dtype = z.dtype
    if count == 0:
        return T.constant(np.zeros((1, 1), dtype))
    batch = len(participate)
    z_list = [T.slice_rows(z, a * batch, (a + 1) * batch) for a in range(o.shape[0])]
    per_aspect = infonce_losses(z_list, o, cfg, participate)
    total = per_aspect[0]
    for col in per_aspect[1:]:
        total = T.add(total, col)
    masked = T.mul(total, participate.astype(dtype).reshape(-1, 1))
    return T.scale(T.sum_all(masked), 1.0 / count)


def total_loss(elbo: "gen.ElboTerms", contrast: "Tensor | None", gamma: float) -> Tensor:
    """Minimized objective: negative ELBO plus gamma-weighted contrast."""
    if gamma < 0.0:
        raise ConfigError("gamma must be non-negative")
    if contrast is None or gamma == 0.0:
        return elbo.loss
    return T.add(elbo.loss, T.scale(contrast, gamma))
