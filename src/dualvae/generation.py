"""Joint generation of interactions from both sides' latent codes.

A pair's score aggregates per-aspect agreement: the aspect probabilities of
the user and the item weight a sigmoid of a skip-connection score, which sums
the raw inner product of the two latents with the inner product of their
nonlinearly mapped images. The raw term keeps gradients alive when the
nonlinear path saturates (latent-collapse guard). ``aspect_addends`` is the
one place this score is computed: training records it on the tape, ranking
and ``recommend`` build it from snapshot constants, and its per-aspect
addends are the explanation ``recommend`` prints. Observations are scored
under a Poisson likelihood, r * log g - g, whose log r! term vanishes for
binary feedback.

Training alternates sides: while one side's parameters are optimized, the
other side's latents, decoded images and aspect probabilities enter as plain
constants, so their gradient accumulators provably stay zero.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import aspects, encoder as enc_mod, tensor as T
from .errors import ShapeError
from .tensor import Parameter, RngState, Tensor


class DecoderParams:
    """One-layer tanh map d -> d, shared across aspects within a side."""

    def __init__(self, name: str, dim: int, rng: RngState, dtype=np.float64):
        self.name = name
        self.dim = dim
        self.w = Parameter(f"{name}.w", rng.standard_normal(dim, dim, dtype) * (1.0 / float(np.sqrt(dim))))
        self.b = Parameter(f"{name}.b", np.zeros((1, dim), dtype=dtype))

    def params(self):
        return [self.w, self.b]


def decode(z, dec: DecoderParams, tape: "T.Tape | None" = None) -> Tensor:
    if tape is not None:
        return T.tanh(T.add(T.matmul(z, tape.leaf(dec.w)), tape.leaf(dec.b)))
    return T.tanh(T.add(T.matmul(z, dec.w.value), dec.b.value))


def poisson_loglik(r, g) -> Tensor:
    """log p(r | g) = r * log g - g per entry, for binary r; g must be positive."""
    return T.sub(T.mul(r, T.log(g)), g)


@dataclass
class FrozenSide:
    """Evaluation-mode snapshot of the side not being trained this phase."""

    means: np.ndarray    # (N, A, d) posterior means
    decoded: np.ndarray  # (N, A, d) tanh decoder images of the means
    probs: np.ndarray    # (N, A) aspect probabilities (C or P)

    def __post_init__(self):
        # per aspect, one contiguous (2d, N) block [means | images]^T, so that a
        # single product gives both inner products of the skip score
        n, n_aspects, dim = self.means.shape
        self.keys = np.empty((n_aspects, 2 * dim, n), dtype=self.means.dtype)
        self.keys[:, :dim] = self.means.transpose(1, 2, 0)
        self.keys[:, dim:] = self.decoded.transpose(1, 2, 0)

    @property
    def n_aspects(self):
        return self.probs.shape[1]


@dataclass
class ElboTerms:
    """Reconstruction and KL pieces of one batch objective."""

    recon: Tensor  # scalar, batch-mean full-vector log-likelihood
    kl: Tensor     # scalar, batch-mean KL summed over aspects
    beta: float
    loss: Tensor   # scalar, -(recon - beta * kl)


@dataclass
class SideForward:
    """Live-side quantities the contrastive constraint reuses."""

    z: list          # per-aspect (b, d) sampled codes (tensors)
    mu: list         # per-aspect (b, d) posterior means (tensors)
    probs: Tensor    # (b, A) live aspect probabilities (constant if pinned)
    scores: Tensor   # (b, N_frozen) pair scores g


def side_loss(
    slab: np.ndarray,
    rows,
    live_enc: enc_mod.EncoderParams,
    live_dec: DecoderParams,
    live_protos,
    frozen: FrozenSide,
    temp: float,
    beta: float,
    eps_list,
    tape: "T.Tape | None",
) -> tuple[ElboTerms, SideForward]:
    """One batch of the alternating objective for whichever side is live.

    ``slab`` holds the batch's dense interaction rows against the frozen
    side's entities, the reconstruction target. ``rows`` is the encoder's
    input: the same rows as scipy CSR, possibly after input dropout or
    normalization. ``live_protos`` is the prototype Parameter producing the
    live side's aspect probabilities, or None to pin them uniform (the
    disentanglement ablations). ``eps_list`` carries one noise array per
    aspect; None means evaluation mode (z = mu).
    """
    n_aspects = frozen.n_aspects
    batch, n_frozen = slab.shape
    if frozen.means.shape[0] != n_frozen:
        raise ShapeError(f"slab width {n_frozen} vs frozen side {frozen.means.shape[0]}")
    if rows.shape != slab.shape:
        raise ShapeError(f"encoder rows {rows.shape} vs slab {slab.shape}")
    dim = frozen.means.shape[2]

    mu_list, z_list, kl_cols = [], [], []
    for a in range(n_aspects):
        masked = enc_mod.mask_sparse(rows, frozen.probs[:, a])
        mu, logvar, sigma = enc_mod.encode(masked, live_enc, tape)
        eps = T.Tensor(np.zeros((batch, dim), dtype=slab.dtype)) if eps_list is None else T.constant(eps_list[a])
        z = enc_mod.reparameterize(mu, sigma, eps)
        mu_list.append(mu)
        z_list.append(z)
        kl_cols.append(enc_mod.kl_rows(mu, logvar))

    if live_protos is not None:
        proto_leaf = tape.leaf(live_protos) if tape is not None else T.constant(live_protos.value)
        probs = aspects.aspect_probs_live(mu_list, proto_leaf, temp)
    else:
        probs = T.constant(aspects.uniform_probs(batch, n_aspects, slab.dtype))

    images = [decode(z, live_dec, tape) for z in z_list]
    scores = functools.reduce(T.add, aspect_addends(z_list, images, probs, frozen))
    recon = T.mean_all(T.sum_rows(poisson_loglik(slab, scores)))
    kl_sum = kl_cols[0]
    for col in kl_cols[1:]:
        kl_sum = T.add(kl_sum, col)
    kl = T.mean_all(kl_sum)
    loss = T.sub(T.scale(kl, beta), recon)
    return ElboTerms(recon, kl, beta, loss), SideForward(z_list, mu_list, probs, scores)


def aspect_addends(z_list, images, probs, frozen: FrozenSide):
    """Per-aspect addends of the pair scores of a batch against every frozen entity.

    The pair score is g = sum_a p_a * c_a * sigmoid(<z_a, m_a> + <f(z_a), f(m_a)>),
    where ``z_list`` and ``images`` hold the batch's per-aspect (b, d) codes
    and decoder images, ``probs`` its (b, A) aspect probabilities, and
    ``frozen`` the other side's means, images and probabilities. Yields the
    (b, N) addend of each aspect in turn, so that a caller summing them holds
    one at a time. Only tape ops are used: the addends are recorded when the
    codes are, and are constants otherwise.
    """
    for a, (z, image) in enumerate(zip(z_list, images)):
        live_w = T.slice_cols(probs, a, a + 1)  # (b, 1), broadcasts down columns
        frozen_w = frozen.probs[:, a][None, :]  # (1, N), broadcasts across rows
        # one expression, so that the paused generator holds no (b, N) array
        yield T.mul(T.mul(T.sigmoid(T.matmul(T.concat_cols([z, image]), frozen.keys[a])),
                          frozen_w), live_w)
