"""Joint generation of interactions from both sides' latent codes.

A pair's score aggregates per-aspect agreement: the aspect probabilities of
the user and the item weight a sigmoid of a skip-connection score, which sums
the raw inner product of the two latents with the inner product of their
nonlinearly mapped images. The raw term keeps gradients alive when the
nonlinear path saturates (latent-collapse guard). Observations are scored
under a Poisson likelihood, r * log g - g, whose log r! term vanishes for
binary feedback.

Training alternates sides: while one side's parameters are optimized, the
other side's latents, decoded images and aspect probabilities enter as plain
constants, so their gradient accumulators provably stay zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import aspects, encoder as enc_mod, tensor as T
from .errors import DomainError, ShapeError
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


def skip_score(z_a, z_b, dec_a: DecoderParams, dec_b: DecoderParams,
               tape: "T.Tape | None" = None) -> Tensor:
    """Per-row skip score <z_a, z_b> + <f(z_a), f(z_b)> as a column vector."""
    raw = T.dot_rows(z_a, z_b)
    mapped = T.dot_rows(decode(z_a, dec_a, tape), decode(z_b, dec_b, tape))
    return T.add(raw, mapped)


def poisson_loglik(r, g):
    """log p(r | g) = r * log g - g for binary r; g must be positive."""
    g_val = g.value if isinstance(g, Tensor) else np.asarray(g, dtype=np.float64)
    if np.any(g_val <= 0.0):
        raise DomainError("poisson_loglik: rate must be strictly positive")
    if isinstance(g, Tensor):
        return T.sub(T.mul(r, T.log(g)), g)
    r = np.asarray(r, dtype=np.float64)
    return r * np.log(g_val) - g_val


@dataclass
class FrozenSide:
    """Evaluation-mode snapshot of the side not being trained this phase."""

    means: np.ndarray    # (N, A, d) posterior means
    decoded: np.ndarray  # (N, A, d) tanh decoder images of the means
    probs: np.ndarray    # (N, A) aspect probabilities (C or P)

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

    scores = None
    for a in range(n_aspects):
        skip = T.add(
            T.matmul(z_list[a], frozen.means[:, a, :].T.copy()),
            T.matmul(decode(z_list[a], live_dec, tape), frozen.decoded[:, a, :].T.copy()),
        )
        live_w = T.slice_cols(probs, a, a + 1)  # (b, 1), broadcasts down columns
        frozen_w = frozen.probs[:, a][None, :]  # (1, N), broadcasts across rows
        term = T.mul(T.mul(T.sigmoid(skip), frozen_w), live_w)
        scores = term if scores is None else T.add(scores, term)

    recon = T.mean_all(T.sum_rows(T.sub(T.mul(slab, T.log(scores)), scores)))
    kl_sum = kl_cols[0]
    for col in kl_cols[1:]:
        kl_sum = T.add(kl_sum, col)
    kl = T.mean_all(kl_sum)
    loss = T.sub(T.scale(kl, beta), recon)
    return ElboTerms(recon, kl, beta, loss), SideForward(z_list, mu_list, probs, scores)


def joint_score(p_row: np.ndarray, c_row: np.ndarray, skips: np.ndarray):
    """Evaluation-mode pair score and its per-aspect addends.

    g = sum_a p_a * c_a * sigmoid(skip_a); the addends are returned so the
    aspect responsible for a recommendation can be reported.
    """
    p_row = np.asarray(p_row, dtype=np.float64).reshape(-1)
    c_row = np.asarray(c_row, dtype=np.float64).reshape(-1)
    skips = np.asarray(skips, dtype=np.float64).reshape(-1)
    if not (p_row.shape == c_row.shape == skips.shape):
        raise ShapeError("joint_score: aspect counts disagree")
    addends = p_row * c_row * (1.0 / (1.0 + np.exp(-skips)))
    return float(addends.sum()), addends
