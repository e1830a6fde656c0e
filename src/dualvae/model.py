"""Parameter container and evaluation-mode state assembly.

A Snapshot is the phase-boundary view of the model: both sides' codes
[posterior means | decoder images] (the means computed under the previous
aspect probabilities), aspect-major as training makes them, and the
refreshed aspect probability matrices. The side being trained next reads
the other side's half of the snapshot (``frozen(side)``) as constants, and
the same snapshot is what scoring, checkpointing and exports consume.

Each side's aspect prototypes (item rows h_a drive C, user rows m_a drive
P) are trainable parameters of ``ModelParams``, in that side's group.
Every array built here takes the parameters' float dtype, ``params.dtype``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import aspects, encoder as enc_mod, generation as gen, tensor as T
from .data import InteractionMatrix
from .errors import ShapeError
from .tensor import RngState

OTHER_SIDE = {"user": "item", "item": "user"}
# entities a refresh encodes per pass: a whole-side pass gives the same bytes,
# but it raised the peak RSS of a process fitting the proxy twice by 2-6 MB
_REFRESH_BLOCK = 512


class ModelParams:
    """All trainable tensors, of float ``dtype``, in the flat groups ``user``
    and ``item``; with no ``rng`` the weights are unset, for ``load_checkpoint``
    to assign. The prototypes start i.i.d. normal with std 1/sqrt(dim), item bank first."""

    def __init__(self, num_users: int, num_items: int, n_aspects: int, dim: int,
                 hidden: int, rng: "RngState | None", dtype):
        self.n_aspects = n_aspects
        self.dim = dim
        self.dtype = dtype = np.dtype(dtype)
        streams = [None] * 5 if rng is None else [rng.derive(k) for k in range(1, 6)]
        self.enc_u = enc_mod.EncoderParams("enc_u", num_items, hidden, dim, streams[0], dtype)
        self.enc_i = enc_mod.EncoderParams("enc_i", num_users, hidden, dim, streams[1], dtype)
        self.dec_u = gen.DecoderParams("dec_u", dim, streams[2], dtype)
        self.dec_i = gen.DecoderParams("dec_i", dim, streams[3], dtype)
        scale = 1.0 / float(np.sqrt(dim))
        self.item_protos, self.user_protos = (  # drawn in this order, from one stream
            T.Parameter(f"protos.{s}", T.init_weights(streams[4], n_aspects, dim, scale, dtype))
            for s in ("item", "user"))
        self.user = T.ParamGroup(self.enc_u.params() + self.dec_u.params() + [self.user_protos])
        self.item = T.ParamGroup(self.enc_i.params() + self.dec_i.params() + [self.item_protos])

    def side(self, name: str):
        """``(encoder, decoder, prototypes, group)`` of the user or item side."""
        if name == "user":
            return self.enc_u, self.dec_u, self.user_protos, self.user
        if name == "item":
            return self.enc_i, self.dec_i, self.item_protos, self.item
        raise ShapeError(f"unknown side {name!r}")

    def all_params(self):
        return [*self.user, *self.item]


@dataclass
class Snapshot:
    """Phase-boundary evaluation state; see module docstring."""

    C: np.ndarray           # (n, A) item aspect probabilities
    P: np.ndarray           # (m, A) user aspect probabilities
    user_codes: np.ndarray  # (A, m, 2d) [means | images], aspect-major
    item_codes: np.ndarray  # (A, n, 2d)

    def frozen(self, side: str) -> gen.FrozenSide:
        """The half of ``side``, "user" or "item", that the other side trains
        and ranks against: views of its codes and its probabilities."""
        codes, probs = {"user": (self.user_codes, self.P), "item": (self.item_codes, self.C)}[side]
        return gen.FrozenSide(codes, probs)


def compute_side_state(matrix: InteractionMatrix, side: str, params: ModelParams,
                       mask_probs: np.ndarray) -> np.ndarray:
    """Evaluation-mode codes [posterior means | decoder images] of one whole
    side, as one (A, N, 2d) array."""
    enc, dec, _, _ = params.side(side)
    rows, dtype = matrix.rows(side), params.dtype
    n_entities, n_aspects = len(rows), params.n_aspects
    if mask_probs.shape[1] != n_aspects:
        raise ShapeError("mask probability column count != aspect count")

    codes = np.empty((n_aspects, n_entities, 2 * params.dim), dtype=dtype)
    for start in range(0, n_entities, _REFRESH_BLOCK):
        idx = np.arange(start, min(start + _REFRESH_BLOCK, n_entities))
        # one encoder pass over the block's (A * b) aspect-major rows
        mu, _, _ = enc_mod.encode(enc_mod.mask_aspects(rows.select(idx, dtype), mask_probs), enc)
        block_codes = T.concat_cols([mu, gen.decode(mu, dec)]).value
        codes[:, start:start + len(idx)] = block_codes.reshape(n_aspects, len(idx), -1)
    return codes


def refresh(matrix: InteractionMatrix, params: ModelParams, C: np.ndarray, P: np.ndarray,
            temp: float, pinned=()) -> Snapshot:
    """Recompute both sides' codes under the current masks, then the probs;
    the probabilities of a side named in ``pinned`` stay uniform."""
    item_codes = compute_side_state(matrix, "item", params, P)
    user_codes = compute_side_state(matrix, "user", params, C)
    if "item" in pinned:
        new_C = aspects.uniform_probs(matrix.num_items, params.n_aspects, params.dtype)
    else:
        new_C = aspects.item_aspect_probs(item_codes, params.item_protos.value, temp)
    if "user" in pinned:
        new_P = aspects.uniform_probs(matrix.num_users, params.n_aspects, params.dtype)
    else:
        new_P = aspects.user_aspect_probs(user_codes, params.user_protos.value, temp)
    return Snapshot(new_C, new_P, user_codes, item_codes)


def bootstrap(matrix: InteractionMatrix, params: ModelParams) -> Snapshot:
    """First-pass snapshot: a refresh under uniform aspect probabilities with
    both sides pinned, which breaks the circular dependency between latents
    and aspect assignments. No temperature is read."""
    C0 = aspects.uniform_probs(matrix.num_items, params.n_aspects, params.dtype)
    P0 = aspects.uniform_probs(matrix.num_users, params.n_aspects, params.dtype)
    return refresh(matrix, params, C0, P0, None, pinned=("user", "item"))
