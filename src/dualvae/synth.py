"""Synthetic interaction data with planted aspect structure.

Users and items each get a mixture over a set of true aspects (one-hot by
default); the interaction probability of a pair is proportional to the dot
product of their mixtures. With one-hot mixtures this yields a
block-diagonal-dominant matrix whose blocks a disentangling model should
rediscover, which is what the recovery score measures: best-permutation
agreement between learned argmax aspects and the planted assignment,
rescaled so chance sits at 0 and perfect recovery at 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .data import InteractionMatrix
from .errors import ConfigError
from .tensor import RngState


@dataclass
class PlantedWorld:
    n_true_aspects: int
    user_mixtures: np.ndarray  # (m, A*) rows on the simplex
    item_mixtures: np.ndarray  # (n, A*)
    seed: int

    @property
    def user_assignments(self):
        return self.user_mixtures.argmax(axis=1)

    @property
    def item_assignments(self):
        return self.item_mixtures.argmax(axis=1)


def _one_hot_mixtures(n: int, n_aspects: int, rng: RngState) -> np.ndarray:
    out = np.zeros((n, n_aspects))
    picks = rng.integers(0, n_aspects, n)
    out[np.arange(n), picks] = 1.0
    return out


def _dirichlet_mixtures(n: int, n_aspects: int, rng: RngState, conc=0.3) -> np.ndarray:
    g = -np.log(rng.uniform(n, n_aspects) + 1e-300) * conc
    return g / g.sum(axis=1, keepdims=True)


_BLOCK = 256  # user rows drawn at a time


def generate(m: int, n: int, n_true_aspects: int, density: float, seed: int,
             one_hot: bool = True):
    """Draw a binary interaction matrix from the planted model.

    Pair probability is density * A* * <mix_u, mix_i>, clipped to [0, 1];
    with one-hot mixtures the expected overall density is ``density``.
    """
    if not (0.0 < density < 1.0):
        raise ConfigError(f"density must lie in (0, 1), got {density}")
    if min(m, n, n_true_aspects) < 1:
        raise ConfigError(f"users, items and true aspects must be >= 1, "
                          f"got {m}, {n} and {n_true_aspects}")
    rng = RngState(seed).derive(77)
    make = _one_hot_mixtures if one_hot else _dirichlet_mixtures
    user_mix = make(m, n_true_aspects, rng)
    item_mix = make(n, n_true_aspects, rng)
    # rows are drawn in blocks; the uniforms fill in C order, so the stream,
    # and the pairs, are those of one (m, n) draw
    users, items = [], []
    for lo in range(0, m, _BLOCK):
        block = user_mix[lo: lo + _BLOCK]
        prob = np.clip(density * n_true_aspects * (block @ item_mix.T), 0.0, 1.0)
        rows, cols = np.nonzero(rng.uniform(len(block), n) < prob)
        users.append(rows + lo)
        items.append(cols)
    world = PlantedWorld(n_true_aspects, user_mix, item_mix, seed)
    return InteractionMatrix(m, n, np.concatenate(users), np.concatenate(items)), world


def aspect_recovery_score(learned: np.ndarray, planted: np.ndarray, n_aspects: int) -> float:
    """Chance-adjusted best-permutation agreement in [-1, 1].

    1 means the learned argmax aspects equal the planted assignment up to a
    relabeling; 0 is what uniform random assignment scores in expectation.
    The best relabeling is a maximum-weight matching on the confusion matrix.
    """
    learned = np.asarray(learned, dtype=np.int64)
    planted = np.asarray(planted, dtype=np.int64)
    if learned.shape != planted.shape:
        raise ConfigError("learned and planted assignment lengths differ")
    if n_aspects < 1:
        raise ConfigError("need at least one aspect")
    if n_aspects == 1:
        return 1.0
    confusion = np.zeros((n_aspects, n_aspects), dtype=np.int64)
    np.add.at(confusion, (learned, planted), 1)
    rows, cols = linear_sum_assignment(-confusion)
    acc = int(confusion[rows, cols].sum()) / learned.size
    chance = 1.0 / n_aspects
    return (acc - chance) / (1.0 - chance)


def write_planted_tsv(world: PlantedWorld, matrix: InteractionMatrix, out_dir):
    """Dump interactions plus planted assignments for CLI consumers."""
    from pathlib import Path

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "interactions.tsv", "w", encoding="utf-8") as fh:
        for u, i in matrix.pairs():
            fh.write(f"{matrix.user_ids[u]}\t{matrix.item_ids[i]}\n")
    for name, assign in (
        ("planted_users.tsv", world.user_assignments),
        ("planted_items.tsv", world.item_assignments),
    ):
        with open(out_dir / name, "w", encoding="utf-8") as fh:
            for idx, a in enumerate(assign):
                fh.write(f"{idx}\t{a}\n")
    matrix.write_id_maps(out_dir)
