import numpy as np
import pytest

from dualvae import synth
from dualvae.errors import ConfigError

from helpers import best_accuracy_exhaustive


def test_single_true_aspect_is_plain_bernoulli():
    matrix, world = synth.generate(200, 200, 1, density=0.05, seed=1)
    got = matrix.nnz / (200 * 200)
    assert abs(got - 0.05) < 0.01
    assert np.all(world.user_mixtures == 1.0)


def test_same_seed_reproduces_matrix():
    m1, _ = synth.generate(50, 60, 3, 0.05, seed=9)
    m2, _ = synth.generate(50, 60, 3, 0.05, seed=9)
    assert m1.digest() == m2.digest()
    m3, _ = synth.generate(50, 60, 3, 0.05, seed=10)
    assert m1.digest() != m3.digest()


def test_one_hot_blocks_dominate():
    matrix, world = synth.generate(300, 300, 4, density=0.02, seed=4)
    ua, ia = world.user_assignments, world.item_assignments
    within, cross, n_within, n_cross = 0, 0, 0, 0
    dense = matrix.densify_users(range(300))
    same = ua[:, None] == ia[None, :]
    within = dense[same].mean()
    cross = dense[~same].mean() if np.any(~same) else 0.0
    assert within > 3 * max(cross, 1e-9)


def test_density_validation():
    with pytest.raises(ConfigError):
        synth.generate(10, 10, 2, density=0.0, seed=0)


@pytest.mark.parametrize("m, n, aspects", [(0, 10, 2), (10, 0, 2), (10, 10, 0), (-1, 10, 2)])
def test_size_validation(m, n, aspects):
    with pytest.raises(ConfigError):
        synth.generate(m, n, aspects, density=0.1, seed=0)


# ---------------------------------------------------------------------------
# recovery score

def test_recovery_perfect_up_to_permutation():
    planted = np.array([0, 0, 1, 1, 2, 2, 3, 3])
    relabeled = np.array([2, 2, 0, 0, 3, 3, 1, 1])
    assert synth.aspect_recovery_score(relabeled, planted, 4) == 1.0


def test_recovery_uniform_random_is_near_zero():
    rng = np.random.default_rng(123)
    n = 10_000
    planted = rng.integers(0, 4, n)
    learned = rng.integers(0, 4, n)
    score = synth.aspect_recovery_score(learned, planted, 4)
    assert abs(score) < 0.05


def test_recovery_exhaustive_equals_matching():
    rng = np.random.default_rng(5)
    for n_aspects in (2, 3, 4, 5, 6):
        planted = rng.integers(0, n_aspects, 500)
        learned = planted.copy()
        flip = rng.random(500) < 0.3
        learned[flip] = rng.integers(0, n_aspects, int(flip.sum()))
        chance = 1.0 / n_aspects
        a = (best_accuracy_exhaustive(learned, planted, n_aspects) / 500 - chance) / (1.0 - chance)
        b = synth.aspect_recovery_score(learned, planted, n_aspects)
        assert a == pytest.approx(b)


def test_recovery_invariant_under_relabeling():
    rng = np.random.default_rng(8)
    planted = rng.integers(0, 5, 400)
    learned = rng.integers(0, 5, 400)
    base = synth.aspect_recovery_score(learned, planted, 5)
    perm = rng.permutation(5)
    assert synth.aspect_recovery_score(perm[learned], planted, 5) == pytest.approx(base)


def test_write_planted_tsv(tmp_path):
    matrix, world = synth.generate(20, 25, 3, 0.1, seed=2)
    synth.write_planted_tsv(world, matrix, tmp_path)
    inter = (tmp_path / "interactions.tsv").read_text().splitlines()
    assert len(inter) == matrix.nnz
    planted = (tmp_path / "planted_items.tsv").read_text().splitlines()
    assert len(planted) == 25
