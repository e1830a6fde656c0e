import functools

import numpy as np
import pytest
import scipy.sparse as sp

from hypothesis import given, settings
from hypothesis import strategies as st

from dualvae import contrast, generation as gen, tensor as T, trainer
from dualvae.errors import ConfigError

from helpers import (finite_difference, infonce_losses, max_rel_err, neighborhood_repr,
                     slice_rows, stacked_codes)

RNG = np.random.default_rng(55)


def brute_force_infonce(z, o, tau, use_aspect, use_entity, participate=None):
    """Explicit exp/sum loops over Eq.-style denominators (independent oracle)."""
    b, A, d = z.shape
    if participate is None:
        participate = np.ones(b, dtype=bool)

    def cos(x, y):
        nx, ny = np.linalg.norm(x), np.linalg.norm(y)
        if nx == 0 or ny == 0:
            return 0.0
        return float(x @ y / (nx * ny))

    out = np.zeros((b, A))
    for u in range(b):
        for a in range(A):
            pos = np.exp(cos(z[u, a], o[u, a]) / tau)
            denom = pos
            if use_aspect:
                for bb in range(A):
                    if bb != a:
                        denom += np.exp(cos(z[u, a], o[u, bb]) / tau)
            if use_entity:
                for v in range(b):
                    if v != u and participate[v]:
                        denom += np.exp(cos(z[u, a], o[v, a]) / tau)
            out[u, a] = -np.log(pos / denom)
    return out


def cfg(tau=0.2, gamma=0.1, use_user_negs=True, use_aspect_negs=True, use_neighbor_pos=True):
    """A TrainConfig whose ablations switch off the InfoNCE parts set False."""
    ablate = tuple(name for name, on in (("no_uns", use_user_negs), ("no_ans", use_aspect_negs),
                                         ("no_nps", use_neighbor_pos)) if not on)
    return trainer.TrainConfig(tau=tau, gamma=gamma, ablate=ablate)


# ---------------------------------------------------------------------------
# neighborhood representations

def test_singleton_neighborhood_with_unit_weight():
    latents = RNG.standard_normal((5, 3))
    weights = np.zeros(5)
    weights[2] = 1.0
    out = neighborhood_repr(np.array([2]), weights, latents)
    np.testing.assert_array_equal(out, latents[2])


def test_opposite_neighbors_cancel():
    latents = np.array([[1.0, -2.0], [-1.0, 2.0]])
    weights = np.array([0.5, 0.5])
    out = neighborhood_repr(np.array([0, 1]), weights, latents)
    np.testing.assert_allclose(out, np.zeros(2), atol=1e-15)


def test_empty_neighborhood_is_zero_vector():
    out = neighborhood_repr(np.array([], dtype=int), np.ones(4), RNG.standard_normal((4, 3)))
    np.testing.assert_array_equal(out, np.zeros(3))


def test_batch_reprs_match_single_entity_loops():
    b, n, A, d = 6, 9, 3, 4
    slab = (RNG.random((b, n)) < 0.5).astype(float)
    probs = RNG.random((n, A))
    probs /= probs.sum(axis=1, keepdims=True)
    means = RNG.standard_normal((n, A, d))
    # the images, the codes' second half, must not enter
    frozen = gen.FrozenSide(stacked_codes(means, np.tanh(means)), probs)
    got = contrast.batch_neighborhood_reprs(sp.csr_matrix(slab), frozen)
    for row in range(b):
        neigh = np.nonzero(slab[row])[0]
        for a in range(A):
            want = neighborhood_repr(neigh, probs[:, a], means[:, a, :])
            np.testing.assert_allclose(got[a, row], want, atol=1e-12)


# ---------------------------------------------------------------------------
# infonce

def aspect_major(x):
    """A (b, A, d) array in the (A, b, d) layout of the library's
    neighbourhood arrays."""
    return np.ascontiguousarray(x.transpose(1, 0, 2))


def as_stacked(z):
    """(b, A, d) codes as the aspect-major (A * b, d) constant that
    ``infonce_rows`` and ``batch_contrast`` take."""
    return T.constant(aspect_major(z).reshape(-1, z.shape[2]))


def aspect_losses(z, o, c, participate):
    """``infonce_rows`` on (b, A, d) codes and neighbourhoods, read back as
    (A, b): row a holds aspect a's losses."""
    b, A, _ = z.shape
    rows = contrast.infonce_rows(as_stacked(z), aspect_major(o), c, participate)
    return rows.value.reshape(A, b)


def test_no_negatives_means_zero_loss():
    z = RNG.standard_normal((1, 1, 4))
    o = RNG.standard_normal((1, 1, 4))
    losses = aspect_losses(z, o, cfg(), np.ones(1, dtype=bool))
    assert abs(losses[0][0]) < 1e-12


def test_symmetric_case_closed_form():
    # all similarities equal -> loss = log(A + |B| - 1)
    b, A, d = 5, 3, 4
    v = RNG.standard_normal(d)
    z = np.tile(v, (b, A, 1))
    o = np.tile(2.5 * v, (b, A, 1))
    losses = aspect_losses(z, o, cfg(), np.ones(b, dtype=bool))
    want = np.log(A + b - 1)
    for col in losses:
        np.testing.assert_allclose(col, np.full(b, want), atol=1e-10)


def test_matches_brute_force_oracle():
    for trial in range(40):
        b = int(RNG.integers(1, 6))
        A = int(RNG.integers(1, 4))
        d = int(RNG.integers(2, 5))
        z = RNG.standard_normal((b, A, d))
        o = RNG.standard_normal((b, A, d))
        use_a = bool(RNG.integers(0, 2))
        use_e = bool(RNG.integers(0, 2))
        c = cfg(use_aspect_negs=use_a, use_user_negs=use_e)
        got = aspect_losses(z, o, c, np.ones(b, dtype=bool))
        want = brute_force_infonce(z, o, c.tau, use_a, use_e)
        for a in range(A):
            np.testing.assert_allclose(got[a], want[:, a], atol=1e-10)


def test_flags_shrink_denominator():
    b, A, d = 4, 3, 5
    z, o = RNG.standard_normal((b, A, d)), RNG.standard_normal((b, A, d))
    ones = np.ones(b, dtype=bool)
    full = aspect_losses(z, o, cfg(), ones)
    no_aspect = aspect_losses(z, o, cfg(use_aspect_negs=False), ones)
    no_entity = aspect_losses(z, o, cfg(use_user_negs=False), ones)
    for a in range(A):
        assert np.all(no_aspect[a] <= full[a] + 1e-12)
        assert np.all(no_entity[a] <= full[a] + 1e-12)
        assert np.all(full[a] >= 0.0)


def test_self_positive_variant_uses_latents():
    b, A, d = 3, 2, 4
    z = RNG.standard_normal((b, A, d))
    o = RNG.standard_normal((b, A, d))
    got = aspect_losses(z, o, cfg(use_neighbor_pos=False), np.ones(b, dtype=bool))
    want = brute_force_infonce(z, z, 0.2, True, True)  # o replaced by z wholesale
    for a in range(A):
        np.testing.assert_allclose(got[a], want[:, a], atol=1e-10)


def test_loss_drops_as_positive_aligns():
    b, A, d = 4, 2, 5
    z = RNG.standard_normal((b, A, d))
    o = RNG.standard_normal((b, A, d))
    ones = np.ones(b, dtype=bool)
    base = contrast.batch_contrast(as_stacked(z), aspect_major(o), cfg(), ones).item()
    aligned = o.copy()
    aligned[:, 0, :] = 3.0 * z[:, 0, :]  # positive similarity -> 1 under aspect 0
    better = contrast.batch_contrast(as_stacked(z), aspect_major(aligned), cfg(), ones).item()
    assert better < base


def test_participation_excludes_entities_and_pool():
    b, A, d = 5, 2, 3
    z = RNG.standard_normal((b, A, d))
    o = RNG.standard_normal((b, A, d))
    part = np.array([True, True, False, True, False])
    got = aspect_losses(z, o, cfg(), part)
    want = brute_force_infonce(z, o, 0.2, True, True, participate=part)
    for a in range(A):
        np.testing.assert_allclose(got[a][part], want[part, a], atol=1e-10)
    total = contrast.batch_contrast(as_stacked(z), aspect_major(o), cfg(), part).item()
    np.testing.assert_allclose(total, want[part].sum(axis=1).mean(), atol=1e-10)


def test_empty_participation_contributes_nothing():
    z = RNG.standard_normal((3, 2, 4))
    o = RNG.standard_normal((3, 2, 4))
    out = contrast.batch_contrast(as_stacked(z), aspect_major(o), cfg(), np.zeros(3, dtype=bool))
    assert out.item() == 0.0


def test_gradients_flow_through_live_codes():
    b, A, d = 4, 3, 4
    o = aspect_major(RNG.standard_normal((b, A, d)))
    zparams = [T.Parameter("z", RNG.standard_normal((A * b, d)))]

    def build(tape):
        return contrast.batch_contrast(tape.leaf(zparams[0]), o, cfg(), np.ones(b, dtype=bool))

    for p in zparams:
        p.grad[...] = 0.0
    tape = T.Tape()
    tape.backward(build(tape))
    analytic = [p.grad.copy() for p in zparams]
    numeric = finite_difference(lambda: build(T.Tape()).item(), zparams)
    assert max_rel_err(analytic, numeric) < 1e-5
    assert all(np.any(g != 0.0) for g in np.split(analytic[0], A))  # every aspect's block


def per_aspect_contrast(z, o, c, participate):
    """The loss and its mean composed aspect by aspect: ``infonce_losses``
    on A row slices of the stacked codes z, as (A * b, 1) values and the
    aspect-summed mean over participating entities."""
    n_aspects, b, _ = o.shape
    cols = infonce_losses([slice_rows(z, a * b, (a + 1) * b) for a in range(n_aspects)],
                          o, c, participate)
    count = int(participate.sum())
    if count == 0:
        return cols, T.constant(np.zeros((1, 1), z.dtype))
    total = cols[0]
    for col in cols[1:]:
        total = T.add(total, col)
    masked = T.mul(total, participate.astype(z.dtype).reshape(-1, 1))
    return cols, T.scale(T.sum_all(masked), 1.0 / count)


ABLATIONS = ("no_nps", "no_ans", "no_uns")


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 9), st.integers(1, 4), st.integers(1, 6),
       st.sets(st.sampled_from(ABLATIONS)), st.sampled_from([0.1, 0.2, 1.0]),
       st.sampled_from([np.float64, np.float32]), st.integers(0, 2 ** 31 - 1))
def test_stacked_infonce_matches_per_aspect_oracle(b, A, d, ablate, tau, dtype, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((A * b, d)).astype(dtype)
    o = rng.standard_normal((A, b, d)).astype(dtype)
    z[rng.random(A * b) < 0.15] = 0.0  # zero-norm codes
    o[rng.random((A, b)) < 0.15] = 0.0  # and neighbourhoods
    part = rng.random(b) < 0.7
    c = trainer.TrainConfig(tau=tau, ablate=tuple(sorted(ablate)))
    w = rng.standard_normal((A * b, 1)).astype(dtype)
    tol = 1e-12 if dtype == np.float64 else 1e-5

    def rel(got, want):
        return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))

    def value_and_grad(build):
        p = T.Parameter("z", z)
        tape = T.Tape()
        out = build(tape.leaf(p))
        if out.tape is not None:
            tape.backward(out)
        return out.value, p.grad

    got_rows = value_and_grad(
        lambda leaf: T.sum_all(T.mul(contrast.infonce_rows(leaf, o, c, part), w)))
    want_rows = value_and_grad(lambda leaf: T.sum_all(functools.reduce(T.add, [
        T.mul(col, w[a * b:(a + 1) * b])
        for a, col in enumerate(per_aspect_contrast(leaf, o, c, part)[0])])))
    rows = contrast.infonce_rows(T.constant(z), o, c, part).value
    want = np.concatenate([col.value for col in per_aspect_contrast(T.constant(z), o, c, part)[0]])
    assert rows.dtype == dtype and rows.shape == (A * b, 1)
    assert rel(rows, want) < tol
    for g, wv in zip(got_rows, want_rows):
        assert rel(g, wv) < tol

    got_mean = value_and_grad(lambda leaf: contrast.batch_contrast(leaf, o, c, part))
    want_mean = value_and_grad(lambda leaf: per_aspect_contrast(leaf, o, c, part)[1])
    for g, wv in zip(got_mean, want_mean):
        assert rel(g, wv) < tol
    if not part.any():
        assert got_mean[0][0, 0] == 0.0 and not got_mean[1].any()


def test_contrast_tape_does_not_grow_with_aspects():
    b, d = 6, 4
    counts = []
    for A in range(1, 5):
        tape = T.Tape()
        z = tape.leaf(T.Parameter("z", RNG.standard_normal((A * b, d))))
        contrast.batch_contrast(z, RNG.standard_normal((A, b, d)), cfg(), np.ones(b, dtype=bool))
        counts.append(len(tape.nodes))
    assert counts == [counts[0]] * 4


def test_total_loss_combination():
    from dualvae.generation import ElboTerms

    recon, kl = T.constant(-4.0), T.constant(1.0)
    elbo = ElboTerms(recon, kl, T.constant(5.0))
    assert contrast.total_loss(elbo, T.constant(2.0), 0.1).item() == pytest.approx(5.2)
    assert contrast.total_loss(elbo, T.constant(2.0), 0.0).item() == 5.0
    assert contrast.total_loss(elbo, None, 0.0).item() == 5.0
    with pytest.raises(ConfigError):
        contrast.total_loss(elbo, T.constant(2.0), -1.0)


def test_config_validation():
    with pytest.raises(ConfigError):
        cfg(tau=0.0).validate()
    with pytest.raises(ConfigError):
        cfg(gamma=-0.5).validate()
