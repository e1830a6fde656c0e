import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dualvae import encoder, tensor as T
from dualvae.errors import NumericError, ShapeError

from helpers import finite_difference, kl_gaussian, max_rel_err

RNG = np.random.default_rng(31)


def make_encoder(input_dim=6, hidden=5, latent=3, seed=0):
    return encoder.EncoderParams("enc", input_dim, hidden, latent, T.RngState(seed), np.float64)


# ---------------------------------------------------------------------------
# masking

def test_mask_uniform_simplex_quarters():
    r = np.array([1.0, 0.0, 1.0, 1.0])
    out = encoder.mask_interactions(r, np.full(4, 0.25))
    np.testing.assert_allclose(out, r[None, :] / 4)


def test_mask_one_hot_column():
    r = np.array([[1.0, 1.0, 0.0]])
    np.testing.assert_array_equal(encoder.mask_interactions(r, [1.0, 1.0, 1.0]), r)
    np.testing.assert_array_equal(encoder.mask_interactions(r, [0.0, 0.0, 0.0]), np.zeros((1, 3)))


def test_mask_length_mismatch():
    with pytest.raises(ShapeError):
        encoder.mask_interactions(np.ones((2, 3)), np.ones(4))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 6))
def test_mask_decomposition_identity(seed, n_aspects):
    rng = np.random.default_rng(seed)
    rows = (rng.random((4, 9)) < 0.4).astype(float)
    logits = rng.standard_normal((9, n_aspects))
    simplex = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    total = sum(encoder.mask_interactions(rows, simplex[:, a]) for a in range(n_aspects))
    np.testing.assert_allclose(total, rows, atol=1e-12)


def test_mask_aspects_stacks_dense_masks():
    rows = (RNG.random((5, 9)) < 0.4).astype(float)
    probs = RNG.random((9, 3))
    got = encoder.mask_aspects(sp.csr_matrix(rows), probs)
    assert got.shape == (15, 9)
    for a in range(3):  # rows a*b .. a*b + b - 1 hold aspect a
        np.testing.assert_array_equal(got[5 * a:5 * (a + 1)].toarray(),
                                      encoder.mask_interactions(rows, probs[:, a]))
    with pytest.raises(ShapeError):
        encoder.mask_aspects(sp.csr_matrix(rows), np.ones((8, 3)))


# ---------------------------------------------------------------------------
# encode

@pytest.mark.parametrize("seed", range(5))
def test_csr_encode_matches_dense_encode(seed):
    rng = np.random.default_rng(seed)
    enc = make_encoder(input_dim=30, hidden=7, latent=4, seed=seed)
    rows = (rng.random((6, 30)) < 0.2).astype(float)
    rows[0] = 0.0  # an empty row
    col = rng.random(30)
    sparse = encoder.encode(encoder.mask_aspects(sp.csr_matrix(rows), col[:, None]), enc)
    dense = encoder.encode(encoder.mask_interactions(rows, col), enc)
    for got, want in zip(sparse, dense):
        np.testing.assert_allclose(got.value, want.value, rtol=0, atol=1e-12)


def test_zero_input_zero_bias_gives_standard_posterior():
    enc = make_encoder()
    mu, logvar, sigma = encoder.encode(np.zeros((2, 6)), enc)
    np.testing.assert_array_equal(mu.value, np.zeros((2, 3)))
    np.testing.assert_array_equal(logvar.value, np.zeros((2, 3)))
    np.testing.assert_array_equal(sigma.value, np.ones((2, 3)))


def test_encode_deterministic():
    enc = make_encoder(seed=4)
    x = RNG.standard_normal((3, 6))
    a = encoder.encode(x, enc)
    b = encoder.encode(x, enc)
    np.testing.assert_array_equal(a[0].value, b[0].value)
    np.testing.assert_array_equal(a[2].value, b[2].value)


def test_encode_nonfinite_raises_with_context():
    enc = make_encoder()
    enc.w2.value[0, 0] = np.inf
    with pytest.raises(NumericError, match="enc"):
        encoder.encode(np.ones((1, 6)), enc)


def test_encoder_jacobian_matches_finite_differences():
    enc = make_encoder(seed=9)
    x = T.Parameter("x", RNG.standard_normal((2, 6)))
    w = RNG.standard_normal((2, 3))

    def build(tape):
        mu, _, _ = encoder.encode(tape.leaf(x), enc, tape)
        return T.sum_all(T.mul(mu, w))

    x.grad[...] = 0.0
    tape = T.Tape()
    tape.backward(build(tape))
    numeric = finite_difference(lambda: build(T.Tape()).item(), [x])
    assert max_rel_err([x.grad], numeric) < 1e-4


def test_per_aspect_independence():
    # zeroing aspect b's masked input must not move aspect a's posterior
    enc = make_encoder(seed=2)
    r = (RNG.random(6) < 0.5).astype(float)
    cols = np.array([[0.3, 0.7]] * 6)
    mu_a1, _, sg_a1 = encoder.encode(encoder.mask_interactions(r, cols[:, 0]), enc)
    mu_a2_zero, _, _ = encoder.encode(encoder.mask_interactions(r, np.zeros(6)), enc)
    mu_a1_again, _, sg_a1_again = encoder.encode(encoder.mask_interactions(r, cols[:, 0]), enc)
    np.testing.assert_array_equal(mu_a1.value, mu_a1_again.value)
    np.testing.assert_array_equal(sg_a1.value, sg_a1_again.value)


def test_logvar_clamped():
    enc = make_encoder()
    enc.b2.value[0, 3:] = 50.0  # logvar head bias
    _, logvar, sigma = encoder.encode(np.zeros((1, 6)), enc)
    assert np.all(logvar.value <= encoder.LOGVAR_MAX)
    assert np.all(np.isfinite(sigma.value))


# ---------------------------------------------------------------------------
# reparameterization

def test_reparam_eval_mode_returns_mu():
    mu = T.constant(RNG.standard_normal((3, 4)))
    sigma = T.constant(np.abs(RNG.standard_normal((3, 4))) + 0.1)
    z = encoder.reparameterize(mu, sigma, T.constant(np.zeros((3, 4))))
    np.testing.assert_array_equal(z.value, mu.value)


def test_reparam_zero_sigma_returns_mu():
    mu = T.constant(RNG.standard_normal((2, 3)))
    eps = T.constant(RNG.standard_normal((2, 3)))
    z = encoder.reparameterize(mu, T.constant(np.zeros((2, 3))), eps)
    np.testing.assert_array_equal(z.value, mu.value)


def test_reparam_monte_carlo_mean():
    rng = T.RngState(11)
    mu = np.array([[0.5, -1.0, 2.0]])
    sigma = np.array([[0.3, 1.2, 0.05]])
    n = 100_000
    eps = rng.standard_normal(n, 3)
    z = mu + sigma * eps
    err = np.abs(z.mean(axis=0) - mu[0])
    np.testing.assert_array_less(err, 3.0 * sigma[0] / np.sqrt(n))


def test_reparam_gradients_flow():
    mu = T.Parameter("mu", RNG.standard_normal((2, 3)))
    logvar = T.Parameter("lv", 0.2 * RNG.standard_normal((2, 3)))
    eps = RNG.standard_normal((2, 3))
    w = RNG.standard_normal((2, 3))

    def build(tape):
        sigma = T.exp(T.scale(tape.leaf(logvar), 0.5))
        z = encoder.reparameterize(tape.leaf(mu), sigma, T.constant(eps))
        return T.sum_all(T.mul(z, w))

    for p in (mu, logvar):
        p.grad[...] = 0.0
    tape = T.Tape()
    tape.backward(build(tape))
    numeric = finite_difference(lambda: build(T.Tape()).item(), [mu, logvar])
    assert max_rel_err([mu.grad, logvar.grad], numeric) < 1e-5
    np.testing.assert_allclose(mu.grad, w)  # identity path


# ---------------------------------------------------------------------------
# KL

def test_kl_standard_posterior_is_zero():
    assert kl_gaussian(np.zeros(3), np.ones(3)) == 0.0


def test_kl_closed_form_hand_case():
    assert abs(kl_gaussian([1.0, 0.0], [1.0, 1.0]) - 0.5) < 1e-12


def test_kl_rows_matches_scalar_form():
    mu = RNG.standard_normal((4, 3))
    logvar = 0.5 * RNG.standard_normal((4, 3))
    rows = encoder.kl_rows(T.constant(mu), T.constant(logvar)).value
    for r in range(4):
        want = kl_gaussian(mu[r], np.exp(0.5 * logvar[r]))
        assert abs(rows[r, 0] - want) < 1e-10
    assert np.all(rows >= 0.0)


def test_kl_monte_carlo_oracle():
    rng = np.random.default_rng(123)
    for _ in range(50):
        mu = rng.uniform(-1.5, 1.5, size=3)
        sigma = rng.uniform(0.4, 1.8, size=3)
        closed = kl_gaussian(mu, sigma)
        z = mu + sigma * rng.standard_normal((100_000, 3))
        log_q = -0.5 * (((z - mu) / sigma) ** 2 + np.log(2 * np.pi)) - np.log(sigma)
        log_p = -0.5 * (z ** 2 + np.log(2 * np.pi))
        mc = float((log_q - log_p).sum(axis=1).mean())
        assert abs(mc - closed) <= max(0.01 * abs(closed), 0.02)


def test_kl_nonnegative_property():
    rng = np.random.default_rng(5)
    for _ in range(200):
        mu = rng.standard_normal(4)
        sigma = np.exp(0.5 * rng.uniform(-3, 3, 4))
        assert kl_gaussian(mu, sigma) >= 0.0
