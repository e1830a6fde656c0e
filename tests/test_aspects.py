import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualvae import aspects, tensor as T
from dualvae.errors import ShapeError

from helpers import (finite_difference, loop_stored_probs, max_rel_err, per_aspect_probs,
                     slice_rows, stacked_codes)

RNG = np.random.default_rng(7)


def loop_probs(means, protos, temp):
    """Explicit-loop oracle: cosine, exp, normalize."""
    n, A, d = means.shape
    out = np.zeros((n, A))
    for e in range(n):
        scores = []
        for a in range(A):
            v, p = means[e, a], protos[a]
            nv, npn = np.linalg.norm(v), np.linalg.norm(p)
            scores.append(0.0 if nv == 0 or npn == 0 else float(v @ p / (nv * npn)))
        ex = [np.exp(s / temp) for s in scores]
        out[e] = np.array(ex) / sum(ex)
    return out


def test_uniform_when_affinities_equal():
    A, d = 4, 3
    means = np.tile(RNG.standard_normal((1, 1, d)), (5, A, 1))
    protos = np.tile(RNG.standard_normal((1, d)), (A, 1))
    C = aspects.item_aspect_probs(stacked_codes(means), protos, temp=0.7)
    np.testing.assert_allclose(C, np.full((5, A), 0.25), atol=1e-12)


def test_single_aspect_is_degenerate_simplex():
    C = aspects.item_aspect_probs(stacked_codes(RNG.standard_normal((6, 1, 4))),
                                  RNG.standard_normal((1, 4)), 1.0)
    np.testing.assert_allclose(C, np.ones((6, 1)))


def test_two_aspect_hand_softmax():
    # cosines (1, 0) at temp 1 -> softmax([1, 0])
    means = np.zeros((1, 2, 2))
    means[0, 0] = [2.0, 0.0]
    means[0, 1] = [0.0, 3.0]
    protos = np.array([[1.0, 0.0], [5.0, 0.0]])
    C = aspects.item_aspect_probs(stacked_codes(means), protos, temp=1.0)
    np.testing.assert_allclose(C[0], [0.7311, 0.2689], atol=1e-4)


def test_orthogonal_latent_gives_uniform_row():
    means = np.zeros((1, 2, 3))
    means[0, :, 0] = 1.0
    protos = np.zeros((2, 3))
    protos[:, 1] = 1.0
    P = aspects.user_aspect_probs(stacked_codes(means), protos, temp=0.3)
    np.testing.assert_allclose(P[0], [0.5, 0.5], atol=1e-12)


def test_matches_loop_oracle():
    means = RNG.standard_normal((20, 5, 6))
    protos = RNG.standard_normal((5, 6))
    got = aspects.user_aspect_probs(stacked_codes(means), protos, temp=0.1)
    np.testing.assert_allclose(got, loop_probs(means, protos, 0.1), atol=1e-12)


def test_simplex_invariant_random_rows():
    means = 3.0 * RNG.standard_normal((1000, 4, 5))
    C = aspects.item_aspect_probs(stacked_codes(means), RNG.standard_normal((4, 5)), temp=0.1)
    assert np.all(C > 0.0)
    np.testing.assert_allclose(C.sum(axis=1), np.ones(1000), atol=1e-9)


def test_aspect_permutation_equivariance():
    means = RNG.standard_normal((9, 4, 3))
    protos = RNG.standard_normal((4, 3))
    perm = np.array([2, 0, 3, 1])
    base = aspects.item_aspect_probs(stacked_codes(means), protos, 0.5)
    permuted = aspects.item_aspect_probs(stacked_codes(means[:, perm, :]), protos[perm], 0.5)
    np.testing.assert_allclose(permuted, base[:, perm], atol=1e-12)


def test_zero_norm_pairs_warn_and_score_zero(caplog):
    means = np.zeros((2, 2, 3))
    means[1] = RNG.standard_normal((2, 3))
    protos = RNG.standard_normal((2, 3))
    with caplog.at_level("WARNING"):
        C = aspects.item_aspect_probs(stacked_codes(means), protos, 1.0)
    assert "zero-norm" in caplog.text
    np.testing.assert_allclose(C[0], [0.5, 0.5])


def test_temperature_must_be_positive():
    with pytest.raises(ShapeError):
        aspects.item_aspect_probs(stacked_codes(RNG.standard_normal((2, 2, 2))),
                                  RNG.standard_normal((2, 2)), 0.0)


def test_live_probs_match_eval_path_and_gradcheck():
    A, d, b = 3, 4, 5
    protos = T.Parameter("protos.user", T.init_weights(T.RngState(0), A, d, d ** -0.5, np.float64))
    # the (A * b, d) aspect-major stack of the per-aspect means
    mean_param = T.Parameter("mu", RNG.standard_normal((A * b, d)))
    weights = RNG.standard_normal((b, A))

    def build(tape):
        probs = aspects.aspect_probs_live(tape.leaf(mean_param), tape.leaf(protos), temp=0.4)
        return T.sum_all(T.mul(probs, weights))

    tape = T.Tape()
    live = build(tape)
    stored = mean_param.value.reshape(A, b, d).transpose(1, 0, 2)  # (b, A, d)
    eval_probs = aspects.user_aspect_probs(stacked_codes(stored), protos.value, 0.4)
    probs_again = aspects.aspect_probs_live(
        T.constant(mean_param.value), T.constant(protos.value), 0.4
    )
    np.testing.assert_allclose(probs_again.value, eval_probs, atol=1e-12)

    # gradients reach both the prototypes and the latent means
    checked = [mean_param, protos]
    for p in checked:
        p.grad[...] = 0.0
    tape.backward(live)
    analytic = [p.grad.copy() for p in checked]
    numeric = finite_difference(lambda: build(T.Tape()).item(), checked)
    assert max_rel_err(analytic, numeric) < 1e-4
    assert all(np.any(g != 0) for g in np.split(analytic[0], A) + analytic[1:])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 9), st.integers(1, 5), st.integers(1, 4),
       st.floats(0.05, 2.0))
def test_refresh_probs_match_numpy_cosines(seed, n, A, d, temp):
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((n, A, d))
    means[rng.random((n, A)) < 0.2] = 0.0  # zero-norm means score cosine 0
    protos = rng.standard_normal((A, d))
    protos[rng.random(A) < 0.2] = 0.0
    want = loop_stored_probs(means, protos, temp)
    np.testing.assert_allclose(aspects.item_aspect_probs(stacked_codes(means), protos, temp), want,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(aspects.user_aspect_probs(stacked_codes(means), protos, temp), want,
                               rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 7), st.integers(1, 4), st.integers(1, 4))
def test_live_probs_match_per_aspect_composition(seed, b, A, d):
    rng = np.random.default_rng(seed)
    means = T.Parameter("mu", rng.standard_normal((A * b, d)))
    protos = T.Parameter("protos", rng.standard_normal((A, d)))
    weights = rng.standard_normal((b, A))

    def value_and_grads(probs_of):
        for q in (means, protos):
            q.grad[...] = 0.0
        tape = T.Tape()
        loss = T.sum_all(T.mul(probs_of(tape.leaf(means), tape.leaf(protos)), weights))
        tape.backward(loss)
        return [loss.value, means.grad.copy(), protos.grad.copy()]

    got = value_and_grads(lambda m, p: aspects.aspect_probs_live(m, p, 0.3))
    want = value_and_grads(lambda m, p: per_aspect_probs(
        [slice_rows(m, a * b, (a + 1) * b) for a in range(A)], p, 0.3))
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * np.abs(w).max())


def test_entropy_report_cases():
    ent, arg = aspects.aspect_entropy_report(np.array([[0.25, 0.25, 0.25, 0.25]]))
    assert abs(ent[0] - np.log(4)) < 1e-12
    ent, arg = aspects.aspect_entropy_report(np.array([[0.0, 1.0, 0.0]]))
    assert ent[0] == 0.0 and arg[0] == 1
    ent, _ = aspects.aspect_entropy_report(np.array([[0.7, 0.3]]))
    assert abs(ent[0] - 0.6109) < 1e-4
    _, arg = aspects.aspect_entropy_report(np.array([[0.4, 0.4, 0.2]]))
    assert arg[0] == 0  # tie broken by lowest index
