import functools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dualvae import aspects, encoder, generation as gen, model, tensor as T, trainer
from dualvae.errors import DomainError

from helpers import (aspect_addends, dense_poisson_loglik, finite_difference, from_dense,
                     kl_gaussian, max_rel_err, paired_scores, per_aspect_side_loss,
                     reference_sigmoid, slice_rows, stacked_codes)

RNG = np.random.default_rng(77)


def tiny_world(m=4, n=6, A=2, d=3, hidden=4, seed=0, density=0.5):
    rng = np.random.default_rng(seed)
    dense = (rng.random((m, n)) < density).astype(float)
    dense[:, 0] = 1.0
    dense[0, :] = 1.0
    matrix = from_dense(dense)
    params = model.ModelParams(m, n, A, d, hidden, T.RngState(seed), np.float64)
    snap = model.bootstrap(matrix, params)
    snap = model.refresh(matrix, params, snap.C, snap.P, temp=0.5)
    return matrix, params, snap


# ---------------------------------------------------------------------------
# skip score, through aspect_addends: with one aspect and p = c = 1 the addend
# is sigmoid(skip)

def one_aspect_frozen(zb, dec_b):
    return gen.FrozenSide(stacked_codes(zb[:, None, :], gen.decode(zb, dec_b).value[:, None, :]),
                          np.ones((zb.shape[0], 1)))


def one_aspect_addends(za, zb, dec_a, dec_b):
    """(b_a, b_b) addends sigmoid(<za, zb> + <f(za), f(zb)>) of one aspect."""
    probs = np.ones((za.shape[0], 1))
    code = np.concatenate([za, gen.decode(za, dec_a).value], axis=1)
    return next(aspect_addends(code, probs, one_aspect_frozen(zb, dec_b)))


def test_skip_zero_latents_zero_bias():
    dec_a = gen.DecoderParams("da", 3, T.RngState(1), np.float64)
    dec_b = gen.DecoderParams("db", 3, T.RngState(2), np.float64)
    out = one_aspect_addends(np.zeros((2, 3)), np.zeros((2, 3)), dec_a, dec_b)
    np.testing.assert_allclose(out, np.full((2, 2), 0.5))  # skip score 0


def test_skip_reduces_to_inner_product_when_mapped_path_zeroed():
    dec = gen.DecoderParams("d", 3, T.RngState(1), np.float64)
    dec.w.value[...] = 0.0  # tanh(0 + 0) = 0 kills the nonlinear path
    za, zb = RNG.standard_normal((5, 3)), RNG.standard_normal((5, 3))
    out = one_aspect_addends(za, zb, dec, dec)
    np.testing.assert_allclose(np.diag(out), reference_sigmoid((za * zb).sum(axis=1)),
                               atol=1e-12)


def test_skip_gradient_wrt_latent():
    # with no interactions the likelihood is -(1/b) * sum of the scores, and
    # with one aspect and p = c = 1 each score is sigmoid(skip)
    dec_a = gen.DecoderParams("da", 3, T.RngState(3), np.float64)
    dec_b = gen.DecoderParams("db", 3, T.RngState(4), np.float64)
    za = T.Parameter("za", RNG.standard_normal((4, 3)))
    zb = RNG.standard_normal((4, 3))
    frozen = one_aspect_frozen(zb, dec_b)
    probs = T.constant(np.ones((4, 1)))

    def build(tape):
        z = tape.leaf(za)
        code = T.concat_cols([z, gen.decode(z, dec_a, tape)])
        return gen.poisson_loglik(code, probs, frozen, sp.csr_matrix((4, 4)))

    za.grad[...] = 0.0
    tape = T.Tape()
    tape.backward(build(tape))
    numeric = finite_difference(lambda: build(T.Tape()).item(), [za])
    assert max_rel_err([za.grad], numeric) < 1e-6


# ---------------------------------------------------------------------------
# joint score g and its per-aspect addends

def test_joint_score_single_aspect_at_zero_skip():
    g, addends = paired_scores([1.0], [1.0], [0.0])
    assert abs(g[0] - 0.5) < 1e-12 and addends.shape == (1, 1)


def test_joint_score_uniform_two_aspects():
    g, _ = paired_scores([0.5, 0.5], [0.5, 0.5], [0.0, 0.0])
    assert abs(g[0] - 0.25) < 1e-12


def test_joint_score_monotone_in_each_skip():
    p = np.array([0.3, 0.7])
    c = np.array([0.6, 0.4])
    base, _ = paired_scores(p, c, [0.2, -0.1])
    up0, _ = paired_scores(p, c, [0.9, -0.1])
    up1, _ = paired_scores(p, c, [0.2, 0.5])
    assert up0[0] > base[0] and up1[0] > base[0]


def test_joint_score_range_and_decomposition():
    for _ in range(2000):
        A = int(RNG.integers(1, 6))
        logits = RNG.standard_normal((2, A))
        p = np.exp(logits[0]) / np.exp(logits[0]).sum()
        c = np.exp(logits[1]) / np.exp(logits[1]).sum()
        skips = 4.0 * RNG.standard_normal(A)
        g, addends = paired_scores(p, c, skips)
        assert 0.0 < g[0] < 1.0
        assert abs(g[0] - addends.sum()) < 1e-12
        assert (p * c).sum() <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# poisson log likelihood

def loglik_at(r, g):
    """poisson_loglik of one pair with observation r and score g: one aspect
    with a zero code (sigmoid 0.5), p = 1 and c = 2g."""
    frozen = gen.FrozenSide(stacked_codes(np.zeros((1, 1, 1))), np.array([[2.0 * g]]))
    target = sp.csr_matrix(np.array([[float(r)]]))
    return gen.poisson_loglik(T.constant(np.zeros((1, 2))), T.constant(np.ones((1, 1))),
                              frozen, target)


def test_poisson_zero_observation():
    assert abs(loglik_at(0.0, 0.3).item() + 0.3) < 1e-12


def test_poisson_hit_at_full_rate():
    assert abs(loglik_at(1.0, 1.0).item() + 1.0) < 1e-12


def test_poisson_gradient_sign_favors_g_one_for_hits():
    # d/dg [r log g - g] = r/g - 1 >= 0 on (0, 1] for r = 1
    for g in np.linspace(0.05, 1.0, 20):
        grad = 1.0 / g - 1.0
        assert grad >= 0.0
    gs = np.linspace(0.05, 1.0, 50)
    vals = [loglik_at(1.0, g).item() for g in gs]
    assert np.argmax(vals) == len(gs) - 1  # optimum at the g = 1 boundary


def test_poisson_rejects_nonpositive_rate():
    with pytest.raises(DomainError):
        loglik_at(1.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 7), st.integers(1, 11), st.integers(1, 4),
       st.integers(1, 3), st.booleans(), st.sampled_from([np.float64, np.float32]))
def test_fused_likelihood_matches_dense_composition(seed, b, n, A, d, pinned, dtype):
    rng = np.random.default_rng(seed)
    frozen = gen.FrozenSide(stacked_codes(rng.standard_normal((n, A, d)).astype(dtype),
                                          np.tanh(rng.standard_normal((n, A, d))).astype(dtype)),
                            rng.dirichlet(np.ones(A), n).astype(dtype))
    r = (rng.random((b, n)) < 0.3).astype(dtype)
    r[rng.random(b) < 0.3] = 0.0  # empty rows
    # the A aspects' (b, 2d) codes, stacked aspect-major
    x = T.Parameter("x", 2.0 * rng.standard_normal((A * b, 2 * d)).astype(dtype))
    p = T.Parameter("p", rng.dirichlet(np.ones(A), b).astype(dtype))

    def dense_of_slices(codes, probs, frozen, target):
        blocks = [slice_rows(codes, a * b, (a + 1) * b) for a in range(A)]
        return dense_poisson_loglik(blocks, probs, frozen, target)

    def value_and_grads(likelihood, target):
        for q in (x, p):
            q.grad[...] = 0.0
        tape = T.Tape()
        probs = T.constant(p.value) if pinned else tape.leaf(p)
        value = likelihood(tape.leaf(x), probs, frozen, target)
        tape.backward(T.scale(value, 1.7))  # an upstream gradient other than 1
        return [value.value] + [q.grad.copy() for q in (x, p)]

    got = value_and_grads(gen.poisson_loglik, sp.csr_matrix(r))
    want = value_and_grads(dense_of_slices, r)
    # the r/g and -g parts can cancel (with b = n = A = 1, r = 1 and p = c = 1
    # the gradient is (1 - s)^2 of two terms near 1 - s, s the sigmoid), so
    # the absolute tolerance scales with the -g part: the empty-target values
    cancelling = value_and_grads(dense_of_slices, np.zeros_like(r))
    tol = 1e-12 if dtype == np.float64 else 1e-4
    for g, w, c in zip(got, want, cancelling):
        assert g.dtype == dtype
        np.testing.assert_allclose(g, w, rtol=tol,
                                   atol=tol * max(np.abs(w).max(), np.abs(c).max()))


@pytest.mark.parametrize("dtype, far", [(np.float64, -1000.0), (np.float32, -120.0)])
def test_underflowed_score_logged_only_where_observed(dtype, far):
    # item 2's skip score is far below where the sigmoid underflows to 0
    frozen = gen.FrozenSide(stacked_codes(np.array([0.5, -0.5, far], dtype).reshape(3, 1, 1)),
                            np.ones((3, 1), dtype))
    assert T._logistic(np.array([far], dtype))[0] == 0.0
    x = T.Parameter("x", np.array([[1.0, 0.0], [1.0, 0.0]], dtype))  # z = 1, image 0
    probs = T.constant(np.ones((2, 1), dtype))
    r = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]], dtype)

    tape = T.Tape()
    value = gen.poisson_loglik(tape.leaf(x), probs, frozen, sp.csr_matrix(r))
    tape.backward(value)
    assert np.isfinite(value.item()) and np.all(np.isfinite(x.grad))
    with pytest.raises(DomainError):  # the dense composition logs every score
        dense_poisson_loglik([T.constant(x.value)], probs, frozen, r)
    r[1, 2] = 1.0  # an interaction at the underflowed pair
    with pytest.raises(DomainError):
        gen.poisson_loglik(T.constant(x.value), probs, frozen, sp.csr_matrix(r))


# ---------------------------------------------------------------------------
# side losses

def forward_scores(fwd, dec, frozen):
    """The (b, N) pair scores of a side_loss forward, through aspect_addends."""
    codes = np.concatenate([fwd.z.value, gen.decode(fwd.z, dec).value], axis=1)
    return functools.reduce(np.add, aspect_addends(codes, fwd.probs.value, frozen))


def test_user_loss_closed_form_all_zero_rows():
    # single user, r = 0 everywhere, so recon = -sum_i g_i
    matrix, params, snap = tiny_world(seed=3)
    empty = sp.csr_matrix((1, matrix.num_items))
    terms, fwd = gen.side_loss(
        empty, empty, params.enc_u, params.dec_u, params.user_protos,
        snap.frozen("item"), temp=0.5, beta=1.0, eps=None, tape=None,
    )
    scores = forward_scores(fwd, params.dec_u, snap.frozen("item"))
    np.testing.assert_allclose(terms.recon.item(), -scores.sum(), atol=1e-12)
    assert np.all(scores > 0.0) and np.all(scores < 1.0)


def test_user_loss_kl_is_sum_of_per_aspect_kls():
    from dualvae import encoder as enc_mod

    matrix, params, snap = tiny_world(seed=5)
    users = [0, 1]
    slab = matrix.densify_users(users)
    rows = matrix.rows("user").select(users, np.float64)
    terms, fwd = gen.side_loss(
        rows, rows, params.enc_u, params.dec_u, params.user_protos,
        snap.frozen("item"), temp=0.5, beta=1.0, eps=None, tape=None,
    )
    want = 0.0
    for a in range(params.n_aspects):
        masked = enc_mod.mask_interactions(slab, snap.C[:, a])
        mu, logvar, sigma = enc_mod.encode(masked, params.enc_u)
        want += np.array([kl_gaussian(mu.value[k], sigma.value[k]) for k in range(len(users))])
    np.testing.assert_allclose(terms.kl.item(), want.mean(), atol=1e-10)


def test_elbo_terms_sign_convention():
    matrix, params, snap = tiny_world(seed=6)
    rows = matrix.rows("user").select([0, 1, 2], np.float64)
    terms, _ = gen.side_loss(
        rows, rows, params.enc_u, params.dec_u, params.user_protos,
        snap.frozen("item"), temp=0.5, beta=0.7, eps=None, tape=None,
    )
    np.testing.assert_allclose(
        terms.loss.item(), -(terms.recon.item() - 0.7 * terms.kl.item()), atol=1e-12
    )


def test_user_loss_gradient_matches_finite_differences():
    matrix, params, snap = tiny_world(m=4, n=6, A=2, d=3, hidden=4, seed=8)
    rows = matrix.rows("user").select([0, 1, 2, 3], np.float64)
    eps = RNG.standard_normal((2 * 4, 3))  # A = 2 aspects of 4 users, aspect-major
    frozen = snap.frozen("item")
    live = params.user

    def build(tape):
        terms, _ = gen.side_loss(
            rows, rows, params.enc_u, params.dec_u, params.user_protos,
            frozen, temp=0.5, beta=1.0, eps=eps, tape=tape,
        )
        return terms.loss

    for p in live:
        p.grad[...] = 0.0
    tape = T.Tape()
    tape.backward(build(tape))
    analytic = [p.grad.copy() for p in live]
    numeric = finite_difference(lambda: build(T.Tape()).item(), live, h=1e-6)
    assert max_rel_err(analytic, numeric) < 1e-4


def test_frozen_side_gets_zero_gradient():
    matrix, params, snap = tiny_world(seed=9)
    rows = matrix.rows("user").select([0, 1], np.float64)
    for p in params.all_params():
        p.grad[...] = 0.0
    tape = T.Tape()
    terms, _ = gen.side_loss(
        rows, rows, params.enc_u, params.dec_u, params.user_protos,
        snap.frozen("item"), temp=0.5, beta=1.0, eps=None, tape=tape,
    )
    tape.backward(terms.loss)
    for p in params.item:
        np.testing.assert_array_equal(p.grad, np.zeros_like(p.grad))
    assert any(np.any(p.grad != 0) for p in params.user)


def test_item_loss_equals_user_loss_on_transposed_data():
    # mirror contract: swapping sides and transposing R swaps the losses
    m, n, A, d, hidden = 4, 6, 2, 3, 4
    rng = np.random.default_rng(12)
    dense = (rng.random((m, n)) < 0.5).astype(float)
    dense[0, :] = 1.0
    dense[:, 0] = 1.0

    matrix = from_dense(dense)
    matrix_t = from_dense(dense.T)

    params = model.ModelParams(m, n, A, d, hidden, T.RngState(3), np.float64)
    # build the transposed-world parameters by swapping the sides wholesale
    params_t = model.ModelParams(n, m, A, d, hidden, T.RngState(4), np.float64)
    for dst, src in (
        (params_t.enc_u, params.enc_i), (params_t.enc_i, params.enc_u),
    ):
        for pd, ps in zip(dst.params(), src.params()):
            pd.value[...] = ps.value
    for pd, ps in zip(params_t.dec_u.params(), params.dec_i.params()):
        pd.value[...] = ps.value
    for pd, ps in zip(params_t.dec_i.params(), params.dec_u.params()):
        pd.value[...] = ps.value
    params_t.user_protos.value[...] = params.item_protos.value
    params_t.item_protos.value[...] = params.user_protos.value

    snap = model.bootstrap(matrix, params)
    snap = model.refresh(matrix, params, snap.C, snap.P, temp=0.5)
    snap_t = model.bootstrap(matrix_t, params_t)
    snap_t = model.refresh(matrix_t, params_t, snap_t.C, snap_t.P, temp=0.5)

    items = list(range(n))
    rows, rows_t = (m.rows(side).select(items, np.float64)
                    for m, side in ((matrix, "item"), (matrix_t, "user")))
    terms_item, _ = gen.side_loss(
        rows, rows, params.enc_i, params.dec_i, params.item_protos,
        snap.frozen("user"), temp=0.5, beta=1.0, eps=None, tape=None,
    )
    terms_user_t, _ = gen.side_loss(
        rows_t, rows_t, params_t.enc_u, params_t.dec_u, params_t.user_protos,
        snap_t.frozen("item"), temp=0.5, beta=1.0, eps=None, tape=None,
    )
    assert abs(terms_item.loss.item() - terms_user_t.loss.item()) < 1e-9


def test_eval_mode_scores_are_deterministic():
    matrix, params, snap = tiny_world(seed=13)
    rows = matrix.rows("user").select([0, 1], np.float64)
    args = (rows, rows, params.enc_u, params.dec_u, params.user_protos, snap.frozen("item"))
    _, fwd1 = gen.side_loss(*args, temp=0.5, beta=1.0, eps=None, tape=None)
    _, fwd2 = gen.side_loss(*args, temp=0.5, beta=1.0, eps=None, tape=None)
    np.testing.assert_array_equal(forward_scores(fwd1, params.dec_u, snap.frozen("item")),
                                  forward_scores(fwd2, params.dec_u, snap.frozen("item")))


def test_frozen_perturbation_moves_loss_but_not_accumulators():
    # wiggling a frozen-side parameter changes the objective value (through
    # the frozen pack) while its gradient accumulator stays exactly zero
    matrix, params, snap = tiny_world(seed=21)
    rows = matrix.rows("user").select([0, 1, 2], np.float64)

    def loss_with_current_item_side():
        s = model.refresh(matrix, params, snap.C, snap.P, temp=0.5)
        terms, _ = gen.side_loss(
            rows, rows, params.enc_u, params.dec_u, params.user_protos,
            s.frozen("item"), temp=0.5, beta=1.0, eps=None, tape=None,
        )
        return terms.loss.item()

    base = loss_with_current_item_side()
    params.enc_i.w1.value[0, 0] += 0.05
    moved = loss_with_current_item_side()
    params.enc_i.w1.value[0, 0] -= 0.05
    assert moved != base

    for p in params.all_params():
        p.grad[...] = 0.0
    tape = T.Tape()
    terms, _ = gen.side_loss(
        rows, rows, params.enc_u, params.dec_u, params.user_protos,
        snap.frozen("item"), temp=0.5, beta=1.0, eps=None, tape=tape,
    )
    tape.backward(terms.loss)
    np.testing.assert_array_equal(params.enc_i.w1.grad, 0.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 6), st.integers(1, 4), st.integers(1, 4),
       st.booleans(), st.booleans(), st.sampled_from([np.float64, np.float32]))
def test_stacked_side_loss_matches_per_aspect_composition(seed, b, A, d, pinned, noisy, dtype):
    rng = np.random.default_rng(seed)
    n, hidden = 7, 5
    rows = sp.csr_matrix((rng.random((b, n)) < 0.4).astype(dtype))
    frozen = gen.FrozenSide(stacked_codes(rng.standard_normal((n, A, d)).astype(dtype),
                                          np.tanh(rng.standard_normal((n, A, d))).astype(dtype)),
                            rng.dirichlet(np.ones(A), n).astype(dtype))
    streams = T.RngState(seed)
    enc = encoder.EncoderParams("enc", n, hidden, d, streams.derive(1), dtype)
    dec = gen.DecoderParams("dec", d, streams.derive(2), dtype)
    protos = T.Parameter("protos", T.init_weights(streams.derive(3), A, d, d ** -0.5, dtype))
    live = enc.params() + dec.params() + [protos]
    eps = rng.standard_normal((A * b, d)).astype(dtype) if noisy else None
    eps_list = None if eps is None else np.split(eps, A)
    pinned_or_live = None if pinned else protos

    def value_and_grads(objective):
        for q in live:
            q.grad[...] = 0.0
        tape = T.Tape()
        loss = objective(tape)
        tape.backward(T.scale(loss, 1.3))  # an upstream gradient other than 1
        return [loss.value] + [q.grad.copy() for q in live]

    got = value_and_grads(lambda tape: gen.side_loss(
        rows, rows, enc, dec, pinned_or_live, frozen, 0.5, 0.8, eps, tape)[0].loss)
    want = value_and_grads(lambda tape: per_aspect_side_loss(
        rows, rows, enc, dec, pinned_or_live, frozen, 0.5, 0.8, eps_list, tape)[0])
    tol = 1e-12 if dtype == np.float64 else 1e-4
    for g, w in zip(got, want):
        assert g.dtype == dtype
        np.testing.assert_allclose(g, w, rtol=tol, atol=tol * np.abs(w).max())


def test_side_loss_tape_does_not_grow_with_aspects():
    nodes = []
    for A in (1, 2, 4):
        matrix, params, snap = tiny_world(A=A, seed=2)
        rows = matrix.rows("user").select([0, 1, 2], np.float64)
        tape = T.Tape()
        gen.side_loss(rows, rows, params.enc_u, params.dec_u, params.user_protos,
                      snap.frozen("item"), temp=0.5, beta=1.0,
                      eps=RNG.standard_normal((A * 3, params.dim)), tape=tape)
        nodes.append(len(tape.nodes))
    assert nodes[0] == nodes[1] == nodes[2]


@pytest.mark.parametrize("side", ["user", "item"])
def test_stacked_side_state_matches_single_aspect_encodes(side, monkeypatch):
    matrix, params, snap = tiny_world(m=7, n=9, A=3, d=2, seed=31)
    monkeypatch.setattr(model, "_REFRESH_BLOCK", 4)  # several blocks, the last one short
    n_entities = matrix.num_users if side == "user" else matrix.num_items
    mask_probs, enc, dec = ((snap.C, params.enc_u, params.dec_u) if side == "user"
                            else (snap.P, params.enc_i, params.dec_i))
    codes = model.compute_side_state(matrix, side, params, mask_probs)
    d = params.dim
    rows = matrix.rows(side).select(np.arange(n_entities), np.float64)
    for a in range(3):
        col = mask_probs[:, a]
        masked = sp.csr_matrix((rows.data * col[rows.indices], rows.indices, rows.indptr),
                               shape=rows.shape)
        mu, _, _ = encoder.encode(masked, enc)
        np.testing.assert_allclose(codes[a, :, :d], mu.value, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(codes[a, :, d:], gen.decode(mu, dec).value, rtol=1e-13, atol=1e-15)


def test_frozen_sides_are_views_of_the_snapshot():
    _, _, snap = tiny_world(seed=32)
    for frozen, codes, probs in ((snap.frozen("item"), snap.item_codes, snap.C),
                                 (snap.frozen("user"), snap.user_codes, snap.P)):
        assert np.shares_memory(frozen.codes, codes) and np.shares_memory(frozen.probs, probs)


def test_aspect_weight_bound_equality_only_for_matching_one_hots():
    one_hot = np.array([1.0, 0.0, 0.0])
    assert (one_hot * one_hot).sum() == 1.0
    other_hot = np.array([0.0, 1.0, 0.0])
    assert (one_hot * other_hot).sum() < 1.0
    uniform = np.full(3, 1 / 3)
    assert (uniform * uniform).sum() < 1.0
    rng = np.random.default_rng(0)
    for _ in range(200):
        logits = rng.standard_normal((2, 4))
        p = np.exp(logits[0]) / np.exp(logits[0]).sum()
        c = np.exp(logits[1]) / np.exp(logits[1]).sum()
        total = (p * c).sum()
        assert total <= 1.0
        if total == 1.0:  # equality demands matching one-hot rows
            assert p.max() == 1.0 and c.max() == 1.0 and p.argmax() == c.argmax()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_model_builders_take_the_parameters_dtype(dtype):
    matrix, _, _ = tiny_world(m=5, n=7, A=2, seed=33)
    params = model.ModelParams(5, 7, 2, 3, 4, T.RngState(2), dtype)
    boot = model.bootstrap(matrix, params)
    snap = model.refresh(matrix, params, boot.C, boot.P, temp=0.5)  # C and P not pinned
    codes = model.compute_side_state(matrix, "item", params, snap.P)
    for arr in (boot.C, boot.P, boot.user_codes, boot.item_codes,
                snap.C, snap.P, snap.user_codes, snap.item_codes, codes):
        assert arr.dtype == dtype


def test_float32_batch_records_only_float32_nodes():
    from dualvae import contrast

    m, n, A, d, hidden, f32 = 5, 8, 2, 3, 4, np.float32
    dense = (np.random.default_rng(2).random((m, n)) < 0.5).astype(float)
    dense[:, 0] = 1.0
    dense[0, :] = 1.0
    matrix = from_dense(dense)
    params = model.ModelParams(m, n, A, d, hidden, T.RngState(1), f32)
    snap = model.bootstrap(matrix, params)
    snap = model.refresh(matrix, params, snap.C, snap.P, temp=0.5)
    users = [0, 1, 2, 3]
    rows = matrix.rows("user").select(users, f32)
    frozen = snap.frozen("item")
    eps = T.RngState(3).standard_normal(A * len(users), d, f32)

    tape = T.Tape()
    terms, fwd = gen.side_loss(
        rows, rows, params.enc_u, params.dec_u,
        params.user_protos, frozen, temp=0.5, beta=1.0, eps=eps, tape=tape,
    )
    o = contrast.batch_neighborhood_reprs(rows, frozen)
    closs = contrast.batch_contrast(fwd.z, o, trainer.TrainConfig(), np.diff(rows.indptr) > 0)
    loss = contrast.total_loss(terms, closs, 0.1)
    tape.backward(loss)
    assert {node.value.dtype for node in tape.nodes} == {np.dtype(f32)}
    assert {g.dtype for g in tape.grads if g is not None} == {np.dtype(f32)}
    assert all(p.grad.dtype == f32 for p in params.user)
