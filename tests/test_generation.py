import numpy as np
import pytest
import scipy.sparse as sp

from dualvae import data, generation as gen, model, tensor as T
from dualvae.errors import DomainError

from helpers import finite_difference, max_rel_err

RNG = np.random.default_rng(77)


def tiny_world(m=4, n=6, A=2, d=3, hidden=4, seed=0, density=0.5):
    rng = np.random.default_rng(seed)
    dense = (rng.random((m, n)) < density).astype(float)
    dense[:, 0] = 1.0
    dense[0, :] = 1.0
    matrix = data.from_dense(dense)
    params = model.ModelParams(m, n, A, d, hidden, T.RngState(seed))
    snap = model.bootstrap(matrix, params, temp=0.5)
    snap = model.refresh(matrix, params, snap.C, snap.P, temp=0.5)
    return matrix, params, snap


# ---------------------------------------------------------------------------
# skip score

def test_skip_zero_latents_zero_bias():
    dec_a = gen.DecoderParams("da", 3, T.RngState(1))
    dec_b = gen.DecoderParams("db", 3, T.RngState(2))
    z = T.constant(np.zeros((2, 3)))
    out = gen.skip_score(z, z, dec_a, dec_b)
    np.testing.assert_allclose(out.value, np.zeros((2, 1)))


def test_skip_reduces_to_inner_product_when_mapped_path_zeroed():
    dec = gen.DecoderParams("d", 3, T.RngState(1))
    dec.w.value[...] = 0.0  # tanh(0 + 0) = 0 kills the nonlinear path
    za, zb = RNG.standard_normal((5, 3)), RNG.standard_normal((5, 3))
    out = gen.skip_score(T.constant(za), T.constant(zb), dec, dec)
    np.testing.assert_allclose(out.value[:, 0], (za * zb).sum(axis=1), atol=1e-12)


def test_skip_gradient_wrt_latent():
    dec_a = gen.DecoderParams("da", 3, T.RngState(3))
    dec_b = gen.DecoderParams("db", 3, T.RngState(4))
    za = T.Parameter("za", RNG.standard_normal((4, 3)))
    zb = RNG.standard_normal((4, 3))

    def build(tape):
        return T.sum_all(gen.skip_score(tape.leaf(za), T.constant(zb), dec_a, dec_b, tape))

    za.zero_grad()
    tape = T.Tape()
    tape.backward(build(tape))
    numeric = finite_difference(lambda: build(T.Tape()).item(), [za])
    assert max_rel_err([za.grad], numeric) < 1e-6


# ---------------------------------------------------------------------------
# joint score

def test_joint_score_single_aspect_at_zero_skip():
    g, addends = gen.joint_score([1.0], [1.0], [0.0])
    assert abs(g - 0.5) < 1e-12 and len(addends) == 1


def test_joint_score_uniform_two_aspects():
    g, _ = gen.joint_score([0.5, 0.5], [0.5, 0.5], [0.0, 0.0])
    assert abs(g - 0.25) < 1e-12


def test_joint_score_monotone_in_each_skip():
    p = np.array([0.3, 0.7])
    c = np.array([0.6, 0.4])
    base, _ = gen.joint_score(p, c, [0.2, -0.1])
    up0, _ = gen.joint_score(p, c, [0.9, -0.1])
    up1, _ = gen.joint_score(p, c, [0.2, 0.5])
    assert up0 > base and up1 > base


def test_joint_score_range_and_decomposition():
    for _ in range(2000):
        A = int(RNG.integers(1, 6))
        logits = RNG.standard_normal((2, A))
        p = np.exp(logits[0]) / np.exp(logits[0]).sum()
        c = np.exp(logits[1]) / np.exp(logits[1]).sum()
        skips = 4.0 * RNG.standard_normal(A)
        g, addends = gen.joint_score(p, c, skips)
        assert 0.0 < g < 1.0
        assert abs(g - addends.sum()) < 1e-12
        assert (p * c).sum() <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# poisson log likelihood

def test_poisson_zero_observation():
    assert abs(gen.poisson_loglik(0.0, 0.3) + 0.3) < 1e-12


def test_poisson_hit_at_full_rate():
    assert abs(gen.poisson_loglik(1.0, 1.0) + 1.0) < 1e-12


def test_poisson_gradient_sign_favors_g_one_for_hits():
    # d/dg [r log g - g] = r/g - 1 >= 0 on (0, 1] for r = 1
    for g in np.linspace(0.05, 1.0, 20):
        grad = 1.0 / g - 1.0
        assert grad >= 0.0
    gs = np.linspace(0.05, 1.0, 50)
    vals = [gen.poisson_loglik(1.0, g) for g in gs]
    assert np.argmax(vals) == len(gs) - 1  # optimum at the g = 1 boundary


def test_poisson_rejects_nonpositive_rate():
    with pytest.raises(DomainError):
        gen.poisson_loglik(1.0, 0.0)


# ---------------------------------------------------------------------------
# side losses

def test_user_loss_closed_form_all_zero_rows():
    # single user, r = 0 everywhere, so recon = -sum_i g_i
    matrix, params, snap = tiny_world(seed=3)
    slab = np.zeros((1, matrix.num_items))
    terms, fwd = gen.side_loss(
        slab, sp.csr_matrix(slab.shape), params.enc_u, params.dec_u, params.protos.user_protos,
        snap.frozen_items(), temp=0.5, beta=1.0, eps_list=None, tape=None,
    )
    np.testing.assert_allclose(terms.recon.item(), -fwd.scores.value.sum(), atol=1e-12)
    assert np.all(fwd.scores.value > 0.0) and np.all(fwd.scores.value < 1.0)


def test_user_loss_kl_is_sum_of_per_aspect_kls():
    from dualvae import encoder as enc_mod

    matrix, params, snap = tiny_world(seed=5)
    users = [0, 1]
    slab = matrix.densify_users(users)
    rows = matrix.sparse_users(users)
    terms, fwd = gen.side_loss(
        slab, rows, params.enc_u, params.dec_u, params.protos.user_protos,
        snap.frozen_items(), temp=0.5, beta=1.0, eps_list=None, tape=None,
    )
    want = 0.0
    for a in range(params.n_aspects):
        masked = enc_mod.mask_interactions(slab, snap.C[:, a])
        mu, logvar, sigma = enc_mod.encode(masked, params.enc_u)
        want += np.array([enc_mod.kl_gaussian(mu.value[k], sigma.value[k]) for k in range(len(users))])
    np.testing.assert_allclose(terms.kl.item(), want.mean(), atol=1e-10)


def test_elbo_terms_sign_convention():
    matrix, params, snap = tiny_world(seed=6)
    slab = matrix.densify_users([0, 1, 2])
    rows = matrix.sparse_users([0, 1, 2])
    terms, _ = gen.side_loss(
        slab, rows, params.enc_u, params.dec_u, params.protos.user_protos,
        snap.frozen_items(), temp=0.5, beta=0.7, eps_list=None, tape=None,
    )
    np.testing.assert_allclose(
        terms.loss.item(), -(terms.recon.item() - 0.7 * terms.kl.item()), atol=1e-12
    )


def test_user_loss_gradient_matches_finite_differences():
    matrix, params, snap = tiny_world(m=4, n=6, A=2, d=3, hidden=4, seed=8)
    slab = matrix.densify_users([0, 1, 2, 3])
    rows = matrix.sparse_users([0, 1, 2, 3])
    eps = [RNG.standard_normal((4, 3)) for _ in range(2)]
    frozen = snap.frozen_items()
    live = params.user_group()

    def build(tape):
        terms, _ = gen.side_loss(
            slab, rows, params.enc_u, params.dec_u, params.protos.user_protos,
            frozen, temp=0.5, beta=1.0, eps_list=eps, tape=tape,
        )
        return terms.loss

    for p in live:
        p.zero_grad()
    tape = T.Tape()
    tape.backward(build(tape))
    analytic = [p.grad.copy() for p in live]
    numeric = finite_difference(lambda: build(T.Tape()).item(), live, h=1e-6)
    assert max_rel_err(analytic, numeric) < 1e-4


def test_frozen_side_gets_zero_gradient():
    matrix, params, snap = tiny_world(seed=9)
    slab = matrix.densify_users([0, 1])
    rows = matrix.sparse_users([0, 1])
    for p in params.all_params():
        p.zero_grad()
    tape = T.Tape()
    terms, _ = gen.side_loss(
        slab, rows, params.enc_u, params.dec_u, params.protos.user_protos,
        snap.frozen_items(), temp=0.5, beta=1.0, eps_list=None, tape=tape,
    )
    tape.backward(terms.loss)
    for p in params.item_group():
        np.testing.assert_array_equal(p.grad, np.zeros_like(p.grad))
    assert any(np.any(p.grad != 0) for p in params.user_group())


def test_item_loss_equals_user_loss_on_transposed_data():
    # mirror contract: swapping sides and transposing R swaps the losses
    m, n, A, d, hidden = 4, 6, 2, 3, 4
    rng = np.random.default_rng(12)
    dense = (rng.random((m, n)) < 0.5).astype(float)
    dense[0, :] = 1.0
    dense[:, 0] = 1.0

    matrix = data.from_dense(dense)
    matrix_t = data.from_dense(dense.T)

    params = model.ModelParams(m, n, A, d, hidden, T.RngState(3))
    # build the transposed-world parameters by swapping the sides wholesale
    params_t = model.ModelParams(n, m, A, d, hidden, T.RngState(4))
    for dst, src in (
        (params_t.enc_u, params.enc_i), (params_t.enc_i, params.enc_u),
    ):
        for pd, ps in zip(dst.params(), src.params()):
            pd.value[...] = ps.value
    for pd, ps in zip(params_t.dec_u.params(), params.dec_i.params()):
        pd.value[...] = ps.value
    for pd, ps in zip(params_t.dec_i.params(), params.dec_u.params()):
        pd.value[...] = ps.value
    params_t.protos.user_protos.value[...] = params.protos.item_protos.value
    params_t.protos.item_protos.value[...] = params.protos.user_protos.value

    snap = model.bootstrap(matrix, params, temp=0.5)
    snap = model.refresh(matrix, params, snap.C, snap.P, temp=0.5)
    snap_t = model.bootstrap(matrix_t, params_t, temp=0.5)
    snap_t = model.refresh(matrix_t, params_t, snap_t.C, snap_t.P, temp=0.5)

    items = list(range(n))
    terms_item, _ = gen.side_loss(
        matrix.densify_items(items), matrix.sparse_items(items),
        params.enc_i, params.dec_i, params.protos.item_protos,
        snap.frozen_users(), temp=0.5, beta=1.0, eps_list=None, tape=None,
    )
    terms_user_t, _ = gen.side_loss(
        matrix_t.densify_users(items), matrix_t.sparse_users(items),
        params_t.enc_u, params_t.dec_u, params_t.protos.user_protos,
        snap_t.frozen_items(), temp=0.5, beta=1.0, eps_list=None, tape=None,
    )
    assert abs(terms_item.loss.item() - terms_user_t.loss.item()) < 1e-9


def test_eval_mode_scores_are_deterministic():
    matrix, params, snap = tiny_world(seed=13)
    slab = matrix.densify_users([0, 1])
    rows = matrix.sparse_users([0, 1])
    args = (slab, rows, params.enc_u, params.dec_u, params.protos.user_protos, snap.frozen_items())
    _, fwd1 = gen.side_loss(*args, temp=0.5, beta=1.0, eps_list=None, tape=None)
    _, fwd2 = gen.side_loss(*args, temp=0.5, beta=1.0, eps_list=None, tape=None)
    np.testing.assert_array_equal(fwd1.scores.value, fwd2.scores.value)


def test_frozen_perturbation_moves_loss_but_not_accumulators():
    # wiggling a frozen-side parameter changes the objective value (through
    # the frozen pack) while its gradient accumulator stays exactly zero
    matrix, params, snap = tiny_world(seed=21)
    slab = matrix.densify_users([0, 1, 2])
    rows = matrix.sparse_users([0, 1, 2])

    def loss_with_current_item_side():
        s = model.refresh(matrix, params, snap.C, snap.P, temp=0.5)
        terms, _ = gen.side_loss(
            slab, rows, params.enc_u, params.dec_u, params.protos.user_protos,
            s.frozen_items(), temp=0.5, beta=1.0, eps_list=None, tape=None,
        )
        return terms.loss.item()

    base = loss_with_current_item_side()
    params.enc_i.w1.value[0, 0] += 0.05
    moved = loss_with_current_item_side()
    params.enc_i.w1.value[0, 0] -= 0.05
    assert moved != base

    for p in params.all_params():
        p.zero_grad()
    tape = T.Tape()
    terms, _ = gen.side_loss(
        slab, rows, params.enc_u, params.dec_u, params.protos.user_protos,
        snap.frozen_items(), temp=0.5, beta=1.0, eps_list=None, tape=tape,
    )
    tape.backward(terms.loss)
    np.testing.assert_array_equal(params.enc_i.w1.grad, 0.0)


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


def test_float32_batch_records_only_float32_nodes():
    from dualvae import contrast

    m, n, A, d, hidden, f32 = 5, 8, 2, 3, 4, np.float32
    dense = (np.random.default_rng(2).random((m, n)) < 0.5).astype(float)
    dense[:, 0] = 1.0
    dense[0, :] = 1.0
    matrix = data.from_dense(dense)
    params = model.ModelParams(m, n, A, d, hidden, T.RngState(1), f32)
    snap = model.bootstrap(matrix, params, temp=0.5, dtype=f32)
    snap = model.refresh(matrix, params, snap.C, snap.P, temp=0.5, dtype=f32)
    users = [0, 1, 2, 3]
    rows = matrix.sparse_users(users, f32)
    frozen = snap.frozen_items()
    eps = [T.RngState(3).derive(a).standard_normal(len(users), d, f32) for a in range(A)]

    tape = T.Tape()
    terms, fwd = gen.side_loss(
        matrix.densify_users(users, f32), rows, params.enc_u, params.dec_u,
        params.protos.user_protos, frozen, temp=0.5, beta=1.0, eps_list=eps, tape=tape,
    )
    o = contrast.batch_neighborhood_reprs(rows, frozen.probs, frozen.means)
    closs = contrast.batch_contrast(fwd.z, o, contrast.ContrastConfig(), np.diff(rows.indptr) > 0)
    loss = contrast.total_loss(terms, closs, 0.1)
    tape.backward(loss)
    assert {node.value.dtype for node in tape.nodes} == {np.dtype(f32)}
    assert {g.dtype for g in tape.grads if g is not None} == {np.dtype(f32)}
    assert all(p.grad.dtype == f32 for p in params.user_group())
