import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dualvae import tensor as T
from dualvae.errors import ContractError, DomainError, ShapeError

from helpers import finite_difference, max_rel_err, reference_sigmoid, tape_grads

RNG = np.random.default_rng(20240517)


def rand_param(name, r, c, scale=1.0):
    return T.Parameter(name, scale * RNG.standard_normal((r, c)))


# ---------------------------------------------------------------------------
# forward values

def test_matmul_identity():
    x = RNG.standard_normal((2, 3))
    out = T.matmul(np.eye(2), x)
    np.testing.assert_array_equal(out.value, x)


def test_matmul_hand_case():
    out = T.matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1.0], [1.0]]))
    np.testing.assert_allclose(out.value, [[3.0], [7.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        T.matmul(np.zeros((2, 3)), np.zeros((2, 3)))


def test_sigmoid_at_zero():
    assert T.sigmoid(np.zeros((1, 1))).item() == 0.5


@pytest.mark.parametrize("dtype,lowest", [(np.float64, -800.0), (np.float32, -120.0)])
def test_sigmoid_within_4_ulp_of_reference(dtype, lowest):
    # down to where the logistic underflows to 0 in the dtype
    x = np.concatenate([3.0 * RNG.standard_normal((1, 400)),
                        np.linspace(lowest, 40.0, 4001).reshape(1, -1)], axis=1).astype(dtype)
    out = T.sigmoid(x).value
    assert out.dtype == dtype
    np.testing.assert_array_max_ulp(out, reference_sigmoid(x).astype(dtype), maxulp=4)


@pytest.mark.parametrize("dtype,v", [(np.float64, -800.0), (np.float32, -120.0)])
def test_sigmoid_far_tail_emits_no_warning(dtype, v):
    # exp(-v) overflows there; the overflow must stay silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = T.sigmoid(np.full((1, 3), v, dtype)).value
    assert out.dtype == dtype and np.all(out == 0.0)


def test_sparse_matmul_matches_dense():
    s = sp.random(5, 7, density=0.3, random_state=1, format="csr")
    b = RNG.standard_normal((7, 3))
    np.testing.assert_allclose(T.sparse_matmul(s, b).value, s.toarray() @ b, atol=1e-14)
    with pytest.raises(ShapeError):
        T.sparse_matmul(s, np.zeros((6, 3)))


def test_constant_keeps_float_dtype():
    assert T.constant(np.zeros((2, 2), np.float32)).dtype == np.float32
    assert T.constant(np.zeros((2, 2), np.float32), np.float64).dtype == np.float64
    assert T.constant(np.arange(3)).dtype == np.float64
    assert T.constant(1.5).dtype == np.float64


def test_softmax_uniform_row():
    out = T.softmax_rows(np.zeros((1, 3)))
    np.testing.assert_allclose(out.value, [[1 / 3, 1 / 3, 1 / 3]])


def test_log_rejects_nonpositive():
    with pytest.raises(DomainError):
        T.log(np.array([[1.0, 0.0]]))


def test_elementwise_broadcasts():
    m = RNG.standard_normal((3, 4))
    row = RNG.standard_normal((1, 4))
    col = RNG.standard_normal((3, 1))
    np.testing.assert_allclose(T.add(m, row).value, m + row)
    np.testing.assert_allclose(T.mul(m, col).value, m * col)
    np.testing.assert_allclose(T.sub(m, 2.0).value, m - 2.0)
    with pytest.raises(ShapeError):
        T.add(np.zeros((3, 4)), np.zeros((2, 4)))


def test_constant_inputs_stay_off_tape():
    out = T.mul(T.sigmoid(RNG.standard_normal((2, 2))), 3.0)
    assert out.tape is None


def test_row_normalize_zero_row():
    x = np.array([[0.0, 0.0], [3.0, 4.0]])
    out = T.row_normalize(x)
    np.testing.assert_allclose(out.value, [[0.0, 0.0], [0.6, 0.8]])


def test_cosine_rows_zero_row_scores_zero():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[1.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(T.cosine_rows(a, b).value, [[0.0], [1.0]])


def test_cosine_pairs_matches_loops():
    a = RNG.standard_normal((4, 3))
    b = RNG.standard_normal((5, 3))
    got = T.cosine_pairs(a, b).value
    for i in range(4):
        for j in range(5):
            want = a[i] @ b[j] / (np.linalg.norm(a[i]) * np.linalg.norm(b[j]))
            assert abs(got[i, j] - want) < 1e-12


# ---------------------------------------------------------------------------
# backward: trivial contracts

def test_backward_sum_gives_ones():
    p = rand_param("x", 3, 2)
    tape = T.Tape()
    tape.backward(T.sum_all(tape.leaf(p)))
    np.testing.assert_array_equal(p.grad, np.ones((3, 2)))


def test_unreachable_leaf_gets_zero():
    p = rand_param("x", 2, 2)
    q = rand_param("y", 2, 2)
    tape = T.Tape()
    tape.leaf(q)  # recorded but not used by the root
    tape.backward(T.sum_all(tape.leaf(p)))
    np.testing.assert_array_equal(q.grad, np.zeros((2, 2)))


def test_backward_requires_scalar_root():
    p = rand_param("x", 2, 2)
    tape = T.Tape()
    leaf = tape.leaf(p)
    with pytest.raises(ContractError):
        tape.backward(leaf)


def test_mixing_tapes_is_an_error():
    p = rand_param("x", 2, 2)
    t1, t2 = T.Tape(), T.Tape()
    a, b = t1.leaf(p), t2.leaf(p)
    with pytest.raises(ContractError):
        T.add(a, b)


def test_sigmoid_grad_at_zero_is_quarter():
    p = T.Parameter("x", np.zeros((1, 1)))
    tape = T.Tape()
    tape.backward(T.sum_all(T.sigmoid(tape.leaf(p))))
    assert abs(p.grad[0, 0] - 0.25) < 1e-12
    fd = finite_difference(lambda: float(1 / (1 + np.exp(-p.value[0, 0]))), [p], h=1e-6)
    assert abs(fd[0][0, 0] - 0.25) < 1e-6


# ---------------------------------------------------------------------------
# backward vs central finite differences, op by op

def _check_op(build, params, tol=1e-6):
    analytic = tape_grads(build, params)

    def loss_value():
        return build(T.Tape()).item()

    numeric = finite_difference(loss_value, params)
    assert max_rel_err(analytic, numeric) < tol


def test_grad_matmul():
    a = rand_param("a", 3, 4)
    b = rand_param("b", 4, 2)
    _check_op(lambda t: T.sum_all(T.matmul(t.leaf(a), t.leaf(b))), [a, b])


def test_grad_sparse_matmul():
    s = sp.random(4, 6, density=0.4, random_state=3, format="csr")
    b = rand_param("b", 6, 3)
    w = RNG.standard_normal((4, 3))
    _check_op(lambda t: T.sum_all(T.mul(T.tanh(T.sparse_matmul(s, t.leaf(b))), w)), [b])


def test_grad_elementwise_chain():
    a = rand_param("a", 3, 3, scale=0.5)
    b = rand_param("b", 1, 3, scale=0.5)

    def build(t):
        x = T.mul(T.tanh(t.leaf(a)), T.add(t.leaf(b), 1.5))
        return T.sum_all(T.sigmoid(x))

    _check_op(build, [a, b])


def test_grad_exp_log():
    a = rand_param("a", 2, 3, scale=0.3)

    def build(t):
        return T.sum_all(T.log(T.add(T.exp(t.leaf(a)), 0.5)))

    _check_op(build, [a])


def test_grad_softmax_rows():
    a = rand_param("a", 4, 5)
    w = RNG.standard_normal((4, 5))

    def build(t):
        return T.sum_all(T.mul(T.softmax_rows(t.leaf(a)), w))

    _check_op(build, [a])


def test_grad_reductions_and_slices():
    a = rand_param("a", 3, 6)

    def build(t):
        x = t.leaf(a)
        left = T.slice_cols(x, 0, 3)
        right = T.slice_cols(x, 3, 6)
        return T.add(T.mean_all(T.dot_rows(left, right)), T.sum_all(T.sum_rows(T.mul(left, 0.5))))

    _check_op(build, [a])


def test_grad_concat_slice_rows_transpose():
    a = rand_param("a", 2, 3)
    b = rand_param("b", 2, 2)

    def build(t):
        cat = T.concat_cols([t.leaf(a), t.leaf(b)])
        top = T.slice_rows(cat, 0, 1)
        return T.sum_all(T.matmul(top, T.transpose(top)))

    _check_op(build, [a, b])


def test_grad_cosine_rows():
    a = rand_param("a", 4, 3)
    b = rand_param("b", 4, 3)
    w = RNG.standard_normal((4, 1))

    def build(t):
        return T.sum_all(T.mul(T.cosine_rows(t.leaf(a), t.leaf(b)), w))

    _check_op(build, [a, b])


def test_grad_cosine_pairs():
    a = rand_param("a", 3, 4)
    b = rand_param("b", 5, 4)
    w = RNG.standard_normal((3, 5))

    def build(t):
        return T.sum_all(T.mul(T.cosine_pairs(t.leaf(a), t.leaf(b)), w))

    _check_op(build, [a, b])


def test_grad_clip_passes_inside_range():
    a = T.Parameter("a", np.array([[0.3, -0.4], [2.0, -2.0]]))

    def build(t):
        return T.sum_all(T.mul(T.clip(t.leaf(a), -1.0, 1.0), 2.0))

    analytic = tape_grads(build, [a])[0]
    np.testing.assert_allclose(analytic, [[2.0, 2.0], [0.0, 0.0]])


def test_grad_broadcast_row_and_col():
    m = rand_param("m", 3, 4)
    row = rand_param("r", 1, 4)
    col = rand_param("c", 3, 1)

    def build(t):
        return T.sum_all(T.sigmoid(T.mul(T.add(t.leaf(m), t.leaf(row)), t.leaf(col))))

    _check_op(build, [m, row, col])


def test_grad_same_tensor_used_twice():
    a = rand_param("a", 3, 3)

    def build(t):
        x = t.leaf(a)
        return T.sum_all(T.mul(x, x))

    analytic = tape_grads(build, [a])[0]
    np.testing.assert_allclose(analytic, 2 * a.value, rtol=1e-12)


# ---------------------------------------------------------------------------
# invariants (property tests)

@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(2, 7), st.integers(0, 2 ** 31 - 1))
def test_softmax_rows_simplex(r, c, seed):
    x = 6.0 * np.random.default_rng(seed).standard_normal((r, c))
    out = T.softmax_rows(x).value
    assert np.all(out > 0.0) and np.all(out < 1.0)
    np.testing.assert_allclose(out.sum(axis=1), np.ones(r), atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(-5.0, 5.0))
def test_softmax_shift_invariance(seed, shift):
    x = np.random.default_rng(seed).standard_normal((3, 4))
    a = T.softmax_rows(x).value
    b = T.softmax_rows(x + shift).value
    np.testing.assert_allclose(a, b, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_backward_is_linear(seed, ca, cb):
    rng = np.random.default_rng(seed)
    p = T.Parameter("p", rng.standard_normal((3, 3)))
    w1, w2 = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))

    def grad_of(coef1, coef2):
        p.zero_grad()
        tape = T.Tape()
        x = tape.leaf(p)
        l1 = T.sum_all(T.mul(T.tanh(x), w1))
        l2 = T.sum_all(T.mul(T.sigmoid(x), w2))
        tape.backward(T.add(T.scale(l1, coef1), T.scale(l2, coef2)))
        return p.grad.copy()

    combined = grad_of(ca, cb)
    expected = ca * grad_of(1.0, 0.0) + cb * grad_of(0.0, 1.0)
    np.testing.assert_allclose(combined, expected, atol=1e-10)


def test_core_ops_stay_finite():
    x = 50.0 * RNG.standard_normal((20, 20))
    for op in (T.sigmoid, T.tanh, T.softmax_rows, T.row_normalize):
        assert np.all(np.isfinite(op(x).value))


# ---------------------------------------------------------------------------
# rng

def test_rng_deterministic_stream():
    a = T.RngState(7).standard_normal(3, 4)
    b = T.RngState(7).standard_normal(3, 4)
    np.testing.assert_array_equal(a, b)
    c = T.RngState(8).standard_normal(3, 4)
    assert not np.array_equal(a, c)


def test_rng_derive_independent_and_stable():
    base = T.RngState(42)
    x = base.derive(1, 3).standard_normal(2, 2)
    y = T.RngState(42).derive(1, 3).standard_normal(2, 2)
    np.testing.assert_array_equal(x, y)
    z = T.RngState(42).derive(1, 4).standard_normal(2, 2)
    assert not np.array_equal(x, z)


def test_rng_state_roundtrip():
    rng = T.RngState(5)
    rng.standard_normal(10, 1)
    restored = T.RngState.from_state_dict(rng.state_dict())
    np.testing.assert_array_equal(rng.standard_normal(4, 4), restored.standard_normal(4, 4))


def test_standard_normal_moments():
    x = T.sample_standard_normal(T.RngState(123), (1_000_000, 1)).value
    assert abs(x.mean()) < 0.01
    assert abs(x.var() - 1.0) < 0.01
