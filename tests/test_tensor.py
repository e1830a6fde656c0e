import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dualvae import generation as gen, tensor as T
from dualvae.errors import ConfigError, ContractError, DomainError, ShapeError

from helpers import (cosine_pairs, cosine_rows, finite_difference, kind_unbroadcast,
                     max_rel_err, mean_all, reference_sigmoid, sample_standard_normal, sigmoid,
                     slice_rows, tape_grads)

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
    assert sigmoid(np.zeros((1, 1))).item() == 0.5


@pytest.mark.parametrize("dtype,lowest", [(np.float64, -800.0), (np.float32, -120.0)])
def test_sigmoid_within_4_ulp_of_reference(dtype, lowest):
    # down to where the logistic underflows to 0 in the dtype
    x = np.concatenate([3.0 * RNG.standard_normal((1, 400)),
                        np.linspace(lowest, 40.0, 4001).reshape(1, -1)], axis=1).astype(dtype)
    out = sigmoid(x).value
    assert out.dtype == dtype
    np.testing.assert_array_max_ulp(out, reference_sigmoid(x).astype(dtype), maxulp=4)


@pytest.mark.parametrize("dtype,v", [(np.float64, -800.0), (np.float32, -120.0)])
def test_sigmoid_far_tail_emits_no_warning(dtype, v):
    # exp(-v) overflows there; the overflow must stay silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = sigmoid(np.full((1, 3), v, dtype)).value
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


_EW_OPS = {  # op -> (value, d/da given g, d/db given g)
    T.add: (np.add, lambda g, x, y: g, lambda g, x, y: g),
    T.sub: (np.subtract, lambda g, x, y: g, lambda g, x, y: -g),
    T.mul: (np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op", list(_EW_OPS), ids=lambda op: op.__name__)
def test_elementwise_broadcast_matches_the_kind_based_reduction(op, dtype):
    # every pair of shapes from {1, r, r + 1} x {1, c, c + 1}: a pair the
    # scalar/row/column kinds cover gives numpy's value and the kind-based
    # gradients, byte for byte; any other pair raises ShapeError
    rng = np.random.default_rng(5)
    r, c = 37, 11
    value, da, db = _EW_OPS[op]
    shapes = [(rows, cols) for rows in (1, r, r + 1) for cols in (1, c, c + 1)]
    n_valid = 0
    for sa in shapes:
        for sb in shapes:
            out_shape = (max(sa[0], sb[0]), max(sa[1], sb[1]))
            kinds = {out_shape, (1, 1), (1, out_shape[1]), (out_shape[0], 1)}
            if sa not in kinds or sb not in kinds:
                with pytest.raises(ShapeError, match="cannot broadcast"):
                    op(np.zeros(sa, dtype), np.zeros(sb, dtype))
                continue
            n_valid += 1
            a = T.Parameter("a", rng.standard_normal(sa).astype(dtype))
            b = T.Parameter("b", rng.standard_normal(sb).astype(dtype))
            weights = rng.standard_normal(out_shape).astype(dtype)
            tape = T.Tape()
            out = op(tape.leaf(a), tape.leaf(b))
            assert out.value.tobytes() == value(a.value, b.value).tobytes()
            tape.backward(T.sum_all(T.mul(out, weights)))
            # the upstream gradient of ``out`` is ``weights`` itself
            for p, d in ((a, da), (b, db)):
                want = kind_unbroadcast(d(weights, a.value, b.value), p.value.shape)
                assert p.grad.shape == want.shape and p.grad.tobytes() == want.tobytes()
    assert n_valid == 49  # 7 compatible pairs of sizes per axis


def test_constant_inputs_stay_off_tape():
    out = T.mul(sigmoid(RNG.standard_normal((2, 2))), 3.0)
    assert out.tape is None


def test_row_normalize_zero_row():
    x = np.array([[0.0, 0.0], [3.0, 4.0]])
    out = T.row_normalize(x)
    np.testing.assert_allclose(out.value, [[0.0, 0.0], [0.6, 0.8]])


def test_cosine_rows_zero_row_scores_zero():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[1.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(cosine_rows(a, b).value, [[0.0], [1.0]])


def test_cosine_pairs_matches_loops():
    a = RNG.standard_normal((4, 3))
    b = RNG.standard_normal((5, 3))
    got = cosine_pairs(a, b).value
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
    tape.backward(T.sum_all(sigmoid(tape.leaf(p))))
    assert abs(p.grad[0, 0] - 0.25) < 1e-12
    fd = finite_difference(lambda: float(1 / (1 + np.exp(-p.value[0, 0]))), [p], h=1e-6)
    assert abs(fd[0][0, 0] - 0.25) < 1e-6


def loop_group_pairs(x, y, groups, across):
    """Explicit loops over the aspect-major blocks of x and y."""
    b = x.shape[0] // groups
    out = np.zeros((x.shape[0], groups if across else b))
    for a in range(groups):
        for i in range(b):
            for k in range(out.shape[1]):
                partner = y[k * b + i] if across else y[a * b + k]
                out[a * b + i, k] = x[a * b + i] @ partner
    return out


@pytest.mark.parametrize("across", [False, True])
@pytest.mark.parametrize("groups,b,d", [(1, 1, 3), (1, 5, 2), (4, 1, 3), (3, 4, 5)])
def test_group_pairs_matches_loops(groups, b, d, across):
    x = RNG.standard_normal((groups * b, d))
    y = RNG.standard_normal((groups * b, d))
    got = T.group_pairs(x, y, groups, across=across).value
    np.testing.assert_allclose(got, loop_group_pairs(x, y, groups, across), rtol=1e-13,
                               atol=1e-13)


def test_group_pairs_shape_mismatch():
    with pytest.raises(ShapeError):
        T.group_pairs(np.zeros((6, 3)), np.zeros((6, 2)), 2)
    with pytest.raises(ShapeError):
        T.group_pairs(np.zeros((6, 3)), np.zeros((4, 3)), 2)
    with pytest.raises(ShapeError):
        T.group_pairs(np.zeros((6, 3)), np.zeros((6, 3)), 4, across=True)


# ---------------------------------------------------------------------------
# the recording contract of tensor._op

def test_op_never_calls_a_constant_inputs_vjp():
    def refuse(g):
        raise AssertionError("the vjp of a constant input was called")

    p = rand_param("x", 2, 3)
    tape = T.Tape()
    x = tape.leaf(p)
    out = T._op((x, np.ones((2, 3))), 2.0 * x.value, lambda g: 2.0 * g, refuse)
    tape.backward(T.sum_all(out))
    np.testing.assert_array_equal(p.grad, np.full((2, 3), 2.0))
    assert T._op((np.ones((2, 3)),), np.ones((2, 3)), refuse).tape is None


_FROZEN_RNG = np.random.default_rng(5)
_FROZEN = gen.FrozenSide(_FROZEN_RNG.standard_normal((2, 5, 4)),
                         _FROZEN_RNG.dirichlet(np.ones(2), 5))
_TARGET = sp.csr_matrix(np.array([[1, 0, 1, 0, 0], [0, 1, 0, 0, 1], [1, 1, 0, 1, 0]], float))
TWO_INPUT_OPS = {  # op, and the shapes of its two inputs
    "add": (T.add, (3, 4), (1, 4)),
    "sub": (T.sub, (3, 4), (3, 1)),
    "mul": (T.mul, (3, 4), (3, 4)),
    "matmul": (T.matmul, (3, 4), (4, 2)),
    "dot_rows": (T.dot_rows, (3, 4), (3, 4)),
    "group_pairs": (lambda x, y: T.group_pairs(x, y, 2), (6, 3), (6, 3)),
    "concat_cols": (lambda x, y: T.concat_cols([x, y]), (3, 2), (3, 4)),
    "poisson_loglik": (lambda c, p: gen.poisson_loglik(c, p, _FROZEN, _TARGET), (6, 4), (3, 2)),
}


@pytest.mark.parametrize("live", [0, 1])
@pytest.mark.parametrize("name", list(TWO_INPUT_OPS))
def test_constant_operand_leaves_the_live_gradient_bitwise_equal(name, live):
    op, *shapes = TWO_INPUT_OPS[name]
    rng = np.random.default_rng(11)
    params = [T.Parameter(f"x{k}", rng.uniform(0.2, 1.0, shape)) for k, shape in enumerate(shapes)]
    weight = rng.standard_normal(op(*(p.value for p in params)).shape)

    def live_grad(both_on_tape):
        params[live].grad[...] = 0.0
        tape = T.Tape()
        inputs = [tape.leaf(p) if both_on_tape or k == live else T.constant(p.value)
                  for k, p in enumerate(params)]
        tape.backward(T.sum_all(T.mul(op(*inputs), weight)))
        return params[live].grad.copy()

    both, alone = live_grad(True), live_grad(False)
    assert np.any(both != 0.0)
    np.testing.assert_array_equal(alone, both)


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
        return T.sum_all(sigmoid(x))

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
        return T.add(mean_all(T.dot_rows(left, right)), T.sum_all(T.sum_rows(T.mul(left, 0.5))))

    _check_op(build, [a])


def test_grad_concat_slice_rows_transpose():
    a = rand_param("a", 2, 3)
    b = rand_param("b", 2, 2)

    def build(t):
        cat = T.concat_cols([t.leaf(a), t.leaf(b)])
        top = slice_rows(cat, 0, 1)
        return T.sum_all(T.matmul(top, T.transpose(top)))

    _check_op(build, [a, b])


def test_grad_reshape():
    a = rand_param("a", 6, 1)
    w = RNG.standard_normal((2, 3))

    def build(t):
        folded = T.reshape(t.leaf(a), 2, 3)
        np.testing.assert_array_equal(folded.value, a.value.reshape(2, 3))
        return T.sum_all(T.mul(T.mul(folded, folded), w))

    _check_op(build, [a])
    with pytest.raises(ShapeError):
        T.reshape(a.value, 4, 2)


def test_grad_cosine_rows():
    a = rand_param("a", 4, 3)
    b = rand_param("b", 4, 3)
    w = RNG.standard_normal((4, 1))

    def build(t):
        return T.sum_all(T.mul(cosine_rows(t.leaf(a), t.leaf(b)), w))

    _check_op(build, [a, b])


def test_grad_cosine_pairs():
    a = rand_param("a", 3, 4)
    b = rand_param("b", 5, 4)
    w = RNG.standard_normal((3, 5))

    def build(t):
        return T.sum_all(T.mul(cosine_pairs(t.leaf(a), t.leaf(b)), w))

    _check_op(build, [a, b])


@pytest.mark.parametrize("across", [False, True])
@pytest.mark.parametrize("groups,b", [(1, 4), (3, 1), (3, 4)])
def test_grad_group_pairs(groups, b, across):
    x = rand_param("x", groups * b, 3)
    y = rand_param("y", groups * b, 3)
    w = RNG.standard_normal((groups * b, groups if across else b))

    def build(t):
        return T.sum_all(T.mul(T.group_pairs(t.leaf(x), t.leaf(y), groups, across=across), w))

    _check_op(build, [x, y])


def test_grad_group_pairs_same_operand_twice():
    x = rand_param("x", 6, 3)
    w = RNG.standard_normal((6, 3))

    def build(t):
        leaf = t.leaf(x)
        return T.sum_all(T.mul(T.group_pairs(leaf, leaf, 2), w))

    _check_op(build, [x])


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
        return T.sum_all(sigmoid(T.mul(T.add(t.leaf(m), t.leaf(row)), t.leaf(col))))

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
        p.grad[...] = 0.0
        tape = T.Tape()
        x = tape.leaf(p)
        l1 = T.sum_all(T.mul(T.tanh(x), w1))
        l2 = T.sum_all(T.mul(sigmoid(x), w2))
        tape.backward(T.add(T.scale(l1, coef1), T.scale(l2, coef2)))
        return p.grad.copy()

    combined = grad_of(ca, cb)
    expected = ca * grad_of(1.0, 0.0) + cb * grad_of(0.0, 1.0)
    np.testing.assert_allclose(combined, expected, atol=1e-10)


def test_core_ops_stay_finite():
    x = 50.0 * RNG.standard_normal((20, 20))
    for op in (sigmoid, T.tanh, T.softmax_rows, T.row_normalize):
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


def test_negative_seed_is_config_error():
    with pytest.raises(ConfigError, match="seed"):
        T.RngState(-1)
    T.RngState(0).derive(3)  # derived keys are not seeds


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_stacked_noise_draw_equals_per_aspect_draws(dtype):
    # training draws one aspect-major (A * b, d) block where it drew A (b, d) ones
    A, b, d = 4, 37, 5
    stacked = T.RngState(11).derive(2, 0).standard_normal(A * b, d, dtype)
    rng = T.RngState(11).derive(2, 0)
    per_aspect = np.concatenate([rng.standard_normal(b, d, dtype) for _ in range(A)])
    assert stacked.dtype == dtype
    np.testing.assert_array_equal(stacked, per_aspect)


def test_standard_normal_moments():
    x = sample_standard_normal(T.RngState(123), (1_000_000, 1)).value
    assert abs(x.mean()) < 0.01
    assert abs(x.var() - 1.0) < 0.01
