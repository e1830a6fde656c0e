"""Dense 2-D tensors with tape-recorded reverse-mode differentiation.

The operation vocabulary is fixed on purpose: it covers exactly what the
dual-VAE computation graph needs (affine maps, one of them from constant
sparse rows, pointwise nonlinearities, row softmax, row reductions, row
normalisation, grouped inner products of aspect-major arrays) and nothing
else, which keeps every backward rule small enough to audit by hand. Every
op, and the one fused op that lives with the model instead
(``generation.poisson_loglik``), records itself through ``_op``: one
gradient function per input, run only for the inputs on the tape.

Conventions:
  * every value on the tape is a 2-D ``float64`` (or ``float32``) array;
    scalars are ``(1, 1)``, row vectors ``(1, c)``, column vectors ``(r, 1)``
  * constants (plain arrays / floats) are never recorded; an op whose inputs
    are all constants returns a constant, so evaluation-mode code reuses the
    training code path with no tape attached
  * ``add``/``sub``/``mul`` broadcast as numpy does, which on 2-D values is
    scalar-, row- and column-vs-matrix
  * tensors are immutable once created and safe to share; a Tape has a single
    owner and must not be used from multiple threads
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConfigError, ContractError, DomainError, ShapeError

DEFAULT_DTYPE = np.float64


def _as_array(x, dtype) -> np.ndarray:
    """Coerce scalars / lists / arrays to a 2-D array of the given dtype."""
    a = np.asarray(x, dtype=dtype)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1)
    elif a.ndim != 2:
        raise ShapeError(f"tensors are 2-D, got shape {a.shape}")
    return np.ascontiguousarray(a)


class Parameter:
    """A named trainable array with a persistent gradient accumulator."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value):
        self.name = name
        self.value = _as_array(value, np.asarray(value).dtype)
        self.grad = np.zeros_like(self.value)

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class ParamGroup:
    """Parameters whose ``value`` and ``grad`` become reshaped views into one
    flat value buffer and one flat grad buffer, in member order, so work on
    the whole group is one array operation. Assigning to a member's
    ``value`` or ``grad`` instead of writing into it detaches the member."""

    def __init__(self, params: Sequence[Parameter]):
        self.params = list(params)
        self.value = np.concatenate([p.value.reshape(-1) for p in self.params])
        self.grad = np.zeros_like(self.value)
        ends = np.cumsum([p.value.size for p in self.params])[:-1]
        for p, v, g in zip(self.params, np.split(self.value, ends), np.split(self.grad, ends)):
            p.value, p.grad = v.reshape(p.value.shape), g.reshape(p.value.shape)

    def __iter__(self):
        return iter(self.params)

    def zero_grad(self):
        self.grad[...] = 0.0


class _Node:
    __slots__ = ("value", "parents", "vjps", "param")

    def __init__(self, value, parents, vjps, param=None):
        self.value = value
        self.parents = parents  # tuple of parent node ids
        self.vjps = vjps  # one callable(out_grad) -> parent grad per parent
        self.param = param  # Parameter backing this leaf, if any


class Tensor:
    """Handle to a forward value, optionally recorded on a tape."""

    __slots__ = ("value", "tape", "nid")

    def __init__(self, value: np.ndarray, tape: "Tape | None" = None, nid: int = -1):
        self.value = value
        self.tape = tape
        self.nid = nid

    @property
    def shape(self):
        return self.value.shape

    @property
    def dtype(self):
        return self.value.dtype

    def item(self) -> float:
        if self.value.size != 1:
            raise ContractError(f"item() on tensor of shape {self.value.shape}")
        return float(self.value.reshape(-1)[0])

    def __repr__(self):
        tag = "const" if self.tape is None else f"node {self.nid}"
        return f"Tensor({tag}, shape={self.value.shape})"


class Tape:
    """Ordered record of operations supporting a single reverse sweep.

    Nodes are appended in creation order, which is a topological order by
    construction (an op's inputs must exist before the op runs). ``backward``
    visits each node exactly once, accumulating gradients from outputs to
    inputs, and adds leaf gradients into their ``Parameter.grad`` buffers.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.grads: list[np.ndarray | None] = []

    def _record(self, value, parents=(), vjps=(), param=None) -> Tensor:
        self.nodes.append(_Node(value, parents, vjps, param))
        return Tensor(value, self, len(self.nodes) - 1)

    def leaf(self, param: Parameter) -> Tensor:
        """Put a parameter on the tape; its gradient lands in ``param.grad``."""
        return self._record(param.value, param=param)

    def backward(self, root: Tensor) -> None:
        """Reverse sweep from a scalar root; accumulates into parameter grads."""
        if root.tape is not self:
            raise ContractError("root tensor does not belong to this tape")
        if root.value.size != 1:
            raise ContractError(f"backward root must be scalar, got shape {root.value.shape}")
        grads: list[np.ndarray | None] = [None] * len(self.nodes)
        grads[root.nid] = np.ones_like(root.value)
        for nid in range(root.nid, -1, -1):
            g = grads[nid]
            if g is None:
                continue
            node = self.nodes[nid]
            for pid, vjp in zip(node.parents, node.vjps):
                pg = vjp(g)
                # accumulation always allocates, so sharing g itself is safe
                if grads[pid] is None:
                    grads[pid] = pg
                else:
                    grads[pid] = grads[pid] + pg
            if node.param is not None:
                node.param.grad += g
        self.grads = grads


# ---------------------------------------------------------------------------
# op plumbing

def _vals(*xs) -> list:
    """The inputs' arrays: a Tensor's value as it is, anything else as a 2-D
    array of the first Tensor's or ndarray's dtype (float64 if none is)."""
    dtype = next((x.dtype for x in xs if isinstance(x, (Tensor, np.ndarray))), DEFAULT_DTYPE)
    return [x.value if isinstance(x, Tensor) else _as_array(x, dtype) for x in xs]


def _op(inputs, out: np.ndarray, *vjps) -> Tensor:
    """The value ``out`` of an op on ``inputs``, recorded on their tape.

    ``vjps[k]`` maps the gradient of ``out`` to the gradient of
    ``inputs[k]``. With no input on a tape, ``out`` is returned as a
    constant. Otherwise one node is recorded, and its backward calls
    ``vjps[k]`` only for the inputs ``k`` that are on that tape, so a
    constant input's gradient is never computed.

    A vjp must capture no Tensor, only plain arrays and numbers: a captured
    Tensor would close a reference cycle tape -> node -> vjp -> tensor ->
    tape, keeping every batch's forward arrays alive until a full garbage
    collection.
    """
    tape, live = None, []
    for k, x in enumerate(inputs):
        if isinstance(x, Tensor) and x.tape is not None:
            if tape is not None and x.tape is not tape:
                raise ContractError("operands recorded on different tapes")
            tape = x.tape
            live.append(k)
    if tape is None:
        return Tensor(out)
    return tape._record(out, tuple(inputs[k].nid for k in live), tuple(vjps[k] for k in live))


# ---------------------------------------------------------------------------
# broadcasting for add / sub / mul

def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """The gradient of an input of ``shape`` that numpy broadcast to g's
    shape: g summed over the axes where ``shape`` is 1 and g is not."""
    axes = tuple(k for k in range(2) if shape[k] == 1 and g.shape[k] != 1)
    return g.sum(axis=axes, keepdims=True) if axes else g


def _ew(op_fn, da_fn, db_fn, a, b, opname):
    av, bv = _vals(a, b)
    try:
        out = op_fn(av, bv)
    except ValueError:
        raise ShapeError(f"{opname}: cannot broadcast {av.shape} with {bv.shape}") from None
    return _op((a, b), out,
               lambda g: _unbroadcast(da_fn(g, av, bv), av.shape),
               lambda g: _unbroadcast(db_fn(g, av, bv), bv.shape))


# ---------------------------------------------------------------------------
# the op vocabulary

def add(a, b) -> Tensor:
    return _ew(lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g, a, b, "add")


def sub(a, b) -> Tensor:
    return _ew(lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g, a, b, "sub")


def mul(a, b) -> Tensor:
    return _ew(lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x, a, b, "mul")


def matmul(a, b) -> Tensor:
    """Matrix product; backward is g @ b.T and a.T @ g."""
    av, bv = _vals(a, b)
    if av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul: inner dims {av.shape} x {bv.shape}")
    return _op((a, b), av @ bv, lambda g: g @ bv.T, lambda g: av.T @ g)


def sparse_matmul(s, b) -> Tensor:
    """Constant sparse matrix (scipy CSR) times a tensor; backward is s.T @ g.

    Costs O(nnz * cols) rather than O(rows * inner * cols), which is what a
    batch of sparse interaction rows needs in a first dense layer.
    """
    bv = b.value if isinstance(b, Tensor) else _as_array(b, s.dtype)
    if s.shape[1] != bv.shape[0]:
        raise ShapeError(f"sparse_matmul: inner dims {s.shape} x {bv.shape}")
    return _op((b,), s @ bv, lambda g: s.T @ g)


def transpose(x) -> Tensor:
    (xv,) = _vals(x)
    return _op((x,), np.ascontiguousarray(xv.T), lambda g: np.ascontiguousarray(g.T))


def reshape(x, rows: int, cols: int) -> Tensor:
    """The same values in C order as a (rows, cols) matrix."""
    (xv,) = _vals(x)
    if xv.size != rows * cols:
        raise ShapeError(f"reshape: {xv.shape} cannot become ({rows}, {cols})")
    return _op((x,), xv.reshape(rows, cols), lambda g: g.reshape(xv.shape))


def _unary(x, f, df_from_out):
    """Pointwise op saving only what backward needs (the output)."""
    (xv,) = _vals(x)
    out = f(xv)
    return _op((x,), out, lambda g: df_from_out(g, out))


def _logistic(v: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
    """1 / (1 + exp(-v)), computed in one fresh array, or in ``out`` (which
    may be ``v`` itself)."""
    return _logistic_of_negated(np.negative(v, out=out))


def _logistic_of_negated(neg: np.ndarray) -> np.ndarray:
    """The logistic 1 / (1 + exp(neg)) of v = -neg, computed in ``neg``."""
    # exp(-v) overflows to inf, so the formula gives 0, where the logistic is
    # still subnormal (float64 below -709.8, float32 below -88.7); below -40
    # it equals exp(v) in both. The mask, as large as v, is only made when
    # some entry needs it (or a NaN hides the maximum).
    tail = neg > 40.0 if neg.size and not neg.max() <= 40.0 else None
    low = np.exp(np.negative(neg[tail])) if tail is not None else None
    with np.errstate(over="ignore"):
        np.exp(neg, out=neg)
    neg += 1.0
    np.reciprocal(neg, out=neg)
    if low is not None:
        neg[tail] = low
    return neg


def tanh(x) -> Tensor:
    return _unary(x, np.tanh, lambda g, y: g * (1.0 - y * y))


def exp(x) -> Tensor:
    return _unary(x, np.exp, lambda g, y: g * y)


def log(x) -> Tensor:
    (xv,) = _vals(x)
    if np.any(xv <= 0.0):
        raise DomainError("log: input must be strictly positive")
    return _op((x,), np.log(xv), lambda g: g / xv)


def clip(x, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes only where not clipped."""
    (xv,) = _vals(x)
    return _op((x,), np.clip(xv, lo, hi), lambda g: g * ((xv >= lo) & (xv <= hi)).astype(xv.dtype))


def softmax_rows(x) -> Tensor:
    """Row-wise softmax; each output row sums to 1."""
    (xv,) = _vals(x)
    shifted = xv - xv.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)
    return _op((x,), out, lambda g: out * (g - (g * out).sum(axis=1, keepdims=True)))


def sum_all(x) -> Tensor:
    (xv,) = _vals(x)
    return _op((x,), xv.sum().reshape(1, 1), lambda g: np.full_like(xv, g[0, 0]))


def sum_rows(x) -> Tensor:
    """Sum along each row -> column vector (r, 1)."""
    (xv,) = _vals(x)
    return _op((x,), xv.sum(axis=1, keepdims=True), lambda g: np.broadcast_to(g, xv.shape).copy())


def dot_rows(a, b) -> Tensor:
    """Per-row inner product of two equally shaped matrices -> (r, 1)."""
    av, bv = _vals(a, b)
    if av.shape != bv.shape:
        raise ShapeError(f"dot_rows: shapes {av.shape} vs {bv.shape}")
    return _op((a, b), (av * bv).sum(axis=1, keepdims=True), lambda g: g * bv, lambda g: g * av)


def row_normalize(x) -> Tensor:
    """Scale each row to unit L2 norm; all-zero rows stay zero (grad 0 there)."""
    (xv,) = _vals(x)
    norms = np.sqrt((xv * xv).sum(axis=1, keepdims=True))
    safe = np.where(norms > 0.0, norms, 1.0)
    out = xv / safe

    def vjp(g):
        nz = (norms > 0.0).astype(xv.dtype)
        return nz * (g - out * (g * out).sum(axis=1, keepdims=True)) / safe

    return _op((x,), out, vjp)


def group_pairs(x, y, groups: int, across: bool = False) -> Tensor:
    """Grouped inner products of two aspect-major (groups * b, d) arrays.

    Row ``a * b + i`` is entity i's row in block a. Within the blocks (the
    default) it meets every row of y's block a, giving (groups * b, b);
    across them it meets entity i's row in each of y's blocks, giving
    (groups * b, groups). One batched matmul over a 3-D view; the backward
    is the same grouped product with g.
    """
    xv, yv = _vals(x, y)
    rows, dim = xv.shape
    if yv.shape != xv.shape or groups < 1 or rows % groups:
        raise ShapeError(f"group_pairs: {xv.shape} x {yv.shape} in {groups} groups")
    batch = rows // groups

    def split(v):  # the matmul's stack axis: blocks within, entities across
        v3 = v.reshape(groups, batch, v.shape[1])
        return v3.transpose(1, 0, 2) if across else v3

    def join(v3):
        return (v3.transpose(1, 0, 2) if across else v3).reshape(rows, -1)

    x3, y3 = split(xv), split(yv)
    return _op((x, y), join(np.matmul(x3, y3.transpose(0, 2, 1))),
               lambda g: join(split(g) @ y3), lambda g: join(split(g).transpose(0, 2, 1) @ x3))


def slice_cols(x, j0: int, j1: int) -> Tensor:
    (xv,) = _vals(x)
    if not (0 <= j0 < j1 <= xv.shape[1]):
        raise ShapeError(f"slice_cols: [{j0}:{j1}] out of range for {xv.shape}")

    def vjp(g):
        gx = np.zeros_like(xv)
        gx[:, j0:j1] = g
        return gx

    return _op((x,), np.ascontiguousarray(xv[:, j0:j1]), vjp)


def concat_cols(parts: Sequence) -> Tensor:
    vals = _vals(*parts)
    rows = vals[0].shape[0]
    if any(v.shape[0] != rows for v in vals):
        raise ShapeError("concat_cols: row counts differ")
    offsets = np.cumsum([0] + [v.shape[1] for v in vals])
    return _op(parts, np.concatenate(vals, axis=1),
               *(lambda g, j0=j0, j1=j1: np.ascontiguousarray(g[:, j0:j1])
                 for j0, j1 in zip(offsets[:-1], offsets[1:])))


def scale(x, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    return mul(x, float(c))


# ---------------------------------------------------------------------------
# random numbers

def init_weights(rng: "RngState | None", rows: int, cols: int, std: float, dtype) -> np.ndarray:
    """i.i.d. normal weights of standard deviation ``std``; unset if no ``rng``."""
    return np.empty((rows, cols), dtype) if rng is None else rng.standard_normal(rows, cols, dtype) * std


class RngState:
    """Seedable PRNG stream (PCG64 behind numpy's Generator).

    The same seed and the same call sequence reproduce the same sample
    stream bit-for-bit; substreams derived via ``derive`` are independent
    and equally reproducible.
    """

    def __init__(self, seed: int, _spawn_key: tuple = ()):
        self.seed = int(seed)
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        self.spawn_key = tuple(_spawn_key)
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.spawn_key)
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def derive(self, *key: int) -> "RngState":
        """Independent child stream identified by an integer key path."""
        return RngState(self.seed, self.spawn_key + tuple(int(k) for k in key))

    def standard_normal(self, rows: int, cols: int, dtype=DEFAULT_DTYPE) -> np.ndarray:
        return self._gen.standard_normal((rows, cols)).astype(dtype, copy=False)

    def uniform(self, rows: int, cols: int, dtype=DEFAULT_DTYPE) -> np.ndarray:
        return self._gen.random((rows, cols)).astype(dtype, copy=False)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def integers(self, low: int, high: int, size: int) -> np.ndarray:
        return self._gen.integers(low, high, size=size)

    def choice(self, n: int, k: int, replace: bool = False) -> np.ndarray:
        return self._gen.choice(n, size=k, replace=replace)


def constant(x, dtype=None) -> Tensor:
    """Off-tape tensor; a float ndarray keeps its dtype unless one is given."""
    if dtype is None:
        dtype = x.dtype if isinstance(x, np.ndarray) and x.dtype.kind == "f" else DEFAULT_DTYPE
    return Tensor(_as_array(x, dtype))
