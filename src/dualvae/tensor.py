"""Dense 2-D tensors with tape-recorded reverse-mode differentiation.

The operation vocabulary is fixed on purpose: it covers exactly what the
dual-VAE computation graph needs (affine maps, one of them from constant
sparse rows, pointwise nonlinearities, row softmax, row reductions, row
normalisation, grouped inner products of aspect-major arrays) and nothing
else, which keeps every backward rule small enough to audit by hand. One
fused op lives with the model instead:
``generation.poisson_loglik``, recorded through the same ``_emit`` and
bound by the same ``_live`` rule.

Conventions:
  * every value on the tape is a 2-D ``float64`` (or ``float32``) array;
    scalars are ``(1, 1)``, row vectors ``(1, c)``, column vectors ``(r, 1)``
  * constants (plain arrays / floats) are never recorded; an op whose inputs
    are all constants returns a constant, so evaluation-mode code reuses the
    training code path with no tape attached
  * broadcasting in ``add``/``sub``/``mul`` is restricted to scalar-vs-matrix,
    row-vs-matrix and column-vs-matrix
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

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class _Node:
    __slots__ = ("value", "parents", "vjp", "param")

    def __init__(self, value, parents, vjp, param=None):
        self.value = value
        self.parents = parents  # tuple of parent node ids
        self.vjp = vjp  # callable(out_grad) -> tuple of parent grads
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

    def _record(self, value, parents=(), vjp=None, param=None) -> Tensor:
        self.nodes.append(_Node(value, parents, vjp, param))
        return Tensor(value, self, len(self.nodes) - 1)

    def leaf(self, param: Parameter) -> Tensor:
        """Put a parameter on the tape; its gradient lands in ``param.grad``."""
        return self._record(param.value, (), None, param)

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
            if node.vjp is not None:
                for pid, pg in zip(node.parents, node.vjp(g)):
                    # accumulation always allocates, so sharing g itself is safe
                    if grads[pid] is None:
                        grads[pid] = pg
                    else:
                        grads[pid] = grads[pid] + pg
            elif node.param is not None:
                node.param.grad += g
        self.grads = grads


# ---------------------------------------------------------------------------
# op plumbing

def _tape_of(*xs) -> "Tape | None":
    tape = None
    for x in xs:
        if isinstance(x, Tensor) and x.tape is not None:
            if tape is None:
                tape = x.tape
            elif tape is not x.tape:
                raise ContractError("operands recorded on different tapes")
    return tape


def _val(x, dtype) -> np.ndarray:
    if isinstance(x, Tensor):
        return x.value
    return _as_array(x, dtype)


def _dtype_of(*xs):
    for x in xs:
        if isinstance(x, (Tensor, np.ndarray)):
            return x.dtype
    return DEFAULT_DTYPE


def _emit(tape, value, parents, vjp) -> Tensor:
    if tape is None:
        return Tensor(value)
    ids = tuple(p.nid for p in parents)
    return tape._record(value, ids, vjp)


def _live(tape, *xs):
    """Parents that are recorded on the tape, in input order, with positions.

    Backward closures must capture only the positions (plus plain arrays),
    never the Tensor handles themselves: a captured Tensor would close a
    reference cycle tape -> node -> closure -> tensor -> tape, keeping every
    batch's forward arrays alive until a full garbage collection.
    """
    out = []
    for i, x in enumerate(xs):
        if isinstance(x, Tensor) and x.tape is tape and tape is not None:
            out.append((i, x))
    return out


# ---------------------------------------------------------------------------
# broadcasting helpers for add / sub / mul

def _broadcast_kind(shape, out_shape):
    """How ``shape`` broadcasts against ``out_shape``; None if unsupported."""
    if shape == out_shape:
        return "same"
    if shape == (1, 1):
        return "scalar"
    if shape == (1, out_shape[1]):
        return "row"
    if shape == (out_shape[0], 1):
        return "col"
    return None


def _reduce_to(g: np.ndarray, kind: str) -> np.ndarray:
    if kind == "same":
        return g
    if kind == "scalar":
        return g.sum().reshape(1, 1)
    if kind == "row":
        return g.sum(axis=0, keepdims=True)
    return g.sum(axis=1, keepdims=True)  # col


def _ew_shapes(a: np.ndarray, b: np.ndarray, opname: str):
    ra, rb = a.shape, b.shape
    out = (max(ra[0], rb[0]), max(ra[1], rb[1]))
    ka, kb = _broadcast_kind(ra, out), _broadcast_kind(rb, out)
    if ka is None or kb is None:
        raise ShapeError(f"{opname}: cannot broadcast {ra} with {rb}")
    return out, ka, kb


def _ew(op_fn, da_fn, db_fn, a, b, opname):
    tape = _tape_of(a, b)
    dtype = _dtype_of(a, b)
    av, bv = _val(a, dtype), _val(b, dtype)
    _, ka, kb = _ew_shapes(av, bv, opname)
    out = op_fn(av, bv)
    live = _live(tape, a, b)
    if not live:
        return Tensor(out)
    positions = tuple(pos for pos, _ in live)

    def vjp(g):
        parts = []
        for pos in positions:
            if pos == 0:
                parts.append(_reduce_to(da_fn(g, av, bv), ka))
            else:
                parts.append(_reduce_to(db_fn(g, av, bv), kb))
        return parts

    return _emit(tape, out, [t for _, t in live], vjp)


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
    tape = _tape_of(a, b)
    dtype = _dtype_of(a, b)
    av, bv = _val(a, dtype), _val(b, dtype)
    if av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul: inner dims {av.shape} x {bv.shape}")
    out = av @ bv
    live = _live(tape, a, b)
    if not live:
        return Tensor(out)
    positions = tuple(pos for pos, _ in live)

    def vjp(g):
        return [g @ bv.T if pos == 0 else av.T @ g for pos in positions]

    return _emit(tape, out, [t for _, t in live], vjp)


def sparse_matmul(s, b) -> Tensor:
    """Constant sparse matrix (scipy CSR) times a tensor; backward is s.T @ g.

    Costs O(nnz * cols) rather than O(rows * inner * cols), which is what a
    batch of sparse interaction rows needs in a first dense layer.
    """
    tape = _tape_of(b)
    bv = _val(b, s.dtype)
    if s.shape[1] != bv.shape[0]:
        raise ShapeError(f"sparse_matmul: inner dims {s.shape} x {bv.shape}")
    out = s @ bv
    if tape is None:
        return Tensor(out)
    st = s.T
    return _emit(tape, out, [b], lambda g: (st @ g,))


def transpose(x) -> Tensor:
    tape = _tape_of(x)
    xv = _val(x, _dtype_of(x))
    out = np.ascontiguousarray(xv.T)
    if tape is None:
        return Tensor(out)
    return _emit(tape, out, [x], lambda g: (np.ascontiguousarray(g.T),))


def reshape(x, rows: int, cols: int) -> Tensor:
    """The same values in C order as a (rows, cols) matrix."""
    tape = _tape_of(x)
    xv = _val(x, _dtype_of(x))
    if xv.size != rows * cols:
        raise ShapeError(f"reshape: {xv.shape} cannot become ({rows}, {cols})")
    out = xv.reshape(rows, cols)
    if tape is None:
        return Tensor(out)
    return _emit(tape, out, [x], lambda g: (g.reshape(xv.shape),))


def _unary(x, f, df_from_out):
    """Pointwise op saving only what backward needs (the output)."""
    tape = _tape_of(x)
    xv = _val(x, _dtype_of(x))
    out = f(xv)
    if tape is None:
        return Tensor(out)
    return _emit(tape, out, [x], lambda g: (df_from_out(g, out),))


def _logistic(v: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
    """1 / (1 + exp(-v)), computed in one fresh array, or in ``out`` (which
    may be ``v`` itself)."""
    # exp(-v) overflows to inf, so the formula gives 0, where the logistic is
    # still subnormal (float64 below -709.8, float32 below -88.7); below -40
    # it equals exp(v) in both
    tail = v < -40.0
    low = np.exp(v[tail]) if tail.any() else None
    out = np.negative(v, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    if low is not None:
        out[tail] = low
    return out


def tanh(x) -> Tensor:
    return _unary(x, np.tanh, lambda g, y: g * (1.0 - y * y))


def exp(x) -> Tensor:
    return _unary(x, np.exp, lambda g, y: g * y)


def log(x) -> Tensor:
    xv = _val(x, _dtype_of(x))
    if np.any(xv <= 0.0):
        raise DomainError("log: input must be strictly positive")
    tape = _tape_of(x)
    out = np.log(xv)
    if tape is None:
        return Tensor(out)
    return _emit(tape, out, [x], lambda g: (g / xv,))


def clip(x, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes only where not clipped."""
    tape = _tape_of(x)
    xv = _val(x, _dtype_of(x))
    out = np.clip(xv, lo, hi)
    if tape is None:
        return Tensor(out)
    mask = ((xv >= lo) & (xv <= hi)).astype(xv.dtype)
    return _emit(tape, out, [x], lambda g: (g * mask,))


def softmax_rows(x) -> Tensor:
    """Row-wise softmax; each output row sums to 1."""
    tape = _tape_of(x)
    xv = _val(x, _dtype_of(x))
    shifted = xv - xv.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)
    if tape is None:
        return Tensor(out)

    def vjp(g):
        return (out * (g - (g * out).sum(axis=1, keepdims=True)),)

    return _emit(tape, out, [x], vjp)


def sum_all(x) -> Tensor:
    tape = _tape_of(x)
    xv = _val(x, _dtype_of(x))
    out = xv.sum().reshape(1, 1)
    if tape is None:
        return Tensor(out)
    return _emit(tape, out, [x], lambda g: (np.full_like(xv, g[0, 0]),))


def sum_rows(x) -> Tensor:
    """Sum along each row -> column vector (r, 1)."""
    tape = _tape_of(x)
    xv = _val(x, _dtype_of(x))
    out = xv.sum(axis=1, keepdims=True)
    if tape is None:
        return Tensor(out)
    return _emit(tape, out, [x], lambda g: (np.broadcast_to(g, xv.shape).copy(),))


def dot_rows(a, b) -> Tensor:
    """Per-row inner product of two equally shaped matrices -> (r, 1)."""
    tape = _tape_of(a, b)
    dtype = _dtype_of(a, b)
    av, bv = _val(a, dtype), _val(b, dtype)
    if av.shape != bv.shape:
        raise ShapeError(f"dot_rows: shapes {av.shape} vs {bv.shape}")
    out = (av * bv).sum(axis=1, keepdims=True)
    live = _live(tape, a, b)
    if not live:
        return Tensor(out)
    positions = tuple(pos for pos, _ in live)

    def vjp(g):
        return [g * bv if pos == 0 else g * av for pos in positions]

    return _emit(tape, out, [t for _, t in live], vjp)


def row_normalize(x) -> Tensor:
    """Scale each row to unit L2 norm; all-zero rows stay zero (grad 0 there)."""
    tape = _tape_of(x)
    xv = _val(x, _dtype_of(x))
    norms = np.sqrt((xv * xv).sum(axis=1, keepdims=True))
    safe = np.where(norms > 0.0, norms, 1.0)
    out = xv / safe
    if tape is None:
        return Tensor(out)
    nz = (norms > 0.0).astype(xv.dtype)

    def vjp(g):
        return (nz * (g - out * (g * out).sum(axis=1, keepdims=True)) / safe,)

    return _emit(tape, out, [x], vjp)


def group_pairs(x, y, groups: int, across: bool = False) -> Tensor:
    """Grouped inner products of two aspect-major (groups * b, d) arrays.

    Row ``a * b + i`` is entity i's row in block a. Within the blocks (the
    default) it meets every row of y's block a, giving (groups * b, b);
    across them it meets entity i's row in each of y's blocks, giving
    (groups * b, groups). One batched matmul over a 3-D view; the backward
    is the same grouped product with g.
    """
    tape = _tape_of(x, y)
    dtype = _dtype_of(x, y)
    xv, yv = _val(x, dtype), _val(y, dtype)
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
    out = join(np.matmul(x3, y3.transpose(0, 2, 1)))
    live = _live(tape, x, y)
    if not live:
        return Tensor(out)
    positions = tuple(pos for pos, _ in live)

    def vjp(g):
        g3 = split(g)
        return [join(g3 @ y3) if pos == 0 else join(g3.transpose(0, 2, 1) @ x3)
                for pos in positions]

    return _emit(tape, out, [t for _, t in live], vjp)


def slice_cols(x, j0: int, j1: int) -> Tensor:
    tape = _tape_of(x)
    xv = _val(x, _dtype_of(x))
    if not (0 <= j0 < j1 <= xv.shape[1]):
        raise ShapeError(f"slice_cols: [{j0}:{j1}] out of range for {xv.shape}")
    out = np.ascontiguousarray(xv[:, j0:j1])
    if tape is None:
        return Tensor(out)

    def vjp(g):
        gx = np.zeros_like(xv)
        gx[:, j0:j1] = g
        return (gx,)

    return _emit(tape, out, [x], vjp)


def concat_cols(parts: Sequence) -> Tensor:
    tape = _tape_of(*parts)
    dtype = _dtype_of(*parts)
    vals = [_val(p, dtype) for p in parts]
    rows = vals[0].shape[0]
    if any(v.shape[0] != rows for v in vals):
        raise ShapeError("concat_cols: row counts differ")
    out = np.concatenate(vals, axis=1)
    live = _live(tape, *parts)
    if not live:
        return Tensor(out)
    offsets = np.cumsum([0] + [v.shape[1] for v in vals])
    positions = tuple(pos for pos, _ in live)

    def vjp(g):
        return [np.ascontiguousarray(g[:, offsets[pos]:offsets[pos + 1]]) for pos in positions]

    return _emit(tape, out, [t for _, t in live], vjp)


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
