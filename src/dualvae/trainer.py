"""Alternating training of the two sides with Adam.

Each epoch runs a user phase (item state and C frozen) and an item phase
(user state and P frozen); aspect probabilities refresh only at phase
boundaries. Validation Recall@20 drives best-checkpoint retention and
patience-based early stopping. Checkpoints are a small self-describing
binary (magic, version, checksum, a JSON header, little-endian tensors)
that holds the split it was trained on, written atomically.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import struct
import zlib
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import contrast as nrc, evaluation, generation as gen, model as model_mod
from .data import DatasetSplit, InteractionMatrix, make_batches
from .errors import CheckpointError, ConfigError, ContractError, DataError, NumericError
from .model import ModelParams, Snapshot
from .tensor import ParamGroup, RngState, Tape

_ABLATIONS = ("no_add", "no_ud", "no_id", "no_nrc", "no_uns", "no_ans", "no_nps")


@dataclass
class TrainConfig:
    aspects: int = 4
    dim: int = 0  # 0 = derive from the 100-wide total embedding
    hidden: int = 64
    lr: float = 1e-3
    batch_size: int = 128
    epochs: int = 50
    gamma: float = 0.1
    tau: float = 0.2
    temp: float = 0.1
    beta: float = 1.0
    beta_anneal_epochs: int = 0
    patience: int = 10
    seed: int = 0
    dtype: str = "float64"
    input_dropout: float = 0.0
    normalize_input: bool = False
    ablate: tuple = ()  # names from _ABLATIONS

    TOTAL_EMBED = 100

    def validate(self) -> "TrainConfig":
        if self.aspects < 1:
            raise ConfigError("aspects must be >= 1")
        if self.dim == 0:
            if self.TOTAL_EMBED % self.aspects:
                raise ConfigError(
                    f"total embedding {self.TOTAL_EMBED} not divisible by {self.aspects} aspects; set dim explicitly"
                )
            self.dim = self.TOTAL_EMBED // self.aspects
        if self.dim < 1 or self.hidden < 1:
            raise ConfigError("dim and hidden must be positive")
        if not (1e-4 <= self.lr <= 1e-1):
            raise ConfigError(f"lr {self.lr} outside the searched range [1e-4, 1e-1]")
        if self.gamma != 0.0 and not (1e-5 <= self.gamma <= 1e-1):
            raise ConfigError(f"gamma {self.gamma} outside {{0}} U [1e-5, 1e-1]")
        if self.tau <= 0 or self.temp <= 0:
            raise ConfigError("tau and temp must be positive")
        if self.beta < 0 or self.beta_anneal_epochs < 0:
            raise ConfigError("beta and beta_anneal_epochs must be >= 0")
        if self.batch_size < 1 or self.epochs < 1 or self.patience < 0:
            raise ConfigError("batch_size/epochs must be >= 1, patience >= 0")
        if not (0.0 <= self.input_dropout < 1.0):
            raise ConfigError("input_dropout must lie in [0, 1)")
        if self.dtype not in ("float64", "float32"):
            raise ConfigError(f"dtype must be float64 or float32, got {self.dtype!r}")
        self.ablate = tuple(self.ablate)
        for name in self.ablate:
            if name not in _ABLATIONS:
                raise ConfigError(f"unknown ablation {name!r}; known: {', '.join(_ABLATIONS)}")
        return self

    def pinned(self, side: str) -> bool:
        """Whether ``side``'s aspect probabilities (P for "user", C for
        "item") stay uniform under the ablations."""
        return "no_add" in self.ablate or {"user": "no_ud", "item": "no_id"}[side] in self.ablate

    @property
    def effective_gamma(self) -> float:
        return 0.0 if "no_nrc" in self.ablate else self.gamma

    def beta_at(self, epoch: int) -> float:
        if self.beta_anneal_epochs <= 0:
            return self.beta
        return self.beta * min(1.0, epoch / self.beta_anneal_epochs)


class Adam:
    """Bias-corrected Adam over one parameter group's flat buffers, updated
    in place through two scratch buffers, so a step allocates nothing."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, group: ParamGroup, lr: float):
        self.group = group
        self.lr = lr
        self.step_count = 0
        self.m = np.zeros_like(group.value)
        self.v = np.zeros_like(group.value)
        self._s1 = np.empty_like(group.value)
        self._s2 = np.empty_like(group.value)

    def step(self):
        g = self.group.grad
        # the mask goes into the first bytes of a scratch buffer, which the
        # update overwrites; a refused step leaves everything as it was
        if not np.isfinite(g, out=self._s2.view(np.bool_)[:g.size]).all():
            bad = next(p.name for p in self.group if not np.isfinite(p.grad).all())
            raise NumericError(f"non-finite gradient for parameter {bad}")
        self.step_count += 1
        t = self.step_count
        m, v, s1, s2 = self.m, self.v, self._s1, self._s2
        # m = BETA1 * m + (1 - BETA1) * g; v = BETA2 * v + (1 - BETA2) * (g * g)
        np.multiply(m, self.BETA1, out=m)
        np.add(m, np.multiply(g, 1.0 - self.BETA1, out=s1), out=m)
        np.multiply(np.multiply(g, g, out=s1), 1.0 - self.BETA2, out=s1)
        np.add(np.multiply(v, self.BETA2, out=v), s1, out=v)
        # value -= lr * m_hat / (sqrt(v_hat) + EPS)
        np.multiply(np.divide(m, 1.0 - self.BETA1 ** t, out=s1), self.lr, out=s1)
        np.add(np.sqrt(np.divide(v, 1.0 - self.BETA2 ** t, out=s2), out=s2), self.EPS, out=s2)
        np.subtract(self.group.value, np.divide(s1, s2, out=s1), out=self.group.value)


@dataclass
class PhaseStats:
    loss: float
    recon: float
    kl: float
    contrast: float


def _assert_frozen_untouched(group: ParamGroup, phase: str):
    if np.any(group.grad):
        bad = next(p.name for p in group if np.any(p.grad))
        raise ContractError(f"frozen parameter {bad} accumulated gradient during {phase} phase")


def _encoder_rows(rows, cfg: TrainConfig, rng: RngState):
    """Optional input dropout / L2 row normalization of the encoder's CSR
    rows, with the values the dense slab would get; ``rows`` is untouched.

    Dropout draws one uniform per slab cell, zeros included, so the noise
    stream is that of the dense slab.
    """
    if cfg.input_dropout == 0.0 and not cfg.normalize_input:
        return rows
    rows = rows.copy()
    entry_row = np.repeat(np.arange(rows.shape[0]), np.diff(rows.indptr))
    if cfg.input_dropout > 0.0:
        keep = rng.uniform(*rows.shape)[entry_row, rows.indices] >= cfg.input_dropout
        rows.data = rows.data * keep / (1.0 - cfg.input_dropout)
    if cfg.normalize_input:
        norms = np.zeros(rows.shape[0], rows.dtype)
        np.add.at(norms, entry_row, rows.data * rows.data)
        rows.data /= np.sqrt(np.where(norms > 0, norms, 1.0))[entry_row]
    return rows


def batch_loss(rows, enc_rows, enc, dec, protos, frozen, cfg: TrainConfig, beta: float, eps,
               tape: "Tape | None"):
    """The batch objective training and ``gradcheck`` differentiate: the side's
    ELBO, plus the contrastive term if on. Returns (loss, terms, closs or None)."""
    terms, fwd = gen.side_loss(rows, enc_rows, enc, dec, protos, frozen, cfg.temp, beta, eps, tape)
    gamma = cfg.effective_gamma
    closs = None
    if gamma > 0.0:
        o = nrc.batch_neighborhood_reprs(rows, frozen)
        closs = nrc.batch_contrast(fwd.z, o, cfg, np.diff(rows.indptr) > 0)
    return nrc.total_loss(terms, closs, gamma), terms, closs


def train_phase(side: str, train: InteractionMatrix, params: ModelParams, snap: Snapshot,
                opt: Adam, cfg: TrainConfig, epoch: int, rng: RngState) -> PhaseStats:
    """One pass over one side's batches against the frozen other side."""
    enc, dec, protos, live_group = params.side(side)
    other = model_mod.OTHER_SIDE[side]
    frozen, frozen_group = snap.frozen(other), params.side(other)[3]
    if cfg.pinned(side):
        protos = None
    frozen_group.zero_grad()

    beta = cfg.beta_at(epoch)
    dtype = params.dtype
    noise_rng = rng.derive(epoch, 0 if side == "user" else 1)

    side_rows = train.rows(side)
    totals = np.zeros(4)
    n_batches = 0
    for batch in make_batches(len(side_rows), cfg.batch_size, cfg.seed, epoch):
        live_group.zero_grad()
        rows = side_rows.select(batch, dtype)
        enc_rows = _encoder_rows(rows, cfg, noise_rng)
        # aspect-major (A * b, d): the stream of A successive (b, d) draws
        eps = noise_rng.standard_normal(params.n_aspects * len(batch), params.dim, dtype)
        tape = Tape()
        loss, terms, closs = batch_loss(rows, enc_rows, enc, dec, protos, frozen, cfg, beta, eps,
                                        tape)
        if not np.isfinite(loss.item()):
            raise NumericError(f"non-finite loss in epoch {epoch}, {side} batch {n_batches}")
        tape.backward(loss)
        opt.step()
        totals += (
            loss.item(),
            terms.recon.item(),
            terms.kl.item(),
            closs.item() if closs is not None else 0.0,
        )
        n_batches += 1
        # free this batch's tape (and the forward arrays its vjps hold)
        # before the next batch's forward pass allocates its own
        del tape, terms, closs, loss

    _assert_frozen_untouched(frozen_group, side)
    totals /= max(n_batches, 1)
    return PhaseStats(*totals)


def train_epoch_pair(split: DatasetSplit, params: ModelParams, opt_u: Adam, opt_i: Adam,
                     snap: Snapshot, cfg: TrainConfig, epoch: int, rng: RngState):
    """User phase, mid refresh, item phase, trailing refresh.

    The snapshot handed in is the phase-boundary state from the previous
    epoch (or the uniform bootstrap); the returned one feeds validation and
    the next epoch.
    """
    pinned = [side for side in ("user", "item") if cfg.pinned(side)]
    user_stats = train_phase("user", split.train, params, snap, opt_u, cfg, epoch, rng)
    snap = model_mod.refresh(split.train, params, snap.C, snap.P, cfg.temp, pinned)
    item_stats = train_phase("item", split.train, params, snap, opt_i, cfg, epoch, rng)
    snap = model_mod.refresh(split.train, params, snap.C, snap.P, cfg.temp, pinned)
    return snap, user_stats, item_stats


@dataclass
class Checkpoint:
    config: TrainConfig
    epoch: int
    best_metric: float
    split: DatasetSplit  # the split the model was trained and validated on
    params: ModelParams
    snapshot: Snapshot


@dataclass
class FitResult:
    checkpoint: Checkpoint
    history: list = field(default_factory=list)
    stopped_epoch: int = 0
    valid_metrics: dict = field(default_factory=dict)  # the best epoch's, at ``fit``'s cutoffs


def _pin_heap() -> bool:
    """Hold the heap still: glibc serves blocks below 32 MiB (the top of its
    dynamic mmap threshold) from the heap and keeps up to 256 MiB of freed
    top, so a batch reuses the pages the previous batch's tape freed rather
    than faulting in pages glibc handed back. Setting the trim threshold
    alone would also stop glibc adapting the mmap threshold, so both are set.
    Idempotent; a no-op where libc has no ``mallopt``. True if glibc took both."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mmap_ok = mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
    trim_ok = mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD
    return mmap_ok == 1 and trim_ok == 1


def fit(split: DatasetSplit, cfg: TrainConfig, log_path=None, verbose: bool = False,
        cutoffs=(20,)) -> FitResult:
    """Full training run returning the best-validation checkpoint. Each
    epoch's validation ranks at ``cutoffs`` and 20, which selects the best."""
    _pin_heap()
    cfg.validate()
    train = split.train
    rng = RngState(cfg.seed)
    params = ModelParams(train.num_users, train.num_items, cfg.aspects, cfg.dim,
                         cfg.hidden, rng.derive(0), cfg.dtype)
    opt_u = Adam(params.user, cfg.lr)
    opt_i = Adam(params.item, cfg.lr)
    snap = model_mod.bootstrap(train, params)

    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None
    if log_fh:
        log_fh.write("epoch\tphase\tloss\trecon\tkl\tcontrast\tval_r20\n")

    # the best epoch's weights, as copies of the two flat buffers; its
    # snapshot is kept by reference, since refresh always builds new arrays
    best_epoch, best_user, best_item, best_snap, best_val = 0, None, None, None, {}
    best_metric = -np.inf
    since_improve = 0
    history = []
    stopped_epoch = 0
    try:
        for epoch in range(1, cfg.epochs + 1):
            snap, user_stats, item_stats = train_epoch_pair(
                split, params, opt_u, opt_i, snap, cfg, epoch, rng
            )
            val = evaluation.evaluate_ranking(params, snap, split, target="valid",
                                              cutoffs=tuple({20, *cutoffs}))
            r20 = val["recall@20"]
            metric = -1.0 if np.isnan(r20) else r20
            history.append({"epoch": epoch, "user": user_stats, "item": item_stats, "val_r20": r20})
            if log_fh:
                for phase, st in (("user", user_stats), ("item", item_stats)):
                    log_fh.write(f"{epoch}\t{phase}\t{st.loss:.6f}\t{st.recon:.6f}\t{st.kl:.6f}"
                                 f"\t{st.contrast:.6f}\t{r20:.6f}\n")
                log_fh.flush()
            if verbose:
                print(f"epoch {epoch}: user loss {user_stats.loss:.4f} "
                      f"item loss {item_stats.loss:.4f} val R@20 {r20:.4f}")

            if metric > best_metric:
                best_metric = metric
                since_improve = 0
                best_epoch, best_snap, best_val = epoch, snap, val
                best_user, best_item = params.user.value.copy(), params.item.value.copy()
            else:
                since_improve += 1
            stopped_epoch = epoch
            if since_improve >= cfg.patience:
                break
    finally:
        if log_fh:
            log_fh.close()
    params.user.value[...] = best_user
    params.item.value[...] = best_item
    best = Checkpoint(replace(cfg), best_epoch, float(best_metric), split, params, best_snap)
    return FitResult(best, history, stopped_epoch, best_val)


# ---------------------------------------------------------------------------
# checkpoint serialization

_MAGIC = b"DVCK"
_VERSION = 4
_PREAMBLE = struct.Struct("<4sIIQ")  # magic, version, crc32 of the payload, payload bytes
_DTYPES = ("<f8", "<f4", "<i4")
_SPLIT_PARTS = ("train", "valid", "test")


def _checkpoint_tensors(ckpt: Checkpoint) -> dict:
    out = {p.name: p.value for p in ckpt.params.all_params()}
    out.update({f"state.{f.name}": getattr(ckpt.snapshot, f.name) for f in fields(Snapshot)})
    for part in _SPLIT_PARTS:
        rows = getattr(ckpt.split, part).user_items
        out[f"split.{part}.indptr"] = rows.indptr.astype(np.int32)
        out[f"split.{part}.indices"] = rows.indices.astype(np.int32)
    return out


def _encode(ckpt: Checkpoint) -> list:
    """The payload as buffers: the JSON header's length and bytes, then the
    tensors' little-endian bytes in the order of the header's tensor table."""
    tensors = {name: np.ascontiguousarray(arr, arr.dtype.newbyteorder("<"))
               for name, arr in sorted(_checkpoint_tensors(ckpt).items())}
    header = {"config": asdict(ckpt.config), "epoch": ckpt.epoch, "best_metric": ckpt.best_metric,
              "source": ckpt.split.source, "user_ids": ckpt.split.train.user_ids,
              "item_ids": ckpt.split.train.item_ids,
              "tensors": {name: [arr.dtype.str, arr.shape] for name, arr in tensors.items()}}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    return [struct.pack("<I", len(blob)), blob, *(a.reshape(-1).view(np.uint8)
                                                  for a in tensors.values())]


def save_checkpoint(ckpt: Checkpoint, path):
    """Write ``ckpt`` to a temporary file next to ``path``, flush and fsync
    it, then rename it over ``path``: a reader finds the old file or the new
    one, never part of one."""
    pieces = _encode(ckpt)
    crc = 0
    for piece in pieces:
        crc = zlib.crc32(piece, crc)
    size = sum(memoryview(piece).nbytes for piece in pieces)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_PREAMBLE.pack(_MAGIC, _VERSION, crc, size))
            for piece in pieces:
                fh.write(piece)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read(path) -> "tuple[dict, dict]":
    """The JSON header and the named tensors of a checkpoint file whose
    magic, version, length and checksum all check out. Each tensor is read
    straight into its own array once the tensor table is known to fill the
    payload, and the checksum is compared before anything is returned."""
    try:
        fh = open(path, "rb")
    except OSError as e:
        raise CheckpointError(f"{path}: cannot open checkpoint ({e.strerror})") from e
    with fh:
        preamble = fh.read(_PREAMBLE.size)
        if preamble[:4] != _MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
        if len(preamble) < _PREAMBLE.size:
            raise CheckpointError(f"{path}: truncated checkpoint while reading the preamble")
        _, version, crc, size = _PREAMBLE.unpack(preamble)
        if version != _VERSION:
            raise CheckpointError(f"{path}: checkpoint version {version} cannot be read by this "
                                  f"build (version {_VERSION}); retrain to get a readable one")
        stored = os.fstat(fh.fileno()).st_size - _PREAMBLE.size
        if stored != size:
            state = "truncated" if stored < size else "trailing bytes in"
            raise CheckpointError(f"{path}: {state} checkpoint ({stored} payload bytes, "
                                  f"{size} expected)")
        try:
            head = fh.read(4)
            (blob_len,) = struct.unpack("<I", head)
            blob = fh.read(min(blob_len, size - 4))
            header = json.loads(blob)
            table = header["tensors"]
            if any(dt not in _DTYPES or min(shape, default=0) < 0 for dt, shape in table.values()):
                raise ValueError("a tensor of unknown type or negative size")
            if 4 + blob_len + sum(np.dtype(dt).itemsize * math.prod(shape)
                                  for dt, shape in table.values()) != size:
                raise ValueError("the tensor table does not fill the payload")
            tensors = {name: np.empty(shape, dt) for name, (dt, shape) in table.items()}
            seen = zlib.crc32(blob, zlib.crc32(head))
            for arr in tensors.values():
                fh.readinto(arr)
                seen = zlib.crc32(arr, seen)
        except (AttributeError, KeyError, TypeError, ValueError, struct.error) as e:
            raise CheckpointError(f"{path}: malformed payload ({e!r})") from e
    if seen != crc:
        raise CheckpointError(f"{path}: checksum mismatch; the checkpoint is corrupted")
    return header, tensors


def load_checkpoint(path, dtype: "str | None" = None) -> Checkpoint:
    """Read a checkpoint; ``dtype='float64'`` widens float32 tensors on load."""
    header, tensors = _read(path)
    missing = sorted({"config", "epoch", "best_metric", "source", "user_ids", "item_ids"}
                     - set(header))
    if missing:
        raise CheckpointError(f"{path}: header lacks {missing}")
    if not isinstance(header["source"], dict):
        raise CheckpointError(f"{path}: the split record is not a JSON object")

    try:
        cfg = TrainConfig(**header["config"]).validate()
    except (ConfigError, TypeError) as e:  # TypeError: a key TrainConfig lacks
        raise CheckpointError(f"{path}: invalid stored config ({e})") from e
    if dtype is not None:
        if np.dtype(dtype) not in (np.dtype(cfg.dtype), np.dtype(np.float64)):
            raise CheckpointError("only float32 -> float64 widening is supported")
        cfg.dtype = np.dtype(dtype).name
    tensors = {k: v.astype(cfg.dtype if v.dtype.kind == "f" else np.int64, copy=False)
               for k, v in tensors.items()}

    user_ids, item_ids = header["user_ids"], header["item_ids"]
    m, n, A, d = len(user_ids), len(item_ids), cfg.aspects, cfg.dim
    params = ModelParams(m, n, A, d, cfg.hidden, None, cfg.dtype)
    shapes = {p.name: p.value.shape for p in params.all_params()}
    shapes.update({"state.C": (n, A), "state.P": (m, A),
                   "state.user_codes": (A, m, 2 * d), "state.item_codes": (A, n, 2 * d)})
    for part in _SPLIT_PARTS:  # indices: one entry per pair
        shapes.update({f"split.{part}.indptr": (m + 1,), f"split.{part}.indices": None})
    for name, shape in shapes.items():
        if name not in tensors:
            raise CheckpointError(f"{path}: missing tensor {name}")
        if shape is not None and tensors[name].shape != shape:
            raise CheckpointError(f"{path}: tensor {name} has shape {tensors[name].shape}, "
                                  f"expected {shape}")
    for p in params.all_params():  # the grads stay the zeros ModelParams made
        p.value[...] = tensors[p.name]
    snap = Snapshot(**{f.name: tensors[f"state.{f.name}"] for f in fields(Snapshot)})

    def part(name):
        indptr, indices = tensors[f"split.{name}.indptr"], tensors[f"split.{name}.indices"]
        try:
            if indices.ndim != 1 or indptr[0] != 0 or indptr[-1] != len(indices):
                raise DataError("not a CSR pair set")
            return InteractionMatrix(m, n, np.repeat(np.arange(m), np.diff(indptr)), indices,
                                     user_ids, item_ids)
        except (DataError, ValueError) as e:  # np.repeat refuses a decreasing indptr
            raise CheckpointError(f"{path}: split.{name}: {e}") from e

    split = DatasetSplit(*map(part, _SPLIT_PARTS), header["source"])
    return Checkpoint(cfg, header["epoch"], header["best_metric"], split, params, snap)
