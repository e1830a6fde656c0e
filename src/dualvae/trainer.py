"""Alternating training of the two sides with Adam.

Each epoch runs a user phase (item state and C frozen) and an item phase
(user state and P frozen); aspect probabilities refresh only at phase
boundaries. Validation Recall@20 drives best-checkpoint retention and
patience-based early stopping. Checkpoints are a small self-describing
binary: magic, version, a JSON config block, then named little-endian
tensors.
"""

from __future__ import annotations

import copy
import json
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import contrast as nrc, evaluation, generation as gen, model as model_mod
from .data import DatasetSplit, InteractionMatrix
from .errors import CheckpointError, ConfigError, ContractError, NumericError
from .model import ModelParams, Snapshot
from .tensor import RngState, Tape

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
    deterministic: bool = False
    input_dropout: float = 0.0
    normalize_input: bool = False
    no_add: bool = False
    no_ud: bool = False
    no_id: bool = False
    no_nrc: bool = False
    no_uns: bool = False
    no_ans: bool = False
    no_nps: bool = False

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
        if self.batch_size < 1 or self.epochs < 1 or self.patience < 0:
            raise ConfigError("batch_size/epochs must be >= 1, patience >= 0")
        if not (0.0 <= self.input_dropout < 1.0):
            raise ConfigError("input_dropout must lie in [0, 1)")
        if self.dtype not in ("float64", "float32"):
            raise ConfigError(f"dtype must be float64 or float32, got {self.dtype!r}")
        return self

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32

    @property
    def pin_c(self) -> bool:
        return self.no_add or self.no_id

    @property
    def pin_p(self) -> bool:
        return self.no_add or self.no_ud

    @property
    def effective_gamma(self) -> float:
        return 0.0 if self.no_nrc else self.gamma

    def contrast_config(self) -> nrc.ContrastConfig:
        return nrc.ContrastConfig(
            tau=self.tau,
            gamma=self.effective_gamma,
            use_user_negs=not self.no_uns,
            use_aspect_negs=not self.no_ans,
            use_neighbor_pos=not self.no_nps,
        )

    def beta_at(self, epoch: int) -> float:
        if self.beta_anneal_epochs <= 0:
            return self.beta
        return self.beta * min(1.0, epoch / self.beta_anneal_epochs)

    def apply_ablations(self, names) -> "TrainConfig":
        for name in names:
            if name not in _ABLATIONS:
                raise ConfigError(f"unknown ablation {name!r}; known: {', '.join(_ABLATIONS)}")
            setattr(self, name, True)
        return self


class Adam:
    """Bias-corrected Adam over a fixed parameter group."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: list, lr: float):
        self.params = params
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]

    def step(self):
        self.step_count += 1
        t = self.step_count
        for k, p in enumerate(self.params):
            g = p.grad
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient for parameter {p.name}")
            self.m[k] = self.BETA1 * self.m[k] + (1.0 - self.BETA1) * g
            self.v[k] = self.BETA2 * self.v[k] + (1.0 - self.BETA2) * (g * g)
            m_hat = self.m[k] / (1.0 - self.BETA1 ** t)
            v_hat = self.v[k] / (1.0 - self.BETA2 ** t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)


@dataclass
class PhaseStats:
    loss: float
    recon: float
    kl: float
    contrast: float


def _zero_all(params: ModelParams):
    for p in params.all_params():
        p.zero_grad()


def _assert_frozen_untouched(group, phase: str):
    for p in group:
        if np.any(p.grad != 0.0):
            raise ContractError(f"frozen parameter {p.name} accumulated gradient during {phase} phase")


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


def train_phase(side: str, train: InteractionMatrix, params: ModelParams, snap: Snapshot,
                opt: Adam, cfg: TrainConfig, epoch: int, rng: RngState) -> PhaseStats:
    """One pass over one side's batches against the frozen other side."""
    from .data import make_batches

    if side == "user":
        frozen = snap.frozen_items()
        enc, dec = params.enc_u, params.dec_u
        protos = None if cfg.pin_p else params.protos.user_protos
        live_group, frozen_group = params.user_group(), params.item_group()
    else:
        frozen = snap.frozen_users()
        enc, dec = params.enc_i, params.dec_i
        protos = None if cfg.pin_c else params.protos.item_protos
        live_group, frozen_group = params.item_group(), params.user_group()

    ccfg = cfg.contrast_config()
    gamma = cfg.effective_gamma
    beta = cfg.beta_at(epoch)
    dtype = cfg.np_dtype
    noise_rng = rng.derive(epoch, 0 if side == "user" else 1)

    totals = np.zeros(4)
    n_batches = 0
    for batch in make_batches(train, side, cfg.batch_size, cfg.seed, epoch):
        for p in live_group:
            p.zero_grad()
        slab = batch.dense(dtype)
        rows = batch.sparse(dtype)
        enc_rows = _encoder_rows(rows, cfg, noise_rng)
        eps_list = [
            noise_rng.standard_normal(len(batch.indices), params.dim, dtype)
            for _ in range(params.n_aspects)
        ]
        tape = Tape()
        terms, fwd = gen.side_loss(
            slab, enc_rows, enc, dec, protos, frozen, cfg.temp, beta, eps_list, tape
        )
        closs = None
        if gamma > 0.0:
            o = nrc.batch_neighborhood_reprs(rows, frozen.probs, frozen.means)
            participate = np.diff(rows.indptr) > 0
            closs = nrc.batch_contrast(fwd.z, o, ccfg, participate)
        loss = nrc.total_loss(terms, closs, gamma)
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
    _zero_all(params)
    user_stats = train_phase("user", split.train, params, snap, opt_u, cfg, epoch, rng)
    snap = model_mod.refresh(split.train, params, snap.C, snap.P, cfg.temp,
                             cfg.pin_c, cfg.pin_p, dtype=cfg.np_dtype)
    _zero_all(params)
    item_stats = train_phase("item", split.train, params, snap, opt_i, cfg, epoch, rng)
    snap = model_mod.refresh(split.train, params, snap.C, snap.P, cfg.temp,
                             cfg.pin_c, cfg.pin_p, dtype=cfg.np_dtype)
    return snap, user_stats, item_stats


@dataclass
class Checkpoint:
    config: TrainConfig
    epoch: int
    best_metric: float
    rng_state: dict
    dataset: dict
    params: ModelParams
    snapshot: Snapshot


@dataclass
class FitResult:
    checkpoint: Checkpoint
    history: list = field(default_factory=list)
    stopped_epoch: int = 0


def fit(split: DatasetSplit, cfg: TrainConfig, log_path=None, verbose: bool = False) -> FitResult:
    """Full training run returning the best-validation checkpoint."""
    cfg.validate()
    dtype = cfg.np_dtype
    train = split.train
    rng = RngState(cfg.seed)
    params = ModelParams(train.num_users, train.num_items, cfg.aspects, cfg.dim,
                         cfg.hidden, rng.derive(0), dtype)
    opt_u = Adam(params.user_group(), cfg.lr)
    opt_i = Adam(params.item_group(), cfg.lr)
    snap = model_mod.bootstrap(train, params, cfg.temp, cfg.pin_c, cfg.pin_p, dtype)

    dataset_info = {
        "digest": train.digest(),
        "num_users": train.num_users,
        "num_items": train.num_items,
        "nnz": train.nnz,
    }

    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None
    if log_fh:
        log_fh.write("epoch\tphase\tloss\trecon\tkl\tcontrast\tval_r20\n")

    best: Checkpoint | None = None
    best_metric = -np.inf
    since_improve = 0
    history = []
    stopped_epoch = 0
    try:
        for epoch in range(1, cfg.epochs + 1):
            snap, user_stats, item_stats = train_epoch_pair(
                split, params, opt_u, opt_i, snap, cfg, epoch, rng
            )
            val = evaluation.evaluate_ranking(params, snap, split, target="valid", cutoffs=(20,))
            r20 = val["recall@20"]
            metric = -1.0 if np.isnan(r20) else r20
            history.append({"epoch": epoch, "user": user_stats, "item": item_stats, "val_r20": r20})
            if log_fh:
                for phase, st in (("user", user_stats), ("item", item_stats)):
                    log_fh.write(
                        f"{epoch}\t{phase}\t{st.loss:.6f}\t{st.recon:.6f}\t{st.kl:.6f}"
                        f"\t{st.contrast:.6f}\t{r20 if not np.isnan(r20) else float('nan'):.6f}\n"
                    )
                log_fh.flush()
            if verbose:
                print(f"epoch {epoch}: user loss {user_stats.loss:.4f} "
                      f"item loss {item_stats.loss:.4f} val R@20 {r20:.4f}")

            if metric > best_metric:
                best_metric = metric
                since_improve = 0
                best = Checkpoint(
                    config=copy.deepcopy(cfg),
                    epoch=epoch,
                    best_metric=float(metric),
                    rng_state=rng.state_dict(),
                    dataset=dict(dataset_info),
                    params=copy.deepcopy(params),
                    snapshot=Snapshot(
                        snap.C.copy(), snap.P.copy(),
                        snap.user_means.copy(), snap.user_decoded.copy(),
                        snap.item_means.copy(), snap.item_decoded.copy(),
                    ),
                )
            else:
                since_improve += 1
            stopped_epoch = epoch
            if since_improve >= cfg.patience:
                break
    finally:
        if log_fh:
            log_fh.close()
    assert best is not None
    return FitResult(best, history, stopped_epoch)


# ---------------------------------------------------------------------------
# checkpoint serialization

_MAGIC = b"DVCK"
_VERSION = 1
_DTYPE_CODES = {"float64": 0, "float32": 1}
_CODE_DTYPES = {0: np.float64, 1: np.float32}


def _checkpoint_tensors(ckpt: Checkpoint) -> dict:
    out = {p.name: p.value for p in ckpt.params.all_params()}
    snap = ckpt.snapshot
    out.update({
        "state.C": snap.C, "state.P": snap.P,
        "state.user_means": snap.user_means, "state.user_decoded": snap.user_decoded,
        "state.item_means": snap.item_means, "state.item_decoded": snap.item_decoded,
    })
    return out


def save_checkpoint(ckpt: Checkpoint, path):
    tensors = _checkpoint_tensors(ckpt)
    header = {
        "config": asdict(ckpt.config),
        "epoch": ckpt.epoch,
        "best_metric": ckpt.best_metric,
        "rng": ckpt.rng_state,
        "dataset": ckpt.dataset,
        "tensors": sorted(tensors),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name])
            nb = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", _DTYPE_CODES[arr.dtype.name]))
            fh.write(struct.pack("<B", arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<I", d))
            fh.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())


def _read_exact(fh, n, what):
    buf = fh.read(n)
    if len(buf) != n:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return buf


def load_checkpoint(path, dtype: "str | None" = None) -> Checkpoint:
    """Read a checkpoint; ``dtype='float64'`` widens float32 tensors on load."""
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != _MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != _VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        (blob_len,) = struct.unpack("<I", _read_exact(fh, 4, "header length"))
        try:
            header = json.loads(_read_exact(fh, blob_len, "header"))
        except json.JSONDecodeError as e:
            raise CheckpointError(f"{path}: corrupt header ({e})") from e
        tensors = {}
        for _ in header["tensors"]:
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, "tensor name length"))
            name = _read_exact(fh, name_len, "tensor name").decode("utf-8")
            (code,) = struct.unpack("<B", _read_exact(fh, 1, "dtype"))
            if code not in _CODE_DTYPES:
                raise CheckpointError(f"{path}: unknown dtype code {code}")
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1, "ndim"))
            shape = tuple(
                struct.unpack("<I", _read_exact(fh, 4, "dim"))[0] for _ in range(ndim)
            )
            arr_dtype = _CODE_DTYPES[code]
            nbytes = int(np.prod(shape)) * np.dtype(arr_dtype).itemsize
            arr = np.frombuffer(_read_exact(fh, nbytes, f"tensor {name}"), dtype=arr_dtype)
            tensors[name] = arr.reshape(shape).copy()

    cfg_fields = {f.name for f in fields(TrainConfig)}
    stored_cfg = header["config"]
    unknown = set(stored_cfg) - cfg_fields
    if unknown:
        raise CheckpointError(f"{path}: unknown config keys {sorted(unknown)}")
    cfg = TrainConfig(**stored_cfg)

    target_dtype = np.dtype(dtype or cfg.dtype)
    if target_dtype == np.float64 and cfg.dtype == "float32":
        tensors = {k: v.astype(np.float64) for k, v in tensors.items()}
        cfg.dtype = "float64"
    elif dtype is not None and np.dtype(dtype) != np.dtype(cfg.dtype):
        raise CheckpointError("only float32 -> float64 widening is supported")

    ds = header["dataset"]
    params = ModelParams(ds["num_users"], ds["num_items"], cfg.aspects, cfg.dim,
                         cfg.hidden, RngState(0), cfg.np_dtype)
    for p in params.all_params():
        if p.name not in tensors:
            raise CheckpointError(f"{path}: missing tensor {p.name}")
        if tensors[p.name].shape != p.value.shape:
            raise CheckpointError(f"{path}: tensor {p.name} has shape {tensors[p.name].shape}, "
                                  f"expected {p.value.shape}")
        p.value = tensors[p.name]
        p.grad = np.zeros_like(p.value)
    snap = Snapshot(
        tensors["state.C"], tensors["state.P"],
        tensors["state.user_means"], tensors["state.user_decoded"],
        tensors["state.item_means"], tensors["state.item_decoded"],
    )
    return Checkpoint(cfg, header["epoch"], header["best_metric"], header["rng"],
                      ds, params, snap)
