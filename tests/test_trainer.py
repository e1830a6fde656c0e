import hashlib
import json
import math
import platform
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from dualvae import data, evaluation, synth, trainer
from dualvae.errors import CheckpointError, ConfigError, ContractError, NumericError
from dualvae.tensor import Parameter, ParamGroup, RngState

from helpers import LoopAdam, from_dense, pairs, recall_at_n


def small_cfg(**kw):
    base = dict(aspects=2, dim=4, hidden=8, lr=1e-2, batch_size=16, epochs=3,
                gamma=0.1, temp=0.5, patience=10, seed=0)
    base.update(kw)
    return trainer.TrainConfig(**base).validate()


def small_split(seed=0, m=30, n=24):
    matrix, _ = synth.generate(m, n, 2, density=0.15, seed=seed)
    return data.split(matrix, 0.8, 0.1, seed=seed)


# ---------------------------------------------------------------------------
# config

def test_dim_derived_from_total_embedding():
    cfg = trainer.TrainConfig(aspects=4).validate()
    assert cfg.dim == 25
    with pytest.raises(ConfigError):
        trainer.TrainConfig(aspects=3).validate()  # 100 not divisible


def test_config_rejects_out_of_grid_values():
    with pytest.raises(ConfigError):
        small_cfg(lr=0.5)
    with pytest.raises(ConfigError):
        small_cfg(gamma=0.5)
    small_cfg(gamma=0.0)  # ablation value is allowed
    with pytest.raises(ConfigError, match="beta"):
        small_cfg(beta=-5.0)  # a negative KL weight would reward the KL term
    with pytest.raises(ConfigError, match="beta"):
        small_cfg(beta_anneal_epochs=-1)


def test_ablation_flags():
    cfg = small_cfg(ablate=("no_nrc", "no_add"))
    assert cfg.effective_gamma == 0.0
    assert cfg.pinned("user") and cfg.pinned("item")
    with pytest.raises(ConfigError):
        small_cfg(ablate=("bogus",))


def test_beta_annealing_schedule():
    cfg = small_cfg(beta_anneal_epochs=4, beta=1.0)
    assert cfg.beta_at(1) == 0.25
    assert cfg.beta_at(4) == 1.0
    assert cfg.beta_at(9) == 1.0
    assert small_cfg().beta_at(1) == 1.0


# ---------------------------------------------------------------------------
# adam

def test_adam_zero_gradient_keeps_params():
    p = Parameter("p", np.array([[1.0, -2.0]]))
    opt = trainer.Adam(ParamGroup([p]), lr=0.1)
    p.grad[...] = 0.0
    opt.step()
    np.testing.assert_array_equal(p.value, [[1.0, -2.0]])


def test_adam_first_step_magnitude_is_lr():
    p = Parameter("p", np.array([[5.0, -3.0]]))
    opt = trainer.Adam(ParamGroup([p]), lr=0.01)
    p.grad[...] = np.array([[0.7, -2.2]])
    opt.step()
    moved = np.abs(p.value - np.array([[5.0, -3.0]]))
    np.testing.assert_allclose(moved, 0.01, rtol=1e-6)
    assert p.value[0, 0] < 5.0 and p.value[0, 1] > -3.0


def test_adam_matches_scalar_reference_trace():
    # minimize f(x) = x^2 from x = 3 with a hand-rolled scalar loop
    x_ref, m, v = 3.0, 0.0, 0.0
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    trace = []
    for t in range(1, 11):
        g = 2.0 * x_ref
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x_ref -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
        trace.append(x_ref)

    p = Parameter("x", np.array([[3.0]]))
    opt = trainer.Adam(ParamGroup([p]), lr=0.1)
    for t in range(10):
        p.grad[...] = 2.0 * p.value
        opt.step()
        assert abs(p.value[0, 0] - trace[t]) < 1e-10


def test_adam_aborts_on_nonfinite_grad():
    p = Parameter("enc.w1", np.ones((2, 2)))
    opt = trainer.Adam(ParamGroup([p]), lr=0.01)
    p.grad[...] = np.nan
    with pytest.raises(NumericError, match="enc.w1"):
        opt.step()


def test_adam_names_the_nonfinite_member_and_moves_no_weight():
    group = ParamGroup([Parameter("enc.b1", np.ones((1, 3))), Parameter("enc.w2", np.ones((3, 2)))])
    opt = trainer.Adam(group, lr=0.01)
    group.grad[...] = 0.5
    opt.step()  # a taken step, so the moments and the count are not their initial zeros
    before = (opt.step_count, opt.m.copy(), opt.v.copy(), group.value.copy())
    group.params[1].grad[2, 1] = np.inf
    with pytest.raises(NumericError, match="parameter enc.w2$"):
        opt.step()
    # the refused step leaves the count, both moments and the weights as they were
    assert opt.step_count == before[0] == 1
    for got, want in zip((opt.m, opt.v, group.value), before[1:]):
        assert got.tobytes() == want.tobytes()


def test_adam_step_allocates_nothing_the_size_of_the_group():
    group = ParamGroup([Parameter("w", np.ones((250, 400)))])  # 100k floats, 800 kB
    opt = trainer.Adam(group, lr=0.01)
    group.grad[...] = np.random.default_rng(0).standard_normal(group.grad.shape)
    opt.step()
    tracemalloc.start()
    try:
        opt.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < group.value.nbytes / 4


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from([np.float64, np.float32]),
       steps=st.integers(1, 8), lr=st.sampled_from([1e-4, 1e-3, 3e-2, 1e-1]))
def test_group_adam_is_bitwise_the_per_parameter_loop(seed, dtype, steps, lr):
    rng = np.random.default_rng(seed)
    shapes = [(5, 3), (1, 3), (3, 4), (1, 4), (2, 4)]
    init = [rng.standard_normal(shape).astype(dtype) for shape in shapes]
    ref = [Parameter(f"p{k}", v.copy()) for k, v in enumerate(init)]
    live = [Parameter(f"p{k}", v.copy()) for k, v in enumerate(init)]
    oracle, opt = LoopAdam(ref, lr), trainer.Adam(ParamGroup(live), lr)
    for _ in range(steps):
        for p, q, shape in zip(ref, live, shapes):
            g = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 3, size=shape)
            p.grad[...] = q.grad[...] = g.astype(dtype)
        oracle.step()
        opt.step()
        for p, q in zip(ref, live):
            assert q.value.dtype == dtype
            assert q.value.tobytes() == p.value.tobytes()


# ---------------------------------------------------------------------------
# epoch pair

def setup_run(cfg, split):
    from dualvae import model as model_mod

    rng = RngState(cfg.seed)
    params = trainer.ModelParams(split.train.num_users, split.train.num_items,
                                 cfg.aspects, cfg.dim, cfg.hidden, rng.derive(0), cfg.dtype)
    opt_u = trainer.Adam(params.user, cfg.lr)
    opt_i = trainer.Adam(params.item, cfg.lr)
    snap = model_mod.bootstrap(split.train, params)
    return rng, params, opt_u, opt_i, snap


def assert_views_of_the_buffers(params):
    for group in (params.user, params.item):
        assert sum(p.value.size for p in group) == group.value.size == group.grad.size
        for p in group:
            assert np.shares_memory(p.value, group.value)
            assert np.shares_memory(p.grad, group.grad)


def test_parameters_stay_views_of_their_side_buffers(tmp_path):
    cfg = small_cfg()
    _, params, _, _, _ = setup_run(cfg, small_split())
    assert_views_of_the_buffers(params)
    assert [p.name for p in params.all_params()] == [
        "enc_u.w1", "enc_u.b1", "enc_u.w2", "enc_u.b2", "dec_u.w", "dec_u.b", "protos.user",
        "enc_i.w1", "enc_i.b1", "enc_i.w2", "enc_i.b2", "dec_i.w", "dec_i.b", "protos.item"]
    _, ckpt, path = fitted(tmp_path)
    assert_views_of_the_buffers(ckpt.params)  # after fit's restore
    loaded = trainer.load_checkpoint(path)
    assert_views_of_the_buffers(loaded.params)
    for p, q in zip(loaded.params.all_params(), ckpt.params.all_params()):
        np.testing.assert_array_equal(p.value, q.value)


def test_fit_restores_the_best_epochs_weights(monkeypatch):
    split = small_split()
    first = trainer.fit(split, small_cfg(epochs=1)).checkpoint
    recalls = iter([0.5, 0.4, 0.3])

    def stub(*args, cutoffs, **kw):
        return {"recall@20": next(recalls), "cutoffs": sorted(cutoffs)}

    monkeypatch.setattr(trainer.evaluation, "evaluate_ranking", stub)
    result = trainer.fit(split, small_cfg(epochs=3), cutoffs=(10, 50))
    best = result.checkpoint
    assert (result.stopped_epoch, best.epoch, best.best_metric) == (3, 1, 0.5)
    # validation ranks at the asked cutoffs and 20, and keeps the best epoch's result
    assert result.valid_metrics == {"recall@20": 0.5, "cutoffs": [10, 20, 50]}
    for p, q in zip(best.params.all_params(), first.params.all_params()):
        np.testing.assert_array_equal(p.value, q.value)
    np.testing.assert_array_equal(best.snapshot.user_codes, first.snapshot.user_codes)
    np.testing.assert_array_equal(best.snapshot.C, first.snapshot.C)


def test_frozen_audit_names_the_touched_parameter():
    cfg = small_cfg()
    _, params, _, _, _ = setup_run(cfg, small_split())
    trainer._assert_frozen_untouched(params.item, "user")
    params.item_protos.grad[0, 0] = 1e-300
    with pytest.raises(ContractError, match="frozen parameter protos.item .* user phase"):
        trainer._assert_frozen_untouched(params.item, "user")


def test_user_phase_leaves_item_side_bitwise_unchanged():
    cfg = small_cfg()
    split = small_split()
    rng, params, opt_u, opt_i, snap = setup_run(cfg, split)
    before = [p.value.copy() for p in params.item]
    trainer.train_phase("user", split.train, params, snap, opt_u, cfg, 1, rng)
    for p, old in zip(params.item, before):
        np.testing.assert_array_equal(p.value, old)
        np.testing.assert_array_equal(p.grad, np.zeros_like(old))


def test_item_phase_leaves_user_side_bitwise_unchanged():
    cfg = small_cfg()
    split = small_split()
    rng, params, opt_u, opt_i, snap = setup_run(cfg, split)
    before = [p.value.copy() for p in params.user]
    trainer.train_phase("item", split.train, params, snap, opt_i, cfg, 1, rng)
    for p, old in zip(params.user, before):
        np.testing.assert_array_equal(p.value, old)


def test_training_and_gradcheck_differentiate_one_batch_loss(monkeypatch):
    # the audit checks the function training runs: both reach the objective
    # only through trainer.batch_loss, and the losses they get are its own
    from dualvae import gradcheck

    calls = []
    batch_loss = trainer.batch_loss

    def recording(*args, **kwargs):
        out = batch_loss(*args, **kwargs)
        calls.append((args[6], out[0]))
        return out

    monkeypatch.setattr(trainer, "batch_loss", recording)
    cfg = small_cfg()
    split = small_split()
    rng, params, opt_u, opt_i, snap = setup_run(cfg, split)
    stats = trainer.train_phase("user", split.train, params, snap, opt_u, cfg, 1, rng)
    n_batches = -(-split.train.num_users // cfg.batch_size)
    assert len(calls) == n_batches and all(c is cfg for c, _ in calls)
    assert stats.loss == pytest.approx(np.mean([loss.item() for _, loss in calls]), rel=1e-12)
    calls.clear()
    gradcheck.run_gradcheck(0, num_users=4, num_items=5, aspects=2, dim=2, hidden=3)
    # one taped pass per side, then two evaluations per perturbed weight
    weights = trainer.ModelParams(4, 5, 2, 2, 3, None, np.float64)
    assert len(calls) == 2 + 2 * (weights.user.value.size + weights.item.value.size)
    assert all(c.effective_gamma > 0 for c, _ in calls)


def test_epoch_pair_deterministic_across_runs():
    cfg = small_cfg(epochs=3)
    split = small_split()

    def run():
        rng, params, opt_u, opt_i, snap = setup_run(cfg, split)
        for epoch in (1, 2, 3):
            snap, _, _ = trainer.train_epoch_pair(split, params, opt_u, opt_i, snap, cfg, epoch, rng)
        return [p.value.copy() for p in params.all_params()]

    a, b = run(), run()
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("side", ["user", "item"])
def test_training_step_tape_is_freed_without_gc(monkeypatch, side):
    # a backward closure that captured a Tensor would close the cycle
    # tape -> node -> closure -> tensor -> tape, so every batch's forward
    # arrays would live until a full garbage collection
    import gc
    import weakref

    tapes = []

    class WatchedTape(trainer.Tape):
        def __init__(self):
            # the previous batch's tape is gone before the next forward pass
            assert all(ref() is None for ref in tapes)
            super().__init__()
            tapes.append(weakref.ref(self))

    monkeypatch.setattr(trainer, "Tape", WatchedTape)
    cfg = small_cfg()
    split = small_split()
    rng, params, opt_u, opt_i, snap = setup_run(cfg, split)
    gc.collect()
    gc.disable()
    try:
        trainer.train_phase(side, split.train, params, snap, opt_u if side == "user" else opt_i,
                            cfg, 1, rng)
        assert tapes and all(ref() is None for ref in tapes)
    finally:
        gc.enable()


@pytest.mark.parametrize("ablate, pinned", [((), set()), (("no_add",), {"user", "item"}),
                                             (("no_ud",), {"user"}), (("no_id",), {"item"})],
                         ids=["none", "no_add", "no_ud", "no_id"])
def test_pins_keep_exactly_the_pinned_probs_uniform(ablate, pinned):
    # no_ud pins the users' P, no_id the items' C, no_add both: exactly the
    # pinned matrices stay uniform, and only the unpinned prototypes train
    cfg = small_cfg(ablate=ablate)
    split = small_split()
    rng, params, opt_u, opt_i, snap = setup_run(cfg, split)
    protos = {"user": params.user_protos, "item": params.item_protos}
    grads = {"user": [], "item": []}  # per step: whether the side's prototypes got a gradient
    for side, opt in (("user", opt_u), ("item", opt_i)):
        def recording_step(side=side, step=opt.step):
            grads[side].append(bool(np.any(protos[side].grad)))
            step()
        opt.step = recording_step
    snap, _, _ = trainer.train_epoch_pair(split, params, opt_u, opt_i, snap, cfg, 1, rng)
    for side, probs in (("user", snap.P), ("item", snap.C)):
        assert cfg.pinned(side) == (side in pinned)
        assert np.allclose(probs, 1.0 / cfg.aspects) == (side in pinned)
        assert grads[side] and any(grads[side]) == (side not in pinned)


# ---------------------------------------------------------------------------
# fit

def test_fit_patience_zero_retains_exactly_one_epoch():
    cfg = small_cfg(epochs=10, patience=0)
    result = trainer.fit(small_split(), cfg)
    assert result.stopped_epoch == 1
    assert result.checkpoint.epoch == 1


def test_fit_loss_descends_on_synthetic_data():
    cfg = small_cfg(epochs=5, patience=10, lr=1e-2)
    result = trainer.fit(small_split(seed=3), cfg)
    first = result.history[0]["user"].loss
    last = result.history[-1]["user"].loss
    assert last < first


def test_fit_best_metric_monotone_and_logged(tmp_path):
    log = tmp_path / "train.tsv"
    cfg = small_cfg(epochs=4)
    result = trainer.fit(small_split(seed=5), cfg, log_path=log)
    header, *rows = log.read_text().splitlines()
    assert header.split("\t") == ["epoch", "phase", "loss", "recon", "kl", "contrast", "val_r20"]
    assert len(rows) == 2 * len(result.history)
    bests = []
    cur = -np.inf
    for h in result.history:
        cur = max(cur, h["val_r20"])
        bests.append(cur)
    assert result.checkpoint.best_metric == pytest.approx(bests[-1])


def test_fit_no_nrc_logs_zero_contrast(tmp_path):
    log = tmp_path / "train.tsv"
    cfg = small_cfg(epochs=2, ablate=("no_nrc",))
    trainer.fit(small_split(), cfg, log_path=log)
    rows = [ln.split("\t") for ln in log.read_text().splitlines()[1:]]
    assert all(float(r[5]) == 0.0 for r in rows)


# ---------------------------------------------------------------------------
# checkpoints

def fitted(tmp_path, **kw):
    cfg = small_cfg(epochs=2, **kw)
    split = small_split(seed=7)
    result = trainer.fit(split, cfg)
    path = tmp_path / "model.ckpt"
    trainer.save_checkpoint(result.checkpoint, path)
    return split, result.checkpoint, path


def assert_same_split(got, want):
    assert got.source == want.source
    for part in ("train", "valid", "test"):
        a, b = getattr(got, part), getattr(want, part)
        assert (a.num_users, a.num_items, a.nnz) == (b.num_users, b.num_items, b.nnz)
        assert a.user_ids == b.user_ids and a.item_ids == b.item_ids
        for side in ("user_items", "item_users"):
            np.testing.assert_array_equal(getattr(a, side).indptr, getattr(b, side).indptr)
            np.testing.assert_array_equal(getattr(a, side).indices, getattr(b, side).indices)


def with_header_edit(path, edit) -> bytes:
    """The checkpoint at ``path`` after ``edit`` of its JSON header, with
    the length and checksum made to match."""
    payload = path.read_bytes()[trainer._PREAMBLE.size:]
    (n,) = struct.unpack("<I", payload[:4])
    header = json.loads(payload[4:4 + n])
    edit(header)
    new = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = struct.pack("<I", len(new)) + new + payload[4 + n:]
    return trainer._PREAMBLE.pack(trainer._MAGIC, trainer._VERSION, zlib.crc32(payload),
                                  len(payload)) + payload


def test_checkpoint_roundtrip_identical_scores(tmp_path):
    split, ckpt, path = fitted(tmp_path)
    loaded = trainer.load_checkpoint(path)
    rng = np.random.default_rng(0)
    users = rng.integers(0, split.train.num_users, 100)
    s_orig = evaluation.score_block(ckpt.snapshot, users)
    s_load = evaluation.score_block(loaded.snapshot, users)
    np.testing.assert_array_equal(s_orig, s_load)
    assert_same_split(loaded.split, split)


def test_checkpoint_corrupted_magic_is_error(tmp_path):
    _, _, path = fitted(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="magic"):
        trainer.load_checkpoint(bad)


def test_checkpoint_truncation_is_error(tmp_path):
    _, _, path = fitted(tmp_path)
    blob = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        trainer.load_checkpoint(cut)


def test_checkpoint_f32_widens_to_f64(tmp_path):
    split, ckpt, path = fitted(tmp_path, dtype="float32")
    assert ckpt.params.enc_u.w1.value.dtype == np.float32
    loaded = trainer.load_checkpoint(path, dtype="float64")
    assert loaded.params.enc_u.w1.value.dtype == np.float64
    assert loaded.config.dtype == "float64"
    np.testing.assert_allclose(
        loaded.params.enc_u.w1.value, ckpt.params.enc_u.w1.value.astype(np.float64)
    )
    # widening leaves the split's integer arrays alone
    assert_same_split(loaded.split, split)


def test_fit_pins_the_heap_once(monkeypatch):
    calls = []
    pin = trainer._pin_heap
    monkeypatch.setattr(trainer, "_pin_heap", lambda: calls.append(1) or pin())
    trainer.fit(small_split(), small_cfg(epochs=1))
    assert calls == [1]


def test_pinning_the_heap_twice_does_no_harm():
    first = trainer._pin_heap()
    assert trainer._pin_heap() == first
    if platform.libc_ver()[0] == "glibc":
        assert first  # glibc takes both thresholds


def test_fit_without_mallopt_writes_the_same_bytes(tmp_path, monkeypatch):
    _, _, pinned = fitted(tmp_path)
    monkeypatch.setattr(trainer.ctypes, "CDLL", lambda name: object())  # a libc without mallopt
    assert trainer._pin_heap() is False
    bare = tmp_path / "bare"
    bare.mkdir()
    _, _, unpinned = fitted(bare)
    assert unpinned.read_bytes() == pinned.read_bytes()


def test_checkpoint_bytes_deterministic(tmp_path):
    cfg = small_cfg(epochs=2)
    split = small_split(seed=9)
    r1 = trainer.fit(split, cfg)
    r2 = trainer.fit(split, cfg)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    trainer.save_checkpoint(r1.checkpoint, p1)
    trainer.save_checkpoint(r2.checkpoint, p2)
    h1 = hashlib.sha256(p1.read_bytes()).hexdigest()
    h2 = hashlib.sha256(p2.read_bytes()).hexdigest()
    assert h1 == h2


def test_checkpoint_version_mismatch_is_error(tmp_path):
    import struct

    _, _, path = fitted(tmp_path)
    # 1: the format with the `no_*` fields and the `rng` block; 2: the
    # (N, A, d) `*_means` / `*_decoded` snapshot arrays; 3: no split and no
    # checksum
    for version in (1, 2, 3, 99):
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", version)
        bad = tmp_path / "vers.ckpt"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=f"version {version}.*retrain"):
            trainer.load_checkpoint(bad)


@pytest.mark.parametrize("name, cut", [
    ("enc_u.w1", None), ("state.C", None), ("enc_i.b2", 1), ("state.C", 1), ("state.item_codes", 2),
    ("split.test.indices", None), ("split.train.indptr", 0),
])
def test_missing_or_misshaped_tensor_is_checkpoint_error(tmp_path, monkeypatch, name, cut):
    # cut None drops the tensor; otherwise one entry of that axis goes
    _, ckpt, _ = fitted(tmp_path)
    intact = trainer._checkpoint_tensors

    def damaged(c):
        tensors = intact(c)
        if cut is None:
            del tensors[name]
        else:
            tensors[name] = np.delete(tensors[name], 0, axis=cut)
        return tensors

    monkeypatch.setattr(trainer, "_checkpoint_tensors", damaged)
    path = tmp_path / "damaged.ckpt"
    trainer.save_checkpoint(ckpt, path)
    match = f"missing tensor {name}" if cut is None else f"tensor {name} has shape"
    with pytest.raises(CheckpointError, match=match):
        trainer.load_checkpoint(path)


def test_missing_header_key_is_checkpoint_error(tmp_path):
    _, _, path = fitted(tmp_path)
    bad = tmp_path / "nokey.ckpt"
    bad.write_bytes(with_header_edit(path, lambda header: header.pop("best_metric")))
    with pytest.raises(CheckpointError, match="best_metric"):
        trainer.load_checkpoint(bad)


@pytest.mark.parametrize("edit, match", [
    (lambda h: h["config"].update(learning_rate=0.1), "invalid stored config.*learning_rate"),
    (lambda h: h["config"].update(lr=0.5), "invalid stored config.*lr"),
    (lambda h: h["config"].update(beta=-5.0), "invalid stored config.*beta"),
    (lambda h: h["config"].update(beta_anneal_epochs=-1), "invalid stored config.*beta"),
    (lambda h: h.update(source=None), "split record"),
], ids=["unknown-config-key", "config-out-of-range", "negative-beta", "negative-anneal",
        "record-not-an-object"])
def test_bad_stored_config_or_record_is_checkpoint_error(tmp_path, edit, match):
    _, _, path = fitted(tmp_path)
    bad = tmp_path / "edited.ckpt"
    bad.write_bytes(with_header_edit(path, edit))
    with pytest.raises(CheckpointError, match=match):
        trainer.load_checkpoint(bad)


class _Killed(Exception):
    pass


class _HalfWriter:
    """A file whose writes stop with ``_Killed`` after ``budget`` bytes."""

    def __init__(self, fh, budget):
        self.fh, self.budget = fh, budget

    def write(self, piece):
        piece = memoryview(piece).cast("B")
        self.fh.write(piece[:self.budget])
        if len(piece) > self.budget:
            raise _Killed
        self.budget -= len(piece)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def __getattr__(self, name):
        return getattr(self.fh, name)


@pytest.mark.parametrize("stage", ["mid-write", "before-rename"])
def test_interrupted_save_keeps_previous_file(tmp_path, monkeypatch, stage):
    split, ckpt, path = fitted(tmp_path)
    before = path.read_bytes()
    ckpt.best_metric += 1.0  # so that a finished save would change the bytes
    if stage == "mid-write":
        monkeypatch.setattr(trainer, "open", lambda f, mode: _HalfWriter(open(f, mode),
                                                                         len(before) // 2),
                            raising=False)
    else:
        def killed(fd):
            raise _Killed
        monkeypatch.setattr(trainer.os, "fsync", killed)
    with pytest.raises(_Killed):
        trainer.save_checkpoint(ckpt, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
    assert_same_split(trainer.load_checkpoint(path).split, split)


def test_input_dropout_and_normalization_paths():
    from dualvae.tensor import RngState

    rng = RngState(3).derive(9)
    slab = sp.csr_matrix(np.ones((4, 10)))
    cfg = small_cfg(input_dropout=0.5)
    out = trainer._encoder_rows(slab, cfg, rng)
    assert out is not slab
    rows = out.toarray()
    kept = rows > 0
    np.testing.assert_allclose(rows[kept], 2.0)  # inverse-keep scaling
    assert 0 < kept.sum() < rows.size
    np.testing.assert_array_equal(slab.toarray(), np.ones((4, 10)))  # target untouched

    cfg = small_cfg(normalize_input=True)
    rows = trainer._encoder_rows(slab, cfg, rng).toarray()
    np.testing.assert_allclose(np.linalg.norm(rows, axis=1), np.ones(4))

    cfg = small_cfg()
    assert trainer._encoder_rows(slab, cfg, rng) is slab


def dense_encoder_rows(slab, cfg, rng):
    """The dense-slab formula the CSR version must reproduce."""
    rows = slab
    if cfg.input_dropout > 0.0:
        keep = (rng.uniform(*slab.shape) >= cfg.input_dropout).astype(slab.dtype)
        rows = rows * keep / (1.0 - cfg.input_dropout)
    if cfg.normalize_input:
        norms = np.sqrt((rows * rows).sum(axis=1, keepdims=True))
        rows = rows / np.where(norms > 0, norms, 1.0)
    return rows


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("dropout,normalize", [(0.3, False), (0.0, True), (0.3, True)])
def test_encoder_rows_on_csr_match_dense_formula(dropout, normalize, dtype):
    from dualvae.tensor import RngState

    matrix = from_dense((np.random.default_rng(4).random((9, 40)) < 0.3))
    users = np.array([3, 0, 8, 5])
    cfg = small_cfg(input_dropout=dropout, normalize_input=normalize)
    got = trainer._encoder_rows(matrix.rows("user").select(users, dtype), cfg, RngState(2).derive(1))
    want = dense_encoder_rows(matrix.densify_users(users, dtype), cfg, RngState(2).derive(1))
    assert got.dtype == dtype
    np.testing.assert_array_max_ulp(got.toarray(), want, maxulp=1)


def test_fit_with_input_tricks_still_descends():
    cfg = small_cfg(epochs=3, input_dropout=0.2, normalize_input=True)
    result = trainer.fit(small_split(seed=13), cfg)
    assert result.history[-1]["user"].loss < result.history[0]["user"].loss


def test_recommend_aspect_attribution_matches_planted_blocks():
    # the argmax per-aspect addend of a held-out pair should name the pair's
    # planted block (up to the global aspect relabeling)
    from itertools import permutations

    from dualvae import synth

    n_aspects = 3
    matrix, world = synth.generate(300, 300, n_aspects, density=0.02, seed=5)
    split = data.split(matrix, 0.8, 0.1, seed=5)
    cfg = trainer.TrainConfig(aspects=n_aspects, dim=12, hidden=48, lr=0.03,
                              batch_size=128, epochs=80, gamma=0.1, tau=0.2,
                              temp=0.7, patience=100, seed=5).validate()
    snap = trainer.fit(split, cfg).checkpoint.snapshot

    learned_items = snap.C.argmax(axis=1)
    planted_items = world.item_assignments
    best_perm, best_hits = None, -1
    for perm in permutations(range(n_aspects)):
        hits = int((np.array(perm)[learned_items] == planted_items).sum())
        if hits > best_hits:
            best_perm, best_hits = np.array(perm), hits
    assert best_hits / 300 > 0.8  # sanity: aspects recovered at all

    users, items = np.array(list(pairs(split.test)) + list(pairs(split.valid))).T
    addends = evaluation.pair_addends(snap, users, items)
    agree = np.sum(best_perm[addends.argmax(axis=1)] == planted_items[items])
    assert agree / len(users) >= 0.8


def test_unmasked_train_recall_memorizes_tiny_data():
    # weak KL pressure lets the model reconstruct a tiny world; unmasked
    # train-split ranking should then recover most of each user's items
    from dualvae import evaluation, synth

    matrix, _ = synth.generate(30, 60, 2, density=0.15, seed=6)
    split = data.split(matrix, 0.8, 0.1, seed=6)
    cfg = trainer.TrainConfig(aspects=2, dim=12, hidden=32, lr=0.05, batch_size=32,
                              epochs=60, gamma=0.1, temp=0.7, beta=0.02,
                              patience=100, seed=6).validate()
    ck = trainer.fit(split, cfg).checkpoint
    users = [u for u in range(30) if len(split.train.user_items[u])]
    scores = evaluation.score_all(ck.snapshot, users, masks=[])
    ranked = evaluation.top_n(scores, 20)
    train_recall = np.mean([
        recall_at_n(ranked[k], split.train.user_items[u], 20)
        for k, u in enumerate(users)
    ])
    assert train_recall > 0.8  # chance at this cutoff is 1/3
