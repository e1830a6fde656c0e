import hashlib
import math

import numpy as np
import pytest
import scipy.sparse as sp

from dualvae import data, evaluation, synth, trainer
from dualvae.errors import CheckpointError, ConfigError, NumericError
from dualvae.tensor import Parameter, RngState


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


def test_ablation_flags():
    cfg = small_cfg().apply_ablations(["no_nrc", "no_add"])
    assert cfg.effective_gamma == 0.0
    assert cfg.pin_c and cfg.pin_p
    with pytest.raises(ConfigError):
        small_cfg().apply_ablations(["bogus"])


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
    opt = trainer.Adam([p], lr=0.1)
    p.zero_grad()
    opt.step()
    np.testing.assert_array_equal(p.value, [[1.0, -2.0]])


def test_adam_first_step_magnitude_is_lr():
    p = Parameter("p", np.array([[5.0, -3.0]]))
    opt = trainer.Adam([p], lr=0.01)
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
    opt = trainer.Adam([p], lr=0.1)
    for t in range(10):
        p.grad[...] = 2.0 * p.value
        opt.step()
        assert abs(p.value[0, 0] - trace[t]) < 1e-10


def test_adam_aborts_on_nonfinite_grad():
    p = Parameter("enc.w1", np.ones((2, 2)))
    opt = trainer.Adam([p], lr=0.01)
    p.grad[...] = np.nan
    with pytest.raises(NumericError, match="enc.w1"):
        opt.step()


# ---------------------------------------------------------------------------
# epoch pair

def setup_run(cfg, split):
    from dualvae import model as model_mod

    rng = RngState(cfg.seed)
    params = trainer.ModelParams(split.train.num_users, split.train.num_items,
                                 cfg.aspects, cfg.dim, cfg.hidden, rng.derive(0), cfg.np_dtype)
    opt_u = trainer.Adam(params.user_group(), cfg.lr)
    opt_i = trainer.Adam(params.item_group(), cfg.lr)
    snap = model_mod.bootstrap(split.train, params, cfg.temp, cfg.pin_c, cfg.pin_p, cfg.np_dtype)
    return rng, params, opt_u, opt_i, snap


def test_user_phase_leaves_item_side_bitwise_unchanged():
    cfg = small_cfg()
    split = small_split()
    rng, params, opt_u, opt_i, snap = setup_run(cfg, split)
    before = [p.value.copy() for p in params.item_group()]
    trainer.train_phase("user", split.train, params, snap, opt_u, cfg, 1, rng)
    for p, old in zip(params.item_group(), before):
        np.testing.assert_array_equal(p.value, old)
        np.testing.assert_array_equal(p.grad, np.zeros_like(old))


def test_item_phase_leaves_user_side_bitwise_unchanged():
    cfg = small_cfg()
    split = small_split()
    rng, params, opt_u, opt_i, snap = setup_run(cfg, split)
    before = [p.value.copy() for p in params.user_group()]
    trainer.train_phase("item", split.train, params, snap, opt_i, cfg, 1, rng)
    for p, old in zip(params.user_group(), before):
        np.testing.assert_array_equal(p.value, old)


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


def test_no_add_keeps_probs_uniform():
    cfg = small_cfg().apply_ablations(["no_add"])
    split = small_split()
    rng, params, opt_u, opt_i, snap = setup_run(cfg, split)
    snap, _, _ = trainer.train_epoch_pair(split, params, opt_u, opt_i, snap, cfg, 1, rng)
    np.testing.assert_allclose(snap.C, 1.0 / cfg.aspects)
    np.testing.assert_allclose(snap.P, 1.0 / cfg.aspects)


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
    cfg = small_cfg(epochs=2).apply_ablations(["no_nrc"])
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


def test_checkpoint_roundtrip_identical_scores(tmp_path):
    split, ckpt, path = fitted(tmp_path)
    loaded = trainer.load_checkpoint(path)
    rng = np.random.default_rng(0)
    users = rng.integers(0, split.train.num_users, 100)
    s_orig = evaluation.score_block(ckpt.params, ckpt.snapshot, users)
    s_load = evaluation.score_block(loaded.params, loaded.snapshot, users)
    np.testing.assert_array_equal(s_orig, s_load)
    assert loaded.dataset["digest"] == ckpt.dataset["digest"]


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
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 99)
    bad = tmp_path / "vers.ckpt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        trainer.load_checkpoint(bad)


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

    matrix = data.from_dense((np.random.default_rng(4).random((9, 40)) < 0.3))
    users = np.array([3, 0, 8, 5])
    cfg = small_cfg(input_dropout=dropout, normalize_input=normalize)
    got = trainer._encoder_rows(matrix.sparse_users(users, dtype), cfg, RngState(2).derive(1))
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

    held = list(split.test.pairs()) + list(split.valid.pairs())
    addends = [t.value for t in evaluation.user_addends(snap, np.arange(split.train.num_users))]
    agree = 0
    for u, i in held:
        pair_addends = np.array([addends[a][u, i] for a in range(n_aspects)])
        agree += best_perm[int(pair_addends.argmax())] == planted_items[i]
    assert agree / len(held) >= 0.8


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
    scores = evaluation.score_all(ck.params, ck.snapshot, users, masks=[])
    ranked = evaluation.top_n(scores, 20)
    train_recall = np.mean([
        evaluation.recall_at_n(ranked[k], split.train.user_items[u], 20)
        for k, u in enumerate(users)
    ])
    assert train_recall > 0.8  # chance at this cutoff is 1/3
