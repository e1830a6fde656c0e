"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The directional training experiments (criteria 6 and 7) are the slow part;
the whole module stays within a few minutes of CPU time.

Criterion 7 targets a subsample of the MovieLens-1M ratings file, which
cannot be redistributed with this repository and is not downloadable from
inside the build sandbox. When the file is present (env var DUALVAE_ML1M or
data/ml-1m/ratings.dat) the test runs the literal protocol; otherwise it is
skipped loudly and the identical protocol runs against a committed synthetic
proxy of the same scale (criterion 7p), so the ablation-ordering property is
still exercised end to end.
"""

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from dualvae import aspects, contrast, data, encoder, synth, trainer
from dualvae.gradcheck import run_gradcheck
from dualvae.tensor import RngState

from helpers import kl_gaussian, ndcg_at_n, paired_scores, recall_at_n, stacked_codes

pytestmark = pytest.mark.acceptance


def verdict(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:>2} {name}: {tag} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# 1: gradient suite

def test_criterion_1_gradient_suite():
    t0 = time.time()
    report = run_gradcheck(seed=20240511, num_users=8, num_items=12,
                           aspects=3, dim=4, hidden=8, h=1e-5)
    elapsed = time.time() - t0
    worst = max(report.values())
    ok = worst < 1e-4 and elapsed < 30.0
    detail = f"(max rel err {worst:.2e} over {len(report)} groups, {elapsed:.1f}s)"
    verdict(1, "gradient suite", ok, detail)


# ---------------------------------------------------------------------------
# 2: simplex rows and masked decomposition

def test_criterion_2_simplex_and_decomposition():
    rng = np.random.default_rng(2)
    means = 2.0 * rng.standard_normal((1000, 5, 7))
    protos = rng.standard_normal((5, 7))
    C = aspects.item_aspect_probs(stacked_codes(means), protos, temp=0.1)
    sums = C.sum(axis=1)
    simplex_ok = bool(np.all(np.abs(sums - 1.0) <= 1e-9) and np.all(C > 0.0))

    decomp_ok = True
    for _ in range(50):
        rows = (rng.random((8, 40)) < 0.3).astype(float)
        logits = rng.standard_normal((40, 5))
        simplex = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        total = sum(encoder.mask_interactions(rows, simplex[:, a]) for a in range(5))
        decomp_ok &= bool(np.max(np.abs(total - rows)) <= 1e-12)

    verdict(2, "simplex + decomposition", simplex_ok and decomp_ok,
            f"(row-sum dev {np.max(np.abs(sums - 1.0)):.1e})")


# ---------------------------------------------------------------------------
# 3: KL closed form vs Monte Carlo

def test_criterion_3_kl_oracle():
    assert kl_gaussian(np.zeros(4), np.ones(4)) == 0.0
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        mu = rng.uniform(-2.0, 2.0, size=4)
        sigma = rng.uniform(0.3, 2.0, size=4)
        closed = kl_gaussian(mu, sigma)
        z = mu + sigma * rng.standard_normal((100_000, 4))
        log_q = (-0.5 * (((z - mu) / sigma) ** 2 + np.log(2 * np.pi)) - np.log(sigma)).sum(axis=1)
        log_p = (-0.5 * (z ** 2 + np.log(2 * np.pi))).sum(axis=1)
        mc = float((log_q - log_p).mean())
        worst = max(worst, abs(mc - closed) / max(abs(closed), 1e-12))
    verdict(3, "KL oracle", worst < 0.01, f"(worst MC deviation {worst:.3%})")


# ---------------------------------------------------------------------------
# 4: InfoNCE vs explicit loops

def _brute_infonce(z, o, tau):
    b, A, _ = z.shape

    def cos(x, y):
        nx, ny = np.linalg.norm(x), np.linalg.norm(y)
        return 0.0 if nx == 0 or ny == 0 else float(x @ y / (nx * ny))

    out = np.zeros((b, A))
    for u in range(b):
        for a in range(A):
            pos = np.exp(cos(z[u, a], o[u, a]) / tau)
            denom = pos
            for bb in range(A):
                if bb != a:
                    denom += np.exp(cos(z[u, a], o[u, bb]) / tau)
            for v in range(b):
                if v != u:
                    denom += np.exp(cos(z[u, a], o[v, a]) / tau)
            out[u, a] = -np.log(pos / denom)
    return out


def test_criterion_4_infonce_oracle():
    rng = np.random.default_rng(4)
    cfg = trainer.TrainConfig(tau=0.2, gamma=0.1)
    worst = 0.0
    for _ in range(100):
        b = int(rng.integers(1, 7))
        A = int(rng.integers(1, 5))
        d = int(rng.integers(2, 6))
        z = rng.standard_normal((b, A, d))
        o = rng.standard_normal((b, A, d))
        got = contrast.infonce_rows(_stacked(z), o.transpose(1, 0, 2), cfg,
                                    np.ones(b, dtype=bool))
        want = _brute_infonce(z, o, cfg.tau)
        for a in range(A):
            worst = max(worst, float(np.max(np.abs(got.value.reshape(A, b)[a] - want[:, a]))))

    # symmetric case: all similarities equal -> log(A + |B| - 1)
    b, A, d = 6, 4, 5
    v = rng.standard_normal(d)
    z = np.tile(v, (b, A, 1))
    o = np.tile(-3.0 * v, (b, A, 1)) * -1.0
    got = contrast.infonce_rows(_stacked(z), o.transpose(1, 0, 2), cfg, np.ones(b, dtype=bool))
    sym_dev = max(float(np.max(np.abs(col - np.log(A + b - 1))))
                  for col in got.value.reshape(A, b))
    ok = worst < 1e-10 and sym_dev < 1e-10
    verdict(4, "InfoNCE oracle", ok, f"(loop dev {worst:.1e}, symmetric dev {sym_dev:.1e})")


def _stacked(z):
    """(b, A, d) codes as the aspect-major (A * b, d) constant."""
    from dualvae.tensor import Tensor

    return Tensor(np.ascontiguousarray(z.transpose(1, 0, 2)).reshape(-1, z.shape[2]))


# ---------------------------------------------------------------------------
# 5: score range and per-aspect decomposition

def test_criterion_5_score_range_and_decomposition():
    rng = np.random.default_rng(5)
    worst_gap = 0.0
    ok = True
    for _ in range(10):
        A = int(rng.integers(1, 7))
        p_logits = rng.standard_normal((1000, A))
        c_logits = rng.standard_normal((1000, A))
        P = np.exp(p_logits) / np.exp(p_logits).sum(axis=1, keepdims=True)
        C = np.exp(c_logits) / np.exp(c_logits).sum(axis=1, keepdims=True)
        skips = 6.0 * rng.standard_normal((1000, A))
        g, addends = paired_scores(P, C, skips)
        ok &= bool(np.all((0.0 < g) & (g < 1.0)))
        worst_gap = max(worst_gap, float(np.abs(g - addends.sum(axis=1)).max()))
    ok = ok and worst_gap <= 1e-9
    verdict(5, "score range + decomposition", ok,
            f"(10,000 pairs, worst addend gap {worst_gap:.1e})")


# ---------------------------------------------------------------------------
# 6 + 10: synthetic recovery / A=1 comparison / freezing contract

CRIT6_SEEDS = (1, 2, 3)


@pytest.fixture(scope="module")
def planted_runs():
    """Criterion 6 training runs with the freezing assert counted."""
    calls = {"count": 0}
    original = trainer._assert_frozen_untouched

    def counting(group, phase):
        original(group, phase)
        calls["count"] += 1

    trainer._assert_frozen_untouched = counting
    t0 = time.time()
    results = []
    try:
        for seed in CRIT6_SEEDS:
            matrix, world = synth.generate(400, 400, 4, density=0.0125, seed=seed)
            split = data.split(matrix, 0.8, 0.5, seed=seed)

            def fit_with(aspects_n, dim):
                cfg = trainer.TrainConfig(
                    aspects=aspects_n, dim=dim, hidden=64, lr=0.03, batch_size=128,
                    epochs=50, gamma=0.1, tau=0.2, temp=0.7, patience=100, seed=seed,
                ).validate()
                return trainer.fit(split, cfg)

            res4 = fit_with(4, 25)
            res1 = fit_with(1, 100)
            recovery = synth.aspect_recovery_score(
                res4.checkpoint.snapshot.C.argmax(axis=1), world.item_assignments, 4
            )
            results.append({
                "seed": seed,
                "recovery": recovery,
                "r20_a4": res4.checkpoint.best_metric,
                "r20_a1": res1.checkpoint.best_metric,
                "epochs_run": res4.stopped_epoch + res1.stopped_epoch,
            })
    finally:
        trainer._assert_frozen_untouched = original
    return {"results": results, "freeze_checks": calls["count"], "elapsed": time.time() - t0}


def test_criterion_6_synthetic_recovery(planted_runs):
    rs = planted_runs["results"]
    rec_wins = sum(1 for r in rs if r["recovery"] > 0.5)
    rank_wins = sum(1 for r in rs if r["r20_a1"] < r["r20_a4"])
    elapsed = planted_runs["elapsed"]
    rec_str = "/".join("{:.2f}".format(r["recovery"]) for r in rs)
    detail = (f"(recovery {rec_str}, A4 beats A1 on {rank_wins}/3 seeds, {elapsed:.0f}s)")
    ok = rec_wins >= 2 and rank_wins >= 2 and elapsed < 300.0
    verdict(6, "synthetic recovery", ok, detail)


def test_criterion_10_freezing_contract(planted_runs):
    total_epochs = sum(r["epochs_run"] for r in planted_runs["results"])
    checks = planted_runs["freeze_checks"]
    # two phases per epoch, each ends with a full frozen-side zero-grad check
    ok = checks == 2 * total_epochs and checks > 0
    verdict(10, "freezing contract", ok,
            f"({checks} frozen-side audits over {total_epochs} epochs, all exactly zero)")


# ---------------------------------------------------------------------------
# 7: ablation ordering (subsampled ML1M when available, else skipped; the
#    proxy variant 7p below always runs)

ABLATION_EPOCHS = 8


def _ablation_ordering(split, seed):
    def fit_variant(ablate=()):
        cfg = trainer.TrainConfig(
            aspects=4, dim=16, hidden=48, lr=0.01, batch_size=128,
            epochs=ABLATION_EPOCHS, gamma=0.1, tau=0.2, temp=0.7,
            patience=100, seed=seed, ablate=ablate,
        ).validate()
        return trainer.fit(split, cfg).checkpoint.best_metric

    full = fit_variant()
    no_nrc = fit_variant(("no_nrc",))
    stripped = fit_variant(("no_add", "no_nrc"))
    return full, no_nrc, stripped


def _find_ml1m():
    candidates = [os.environ.get("DUALVAE_ML1M", "")]
    here = Path(__file__).resolve().parent.parent
    candidates += [str(here / "data" / "ml-1m" / "ratings.dat"),
                   str(here / "data" / "ratings.dat")]
    for c in candidates:
        if c and Path(c).exists():
            return Path(c)
    return None


def _subsample_ml1m(path, tmp_path, n_users=2000):
    """Keep the most-active users, rewrite as TSV for ingestion."""
    counts = {}
    rows = []
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            parts = line.strip().split("::")
            if len(parts) < 2:
                continue
            u, i = parts[0], parts[1]
            counts[u] = counts.get(u, 0) + 1
            rows.append((u, i))
    keep = set(sorted(counts, key=lambda u: (-counts[u], u))[:n_users])
    out = tmp_path / "ml1m_sub.tsv"
    with open(out, "w", encoding="utf-8") as fh:
        for u, i in rows:
            if u in keep:
                fh.write(f"{u}\t{i}\n")
    return out


def test_criterion_7_ablation_direction_ml1m(tmp_path):
    ratings = _find_ml1m()
    if ratings is None:
        pytest.skip(
            "criterion 7 needs the MovieLens-1M ratings file (not redistributable, "
            "no network in this environment); set DUALVAE_ML1M or place it at "
            "data/ml-1m/ratings.dat to run the literal protocol; the same protocol "
            "runs against a synthetic proxy in criterion 7p"
        )
    t0 = time.time()
    tsv = _subsample_ml1m(ratings, tmp_path)
    matrix = data.ingest(tsv, "tsv", min_user_core=10, min_item_core=10)
    wins_full_vs_stripped = 0
    wins_full_vs_nonrc = 0
    lines = []
    for seed in (1, 2, 3):
        split = data.split(matrix, 0.8, 0.1, seed=seed)
        full, no_nrc, stripped = _ablation_ordering(split, seed)
        wins_full_vs_stripped += full >= stripped
        wins_full_vs_nonrc += full >= no_nrc
        lines.append(f"{full:.4f}/{no_nrc:.4f}/{stripped:.4f}")
    elapsed = time.time() - t0
    ok = wins_full_vs_stripped >= 2 and wins_full_vs_nonrc >= 2 and elapsed < 900.0
    verdict(7, "ablation direction (ML1M)", ok,
            f"(full/no_nrc/no_add+no_nrc per seed: {'; '.join(lines)}, {elapsed:.0f}s)")


def test_criterion_7p_ablation_direction_proxy():
    t0 = time.time()
    wins_full_vs_stripped = 0
    wins_full_vs_nonrc = 0
    lines = []
    for seed in (1, 2, 3):
        matrix, _ = synth.generate(2000, 3000, 4, density=0.02, seed=seed)
        split = data.split(matrix, 0.8, 0.1, seed=seed)
        full, no_nrc, stripped = _ablation_ordering(split, seed)
        wins_full_vs_stripped += full >= stripped
        wins_full_vs_nonrc += full >= no_nrc
        lines.append(f"{full:.4f}/{no_nrc:.4f}/{stripped:.4f}")
    elapsed = time.time() - t0
    ok = wins_full_vs_stripped >= 2 and wins_full_vs_nonrc >= 2 and elapsed < 900.0
    verdict("7p", "ablation direction (proxy)", ok,
            f"(full/no_nrc/no_add+no_nrc per seed: {'; '.join(lines)}, {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 8: metric oracles

def test_criterion_8_metric_oracles():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        n_items = int(rng.integers(10, 80))
        cutoff = int(rng.integers(1, 30))
        order = rng.permutation(n_items)
        test_set = set(int(x) for x in rng.choice(n_items, int(rng.integers(1, 9)), replace=False))
        hits = [r for r, item in enumerate(order[:cutoff], start=1) if int(item) in test_set]
        want_recall = len(hits) / min(cutoff, len(test_set))
        idcg = sum(1.0 / np.log2(r + 1) for r in range(1, min(cutoff, len(test_set)) + 1))
        want_ndcg = sum(1.0 / np.log2(r + 1) for r in hits) / idcg
        worst = max(worst,
                    abs(recall_at_n(order, test_set, cutoff) - want_recall),
                    abs(ndcg_at_n(order, test_set, cutoff) - want_ndcg))
    rank2 = ndcg_at_n(np.array([5, 9] + list(range(20, 38))), {9}, 20)
    worked = abs(rank2 - 1.0 / np.log2(3.0))
    ok = worst <= 1e-12 and worked <= 1e-12
    verdict(8, "metric oracles", ok, f"(worst dev {worst:.1e}, rank-2 value dev {worked:.1e})")


# ---------------------------------------------------------------------------
# 9: CLI determinism

def test_criterion_9_cli_determinism(tmp_path):
    cli = [sys.executable, "-m", "dualvae.cli"]
    env = dict(os.environ)
    out = subprocess.run(cli + ["ingest", "--synthetic", "--users", "120", "--items", "100",
                                "--true-aspects", "3", "--density", "0.05", "--seed", "4",
                                "--out", str(tmp_path / "data")],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    (tmp_path / "run.ini").write_text(
        "[data]\npath = {d}\n\n[model]\naspects = 3\ndim = 8\nhidden = 16\ntemp = 0.7\n\n"
        "[train]\nlr = 0.01\nbatch_size = 64\nepochs = 3\ngamma = 0.1\nseed = 7\n\n"
        "[output]\ndir = unused\n".format(d=tmp_path / "data" / "interactions.tsv"))
    hashes = []
    for run_dir in ("r1", "r2"):
        out = subprocess.run(cli + ["train", "--config", str(tmp_path / "run.ini"),
                                    "--seed", "7",
                                    "--out", str(tmp_path / run_dir)],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        blob = (tmp_path / run_dir / "checkpoint.ckpt").read_bytes()
        hashes.append(hashlib.sha256(blob).hexdigest())
    verdict(9, "determinism", hashes[0] == hashes[1], f"(sha256 {hashes[0][:16]}... twice)")
