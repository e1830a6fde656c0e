import hashlib
import subprocess
import sys

import numpy as np
import pytest

from dualvae import config as config_mod
from dualvae.errors import ConfigError

CLI = [sys.executable, "-m", "dualvae.cli"]


def run_cli(*args, cwd=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, cwd=cwd)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cliws")
    out = run_cli("ingest", "--synthetic", "--users", "50", "--items", "40",
                  "--true-aspects", "2", "--density", "0.1", "--seed", "3",
                  "--out", str(ws / "data"))
    assert out.returncode == 0, out.stderr
    (ws / "run.ini").write_text(
        "[data]\npath = {d}\n\n[model]\naspects = 2\ndim = 6\nhidden = 12\ntemp = 0.5\n\n"
        "[train]\nlr = 0.01\nbatch_size = 32\nepochs = 2\ngamma = 0.1\nseed = 1\n\n"
        "[output]\ndir = {o}\n".format(d=ws / "data" / "interactions.tsv", o=ws / "out")
    )
    out = run_cli("train", "--config", str(ws / "run.ini"))
    assert out.returncode == 0, out.stderr
    return ws


# ---------------------------------------------------------------------------
# config round trip

def test_config_roundtrip_idempotent(tmp_path):
    cfg = config_mod.RunConfig({"train": {"lr": 0.01, "ablate": ("no_nrc",)},
                                "model": {"aspects": 5}})
    p1, p2 = tmp_path / "a.ini", tmp_path / "b.ini"
    config_mod.save_config(cfg, p1)
    again = config_mod.load_config(p1)
    config_mod.save_config(again, p2)
    assert p1.read_text() == p2.read_text()
    assert again["train", "lr"] == 0.01
    assert again["train", "ablate"] == ("no_nrc",)
    assert again["model", "aspects"] == 5


def test_config_rejects_unknown_keys(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[train]\nlearning_rate = 0.1\n")
    with pytest.raises(ConfigError, match="learning_rate"):
        config_mod.load_config(bad)
    bad.write_text("[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError, match="nonsense"):
        config_mod.load_config(bad)
    with pytest.raises(ConfigError):
        config_mod.RunConfig({"train": {"bogus": 1}})


# ---------------------------------------------------------------------------
# exit codes and error surfaces

def test_usage_error_exit_code_1():
    out = run_cli("train")  # missing --config
    assert out.returncode == 1


def test_missing_dataset_exit_code_2(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[data]\npath = /nonexistent/x.tsv\n")
    out = run_cli("train", "--config", str(cfg))
    assert out.returncode == 2
    assert "/nonexistent/x.tsv" in out.stderr


def test_bad_config_value_exit_code_1(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[train]\nlr = 0.9\n")
    out = run_cli("train", "--config", str(cfg))
    assert out.returncode == 1
    assert "lr" in out.stderr


def test_ablate_requires_flags(workspace):
    out = run_cli("ablate", "--config", str(workspace / "run.ini"))
    assert out.returncode == 1


# ---------------------------------------------------------------------------
# train artifacts

def test_train_writes_artifacts(workspace):
    out_dir = workspace / "out"
    assert (out_dir / "checkpoint.ckpt").exists()
    assert (out_dir / "config_resolved.ini").exists()
    lines = (out_dir / "train_log.tsv").read_text().splitlines()
    assert lines[0].split("\t") == ["epoch", "phase", "loss", "recon", "kl", "contrast", "val_r20"]
    metrics = (out_dir / "valid_metrics.tsv").read_text().splitlines()
    assert metrics[0].split("\t") == ["metric", "N", "value", "n_users"]


def test_ablate_no_nrc_zero_contrast_column(workspace, tmp_path):
    out = run_cli("ablate", "--config", str(workspace / "run.ini"),
                  "--ablate", "no_nrc", "--out", str(tmp_path / "ab"))
    assert out.returncode == 0, out.stderr
    rows = (tmp_path / "ab" / "train_log.tsv").read_text().splitlines()[1:]
    assert all(float(r.split("\t")[5]) == 0.0 for r in rows)


def test_deterministic_training_same_hash(workspace, tmp_path):
    hashes = []
    for d in ("d1", "d2"):
        out = run_cli("train", "--config", str(workspace / "run.ini"),
                      "--seed", "7", "--deterministic", "--out", str(tmp_path / d))
        assert out.returncode == 0, out.stderr
        hashes.append(hashlib.sha256((tmp_path / d / "checkpoint.ckpt").read_bytes()).hexdigest())
    assert hashes[0] == hashes[1]


# ---------------------------------------------------------------------------
# evaluate / recommend / export

def test_evaluate_stdout_format(workspace):
    out = run_cli("evaluate", "--checkpoint", str(workspace / "out" / "checkpoint.ckpt"),
                  "--config", str(workspace / "run.ini"))
    assert out.returncode == 0, out.stderr
    rows = [ln.split("\t") for ln in out.stdout.strip().splitlines()]
    assert [r[0] for r in rows] == ["recall", "recall", "ndcg", "ndcg"]
    assert [r[1] for r in rows] == ["20", "50", "20", "50"]
    for r in rows:
        assert 0.0 <= float(r[2]) <= 1.0


def test_evaluate_mismatched_dataset_is_data_error(workspace, tmp_path):
    other = tmp_path / "other"
    run_cli("ingest", "--synthetic", "--users", "50", "--items", "40",
            "--true-aspects", "2", "--density", "0.1", "--seed", "99",
            "--out", str(other))
    cfg = tmp_path / "other.ini"
    cfg.write_text(
        "[data]\npath = {d}\n\n[model]\naspects = 2\ndim = 6\nhidden = 12\n".format(
            d=other / "interactions.tsv")
    )
    out = run_cli("evaluate", "--checkpoint", str(workspace / "out" / "checkpoint.ckpt"),
                  "--config", str(cfg))
    assert out.returncode == 2
    assert "id maps" in out.stderr


def test_evaluate_no_mask_flag_ranks_train_items(workspace):
    # with masking, a user's own train items can never rank, so train-split
    # recall would be 0; --no-mask must let all 40 items into the top-50
    out = run_cli("evaluate", "--checkpoint", str(workspace / "out" / "checkpoint.ckpt"),
                  "--config", str(workspace / "run.ini"), "--no-mask")
    assert out.returncode == 0, out.stderr
    recall50 = float(out.stdout.splitlines()[1].split("\t")[2])
    assert recall50 == 1.0


def test_recommend_addends_sum_to_score(workspace):
    out = run_cli("recommend", "--checkpoint", str(workspace / "out" / "checkpoint.ckpt"),
                  "--config", str(workspace / "run.ini"), "--users", "0,3", "--top-n", "4")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    assert lines[0].split("\t")[:4] == ["user", "rank", "item", "score"]
    for ln in lines[1:]:
        cols = ln.split("\t")
        score = float(cols[3])
        addends = [float(x) for x in cols[4:]]
        assert abs(score - sum(addends)) < 1e-9
    assert len(lines) == 1 + 2 * 4
    # the score each row prints is the ranking score of that pair
    from dualvae import cli, evaluation, trainer

    ckpt = trainer.load_checkpoint(workspace / "out" / "checkpoint.ckpt", dtype="float64")
    _, split = cli._load_dataset(config_mod.load_config(workspace / "run.ini"))
    user_index = {uid: k for k, uid in enumerate(split.train.user_ids)}
    item_index = {iid: k for k, iid in enumerate(split.train.item_ids)}
    for ln in lines[1:]:
        user, _, item, score = ln.split("\t")[:4]
        want = evaluation.score_all(ckpt.params, ckpt.snapshot, [user_index[user]],
                                    masks=[split.train])[0, item_index[item]]
        assert score == f"{want:.6f}"


def test_recommend_unknown_user_is_data_error(workspace):
    out = run_cli("recommend", "--checkpoint", str(workspace / "out" / "checkpoint.ckpt"),
                  "--config", str(workspace / "run.ini"), "--users", "nosuchuser")
    assert out.returncode == 2


def test_export_aspects_simplex_rows(workspace, tmp_path):
    out = run_cli("export-aspects", "--checkpoint", str(workspace / "out" / "checkpoint.ckpt"),
                  "--config", str(workspace / "run.ini"), "--out", str(tmp_path / "asp"))
    assert out.returncode == 0, out.stderr
    for fname in ("item_aspects.tsv", "user_aspects.tsv"):
        lines = (tmp_path / "asp" / fname).read_text().splitlines()
        header = lines[0].split("\t")
        assert header[0] == "entity_id" and header[1:] == ["p_1", "p_2"]
        for ln in lines[1:]:
            probs = [float(x) for x in ln.split("\t")[1:]]
            assert abs(sum(probs) - 1.0) < 1e-5


# ---------------------------------------------------------------------------
# gradcheck / sweep

def test_gradcheck_passes_and_lists_groups():
    out = run_cli("gradcheck", "--seed", "0")
    assert out.returncode == 0, out.stderr
    body = out.stdout
    for group in ("encoder_user", "encoder_item", "decoder_user", "decoder_item",
                  "prototypes_user", "prototypes_item"):
        assert group in body
    assert "FAIL" not in body


def test_gradcheck_detects_injected_fault():
    out = run_cli("gradcheck", "--seed", "0", "--inject-fault")
    assert out.returncode == 3
    assert "FAIL" in out.stdout


def test_sweep_writes_results(workspace, tmp_path):
    out = run_cli("sweep", "--config", str(workspace / "run.ini"),
                  "--lr-grid", "1e-2", "--gamma-grid", "1e-2,1e-1",
                  "--epochs", "1", "--out", str(tmp_path / "sw"))
    assert out.returncode == 0, out.stderr
    lines = (tmp_path / "sw" / "sweep.tsv").read_text().splitlines()
    assert lines[0].split("\t") == ["aspects", "lr", "gamma", "val_r20", "best_epoch"]
    assert len(lines) == 3


def test_train_float32_mode_smoke(workspace, tmp_path):
    cfg_text = (workspace / "run.ini").read_text().replace(
        "[train]\n", "[train]\ndtype = float32\n")
    cfg = tmp_path / "f32.ini"
    cfg.write_text(cfg_text)
    out = run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "f32"))
    assert out.returncode == 0, out.stderr
    from dualvae import trainer

    loaded = trainer.load_checkpoint(tmp_path / "f32" / "checkpoint.ckpt", dtype="float64")
    assert loaded.params.enc_u.w1.value.dtype == np.float64
