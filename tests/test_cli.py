import configparser
import contextlib
import dataclasses
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualvae import cli, config as config_mod, data, evaluation, trainer
from dualvae.errors import CheckpointError, ConfigError

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


def test_schema_holds_each_train_config_field_once_with_its_default():
    model, train = config_mod._SCHEMA["model"], config_mod._SCHEMA["train"]
    fields = dataclasses.fields(trainer.TrainConfig)
    assert sorted([*model, *train]) == sorted(f.name for f in fields)
    for f in fields:
        assert (model.get(f.name) or train[f.name])[2] == f.default
    assert config_mod.RunConfig().train_config() == trainer.TrainConfig().validate()


def test_readme_default_block_equals_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    parser.read_string(block)
    shown = {section: list(parser.items(section)) for section in parser.sections()}
    schema = {section: [(key, serialize(default)) for key, (_, serialize, default) in keys.items()]
              for section, keys in config_mod._SCHEMA.items()}
    assert shown == schema


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


@pytest.mark.parametrize("line", ["beta = -5", "beta_anneal_epochs = -1"])
def test_negative_beta_exit_code_1(tmp_path, line):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[train]\n{line}\n")
    out = run_cli("train", "--config", str(cfg))
    assert out.returncode == 1
    assert "config error" in out.stderr and "beta" in out.stderr


def test_deterministic_is_not_a_config_key(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[train]\ndeterministic = true\n")
    out = run_cli("train", "--config", str(cfg))
    assert out.returncode == 1
    assert "unknown key 'deterministic'" in out.stderr


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS")

# prints the thread count of the OpenBLAS that numpy loaded, or -1
BLAS_THREADS_PROBE = """
import ctypes, sys
from pathlib import Path
from dualvae import cli
if "--deterministic" in sys.argv:
    cli._pin_single_thread()
import numpy
threads = -1
for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
    handle = ctypes.CDLL(str(lib))
    for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
               "openblas_get_num_threads"):
        if hasattr(handle, fn):
            threads = int(getattr(handle, fn)())
print(threads)
"""


def test_importing_the_cli_loads_no_numpy():
    # BLAS reads its thread count when numpy loads, so --deterministic can
    # pin it only if importing the CLI module leaves numpy unloaded
    code = "import sys, dualvae.cli; assert 'numpy' not in sys.modules"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_deterministic_pin_overrides_preset_thread_counts(monkeypatch):
    from dualvae import cli

    for var in BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "4")
    cli._pin_single_thread()
    assert [os.environ[var] for var in BLAS_THREAD_VARS] == ["1"] * len(BLAS_THREAD_VARS)


def test_deterministic_blas_runs_one_thread(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    out = subprocess.run([sys.executable, "-c", BLAS_THREADS_PROBE, "--deterministic"],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    if int(out.stdout) == -1:
        pytest.skip("numpy is not linked against a bundled OpenBLAS")
    assert int(out.stdout) == 1


@pytest.mark.parametrize("flags, edit", [
    (["--seed", "-1"], lambda ini: ini),
    ([], lambda ini: ini.replace("seed = 1", "seed = -1")),
    ([], lambda ini: ini + "\n[split]\nseed = -1\n"),
], ids=["train-flag", "train-ini", "split-ini"])
def test_negative_seed_exit_code_1(workspace, tmp_path, flags, edit):
    cfg = tmp_path / "run.ini"
    cfg.write_text(edit((workspace / "run.ini").read_text()))
    out = run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "out"), *flags)
    assert out.returncode == 1
    assert "config error" in out.stderr and "seed" in out.stderr


@pytest.mark.parametrize("flag, value", [("--seed", "-3"), ("--true-aspects", "0"),
                                         ("--users", "0"), ("--items", "0")])
def test_bad_synthetic_ingest_exit_code_1(tmp_path, flag, value):
    out = run_cli("ingest", "--synthetic", flag, value, "--out", str(tmp_path / "data"))
    assert out.returncode == 1
    assert "config error" in out.stderr
    assert not (tmp_path / "data" / "interactions.tsv").exists()


@pytest.mark.parametrize("cutoffs", ["", "0", "-5,20"])
def test_nonpositive_or_empty_cutoffs_exit_code_1(workspace, tmp_path, cutoffs):
    cfg = tmp_path / "run.ini"
    cfg.write_text((workspace / "run.ini").read_text() + f"\n[eval]\ncutoffs = {cutoffs}\n")
    out = run_cli("evaluate", "--checkpoint", str(workspace / "out" / "checkpoint.ckpt"),
                  "--config", str(cfg))
    assert out.returncode == 1
    assert "config error" in out.stderr and "cutoffs" in out.stderr


@pytest.mark.parametrize("top_n", ["0", "-1"])
def test_recommend_nonpositive_top_n_exit_code_1(workspace, top_n):
    out = run_cli("recommend", "--checkpoint", str(workspace / "out" / "checkpoint.ckpt"),
                  "--config", str(workspace / "run.ini"), "--users", "0", "--top-n", top_n)
    assert out.returncode == 1
    assert "--top-n" in out.stderr


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


def test_ablate_survives_ini_fit_save_load(workspace, tmp_path):
    cfg = tmp_path / "ablate.ini"
    cfg.write_text((workspace / "run.ini").read_text().replace(
        "[train]\n", "[train]\nablate = no_uns,no_nps\n"))
    out = run_cli("train", "--config", str(cfg), "--epochs", "1", "--out", str(tmp_path / "ab"))
    assert out.returncode == 0, out.stderr
    loaded = trainer.load_checkpoint(tmp_path / "ab" / "checkpoint.ckpt")
    assert loaded.config.ablate == ("no_uns", "no_nps")
    resolved = config_mod.load_config(tmp_path / "ab" / "config_resolved.ini")
    assert resolved["train", "ablate"] == ("no_uns", "no_nps")


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
    ckpt = trainer.load_checkpoint(workspace / "out" / "checkpoint.ckpt", dtype="float64")
    split = ckpt.split
    user_index = {uid: k for k, uid in enumerate(split.train.user_ids)}
    item_index = {iid: k for k, iid in enumerate(split.train.item_ids)}
    for ln in lines[1:]:
        user, _, item, score = ln.split("\t")[:4]
        want = evaluation.score_all(ckpt.snapshot, [user_index[user]],
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
# serving from the checkpoint's split

def run_main(capsys, *argv):
    """``cli.main`` in this process: exit code, stdout, stderr."""
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def serve_argv(workspace, command, config=None, checkpoint=None):
    common = ["--checkpoint", str(checkpoint or workspace / "out" / "checkpoint.ckpt"),
              "--config", str(config or workspace / "run.ini")]
    if command == "recommend":
        return ["recommend", *common, "--users", "0,3,7", "--top-n", "5"]
    if command == "evaluate":
        return ["evaluate", *common]
    return ["export-aspects", *common, "--out", str(workspace / "exported")]


def test_serving_commands_read_no_interaction_file(workspace, monkeypatch, capsys):
    fresh = cli._load_dataset(config_mod.load_config(workspace / "run.ini"))
    ckpt = trainer.load_checkpoint(workspace / "out" / "checkpoint.ckpt", dtype="float64")

    def refuse(*args, **kwargs):
        raise AssertionError("a serving command re-ingested the interaction file")

    for name in ("read_pairs", "ingest", "split"):
        monkeypatch.setattr(data, name, refuse)

    code, out, err = run_main(capsys, *serve_argv(workspace, "evaluate"))
    assert code == 0, err
    result = evaluation.evaluate_ranking(ckpt.params, ckpt.snapshot, fresh, "test", (20, 50))
    assert out == "".join(f"{m}\t{n}\t{result[f'{m}@{n}']:.6f}\t{result['n_users']}\n"
                          for m in ("recall", "ndcg") for n in (20, 50))

    code, out, err = run_main(capsys, *serve_argv(workspace, "recommend"))
    assert code == 0, err
    tokens = ["0", "3", "7"]
    users = [fresh.train.user_ids.index(t) for t in tokens]
    scores = evaluation.score_all(ckpt.snapshot, users, masks=[fresh.train])
    addends = list(evaluation.user_addends(ckpt.snapshot, users))
    want = ["user\trank\titem\tscore\taspect_0\taspect_1"]
    for k, token in enumerate(tokens):
        for rank, item in enumerate(np.argsort(-scores[k], kind="stable")[:5], start=1):
            want.append("\t".join([token, str(rank), fresh.train.item_ids[item],
                                   f"{scores[k, item]:.6f}",
                                   *(f"{x[k, item]:.6f}" for x in addends)]))
    assert out == "\n".join(want) + "\n"

    code, _, err = run_main(capsys, *serve_argv(workspace, "export-aspects"))
    assert code == 0, err
    for fname, probs, ids in (("item_aspects.tsv", ckpt.snapshot.C, fresh.train.item_ids),
                              ("user_aspects.tsv", ckpt.snapshot.P, fresh.train.user_ids)):
        want = ["entity_id\tp_1\tp_2"] + [
            ids[k] + "\t" + "\t".join(f"{x:.6f}" for x in row) for k, row in enumerate(probs)]
        assert (workspace / "exported" / fname).read_text() == "\n".join(want) + "\n"


def test_recommend_all_items_lists_no_train_item(workspace, capsys):
    train = trainer.load_checkpoint(workspace / "out" / "checkpoint.ckpt").split.train
    n_items = len(train.item_ids)
    code, out, err = run_main(capsys, *serve_argv(workspace, "recommend")[:-1], str(n_items))
    assert code == 0, err
    rows = [ln.split("\t") for ln in out.splitlines()[1:]]
    for token in ("0", "3", "7"):
        own = {train.item_ids[i] for i in train.user_items[train.user_ids.index(token)]}
        listed = [row[2] for row in rows if row[0] == token]
        assert own and not own & set(listed)
        assert len(listed) == n_items - len(own)


def test_identical_copy_of_the_interaction_file_serves(workspace, tmp_path, capsys):
    copy = tmp_path / "elsewhere.tsv"
    copy.write_bytes((workspace / "data" / "interactions.tsv").read_bytes())
    cfg = tmp_path / "copy.ini"
    cfg.write_text((workspace / "run.ini").read_text().replace(
        str(workspace / "data" / "interactions.tsv"), str(copy)))
    outputs = [run_main(capsys, *serve_argv(workspace, "evaluate", config))
               for config in (workspace / "run.ini", cfg)]
    assert outputs[0][0] == 0 and outputs[1] == outputs[0]


def _edit_one_line(ws, tmp_path):
    lines = (ws / "data" / "interactions.tsv").read_text().splitlines(keepends=True)
    user, item = lines[1].rstrip("\n").split("\t")[:2]
    lines[1] = f"{user}\t{item}0\n"
    (tmp_path / "edited.tsv").write_text("".join(lines))
    return (ws / "run.ini").read_text().replace(str(ws / "data" / "interactions.tsv"),
                                                str(tmp_path / "edited.tsv"))


@pytest.mark.parametrize("edit, differ", [
    (_edit_one_line, "bytes, sha256"),
    (lambda ws, _: (ws / "run.ini").read_text() + "\n[split]\nseed = 5\n", "seed"),
    (lambda ws, _: (ws / "run.ini").read_text().replace(
        "[data]\n", "[data]\nmin_item_core = 2\n"), "min_item_core"),
], ids=["edited-line", "split-seed", "min-item-core"])
@pytest.mark.parametrize("command", ["evaluate", "recommend", "export-aspects"])
def test_other_data_or_split_is_data_error(workspace, tmp_path, capsys, edit, differ, command):
    cfg = tmp_path / "other.ini"
    cfg.write_text(edit(workspace, tmp_path))
    code, _, err = run_main(capsys, *serve_argv(workspace, command, cfg))
    assert code == 2
    assert f"({differ} differ); id maps do not match" in err


def test_version_3_checkpoint_exits_2(workspace, tmp_path, capsys):
    blob = bytearray((workspace / "out" / "checkpoint.ckpt").read_bytes())
    blob[4:8] = (3).to_bytes(4, "little")
    old = tmp_path / "v3.ckpt"
    old.write_bytes(bytes(blob))
    code, _, err = run_main(capsys, *serve_argv(workspace, "evaluate", checkpoint=old))
    assert code == 2
    assert "version 3" in err and "retrain" in err


@pytest.mark.parametrize("name", ["missing.ckpt", ""], ids=["missing", "directory"])
def test_unopenable_checkpoint_exits_2(workspace, tmp_path, capsys, name):
    code, out, err = run_main(capsys, *serve_argv(workspace, "evaluate",
                                                  checkpoint=tmp_path / name))
    assert code == 2 and out == ""
    assert err.startswith("data error: ") and "cannot open checkpoint" in err


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_flipped_checkpoint_byte_exits_2(workspace, data):
    # crc32 catches every error burst of 32 bits or fewer, so every flip
    blob = bytearray((workspace / "out" / "checkpoint.ckpt").read_bytes())
    blob[data.draw(st.integers(0, len(blob) - 1), label="position")] ^= \
        data.draw(st.integers(1, 255), label="xor mask")
    bad = workspace / "flipped.ckpt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        trainer.load_checkpoint(bad)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main(serve_argv(workspace, "evaluate", checkpoint=bad)) == 2
    assert err.getvalue().startswith("data error: ")


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


@pytest.mark.parametrize("flag, grid", [("--lr-grid", "abc"), ("--lr-grid", ","),
                                        ("--gamma-grid", ","), ("--aspects-grid", "2,x")])
def test_sweep_bad_grid_is_config_error(workspace, tmp_path, capsys, flag, grid):
    code, _, err = run_main(capsys, "sweep", "--config", str(workspace / "run.ini"),
                            flag, grid, "--epochs", "1", "--out", str(tmp_path / "sw"))
    assert code == 1
    assert err.startswith(f"config error: {flag}")
    assert not (tmp_path / "sw" / "sweep.tsv").exists()


def test_sweep_out_of_range_grid_point_fails_before_any_fit(workspace, tmp_path, capsys):
    # the bad lr comes after a good one: no fit may run before it is refused
    code, out, err = run_main(capsys, "sweep", "--config", str(workspace / "run.ini"),
                              "--lr-grid", "1e-2,0.5", "--gamma-grid", "1e-2",
                              "--epochs", "1", "--out", str(tmp_path / "sw"))
    assert code == 1
    assert err.startswith("config error: lr 0.5")
    assert "A=" not in out
    assert not (tmp_path / "sw" / "sweep.tsv").exists()


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
