"""Command-line interface: subcommands, exit codes, locking, output routing."""

import json

import numpy as np
import pytest

from biasgrid.cli import main
from biasgrid.dataset import load_manifest

SMALL_CORPUS_CFG = """\
corpus.n_train = 8
corpus.n_val = 8
corpus.n_pool = 10
corpus.height = 24
corpus.width = 24
corpus.noise_sigma = 0.05
train.max_epochs = 4
train.batch_size = 8
loop.max_iterations = 1
loop.k = 1
loop.m = 2
"""


@pytest.fixture()
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CORPUS_CFG)
    return path


def run_synth(tmp_path, cfg):
    out = tmp_path / "data"
    assert main(["--config", str(cfg), "--out-dir", str(out), "synth"]) == 0
    return out


def test_help_and_version_exit_zero(capsys):
    for argv in (["--help"], ["synth", "--help"], ["loop", "--help"], ["--version"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        capsys.readouterr()


def test_loop_help_documents_its_flags(capsys):
    with pytest.raises(SystemExit):
        main(["loop", "--help"])
    text = capsys.readouterr().out
    for flag in ("--baseline", "--weight-mode", "--run-name"):
        assert flag in text


def test_synth_writes_three_manifests(tmp_path, small_cfg, capsys):
    out = run_synth(tmp_path, small_cfg)
    for name, count in (("train", 8), ("val", 8), ("pool", 10)):
        ds = load_manifest(out / f"{name}.jsonl")
        assert len(ds) == count
    assert "wrote" in capsys.readouterr().out


def test_fit_pca_train_visualize_pipeline(tmp_path, small_cfg, capsys):
    out = run_synth(tmp_path, small_cfg)
    args = ["--config", str(small_cfg), "--out-dir", str(out)]
    assert main(args + ["fit-pca", "--manifest", str(out / "val.jsonl"), "--out", "basis.json"]) == 0
    assert main(args + ["train", "--manifest", str(out / "train.jsonl"), "--out-model", "model.json"]) == 0
    # relative outputs land inside --out-dir
    assert (out / "basis.json").exists()
    assert (out / "model.json").exists()
    assert (
        main(
            args
            + [
                "visualize",
                "--manifest",
                str(out / "val.jsonl"),
                "--basis",
                str(out / "basis.json"),
                "--model",
                str(out / "model.json"),
                "--out",
                "grid.ppm",
                "--sidecar",
                "grid.json",
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert (out / "grid.ppm").read_bytes().startswith(b"P6\n")
    sidecar = json.loads((out / "grid.json").read_text())
    assert sidecar["rows"] * sidecar["cols"] >= len(sidecar["cells"])


def test_visualize_rejects_mismatched_basis(tmp_path, small_cfg, capsys):
    out = run_synth(tmp_path, small_cfg)
    big_cfg = tmp_path / "big.cfg"
    big_cfg.write_text(SMALL_CORPUS_CFG.replace("height = 24", "height = 32"))
    big_out = run_synth(tmp_path / "big", big_cfg)
    args = ["--out-dir", str(out)]
    main(args + ["fit-pca", "--manifest", str(out / "val.jsonl"), "--out", "basis.json"])
    main(args + ["train", "--manifest", str(out / "train.jsonl"), "--out-model", "model.json"])
    capsys.readouterr()
    code = main(
        args
        + [
            "visualize",
            "--manifest",
            str(big_out / "val.jsonl"),
            "--basis",
            str(out / "basis.json"),
            "--model",
            str(out / "model.json"),
            "--out",
            "grid.ppm",
        ]
    )
    err = capsys.readouterr().err
    assert code == 3
    # the message names both pixel counts of the mismatch
    assert "768" in err and "576" in err
    assert "data error" in err


def test_visualize_malformed_model_exits_three(tmp_path, small_cfg, capsys):
    out = run_synth(tmp_path, small_cfg)
    args = ["--out-dir", str(out)]
    main(args + ["fit-pca", "--manifest", str(out / "val.jsonl"), "--out", "basis.json"])
    (out / "model.json").write_text('{"format": "ref-model", "version": 1, "dim": 576}')
    capsys.readouterr()
    code = main(
        args
        + [
            "visualize",
            "--manifest",
            str(out / "val.jsonl"),
            "--basis",
            str(out / "basis.json"),
            "--model",
            str(out / "model.json"),
            "--out",
            "grid.ppm",
        ]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert "data error" in err and "lacks key 'weights'" in err


def test_loop_generates_corpus_when_no_manifests(tmp_path, small_cfg, capsys):
    out = tmp_path / "work"
    code = main(["--config", str(small_cfg), "--out-dir", str(out), "loop", "--run-name", "r1"])
    assert code == 0
    run_dir = out / "runs" / "r1"
    lines = (run_dir / "summary.jsonl").read_text().splitlines()
    assert len(lines) >= 2
    assert json.loads(lines[1])["selection_mode"] == "failure"
    assert not (run_dir / ".lock").exists()
    stdout = capsys.readouterr().out
    assert "final val accuracy" in stdout


def test_loop_from_manifests_and_random_baseline(tmp_path, small_cfg, capsys):
    out = run_synth(tmp_path, small_cfg)
    cfg = tmp_path / "manifests.cfg"
    cfg.write_text(
        SMALL_CORPUS_CFG
        + f"paths.train_manifest = {out}/train.jsonl\n"
        + f"paths.val_manifest = {out}/val.jsonl\n"
        + f"paths.pool_manifest = {out}/pool.jsonl\n"
    )
    code = main(
        ["--config", str(cfg), "--out-dir", str(tmp_path / "w"), "loop", "--baseline", "random"]
    )
    assert code == 0
    capsys.readouterr()
    summary = (tmp_path / "w" / "runs" / "run" / "summary.jsonl").read_text().splitlines()
    assert json.loads(summary[1])["selection_mode"] == "random"


def test_loop_rejects_partial_manifests(tmp_path, small_cfg, capsys):
    cfg = tmp_path / "partial.cfg"
    cfg.write_text(SMALL_CORPUS_CFG + "paths.train_manifest = somewhere.jsonl\n")
    code = main(["--config", str(cfg), "--out-dir", str(tmp_path / "w"), "loop"])
    err = capsys.readouterr().err
    assert code == 2
    assert "either configure all" in err
    assert "paths.pool_manifest" in err


def test_loop_refuses_locked_run_dir(tmp_path, small_cfg, capsys):
    out = tmp_path / "work"
    run_dir = out / "runs" / "run"
    run_dir.mkdir(parents=True)
    (run_dir / ".lock").touch()
    code = main(["--config", str(small_cfg), "--out-dir", str(out), "loop"])
    err = capsys.readouterr().err
    assert code == 3
    assert "locked" in err
    assert (run_dir / ".lock").exists()  # a foreign lock is left in place


def test_weight_mode_flag_overrides_config(tmp_path, small_cfg, capsys):
    out = tmp_path / "work"
    code = main(
        ["--config", str(small_cfg), "--out-dir", str(out), "loop", "--weight-mode", "success"]
    )
    assert code == 0
    capsys.readouterr()
    lines = (out / "runs" / "run" / "summary.jsonl").read_text().splitlines()
    assert json.loads(lines[1])["selection_mode"] == "success"


def test_missing_config_file_exits_two(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "nope.cfg"), "synth"])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_config_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("corpus.n_trian = 5\n")
    code = main(["--config", str(cfg), "--out-dir", str(tmp_path), "synth"])
    assert code == 2
    assert "unknown config key" in capsys.readouterr().err


def test_bad_flag_choice_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["loop", "--baseline", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_seed_flag_changes_the_corpus(tmp_path, small_cfg):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["--config", str(small_cfg), "--seed", "1", "--out-dir", str(a), "synth"]) == 0
    assert main(["--config", str(small_cfg), "--seed", "2", "--out-dir", str(b), "synth"]) == 0
    mat_a = load_manifest(a / "train.jsonl").matrix()
    mat_b = load_manifest(b / "train.jsonl").matrix()
    assert mat_a.shape == mat_b.shape
    assert not np.array_equal(mat_a, mat_b)
