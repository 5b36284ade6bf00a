"""Command-line interface: subcommands, exit codes, locking, output routing."""

import json
import tracemalloc

import numpy as np
import pytest

import biasgrid.dataset
import biasgrid.pca
from biasgrid.classifier import RefModel, save_model
from biasgrid.cli import main
from biasgrid.dataset import Dataset, load_manifest, save_dataset
from biasgrid.loop import LoopConfig, run_loop, run_random_baseline
from biasgrid.pca import fit, save_basis
from biasgrid.synth import CorpusSpec, generate_split

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


def test_fit_pca_on_zero_size_images_exits_three(tmp_path, capsys):
    (tmp_path / "empty.pgm").write_bytes(b"P5\n0 0\n255\n")
    lines = [json.dumps({"id": f"e{i}", "path": "empty.pgm", "label": i % 2}) for i in range(4)]
    (tmp_path / "m.jsonl").write_text("\n".join(lines) + "\n")
    code = main(["--out-dir", str(tmp_path), "fit-pca", "--manifest", str(tmp_path / "m.jsonl"), "--out", "b.json"])
    err = capsys.readouterr().err
    assert code == 3
    assert "data error" in err and "zero-size image" in err
    assert not (tmp_path / "b.json").exists()


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


@pytest.mark.parametrize("bad", ["basis", "model"])
def test_visualize_a_non_finite_number_in_the_basis_or_model_exits_three(tmp_path, small_cfg, capsys, bad):
    out = run_synth(tmp_path, small_cfg)
    args = ["--out-dir", str(out)]
    main(args + ["fit-pca", "--manifest", str(out / "val.jsonl"), "--out", "basis.json"])
    main(args + ["train", "--manifest", str(out / "train.jsonl"), "--out-model", "model.json"])
    path = out / f"{bad}.json"
    obj = json.loads(path.read_text())
    if bad == "basis":
        obj["mean"][0] = float("nan")
    else:
        obj["weights"][0] = float("inf")
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    code = main(args + ["visualize", "--manifest", str(out / "val.jsonl"), "--basis", str(out / "basis.json"),
                        "--model", str(out / "model.json"), "--out", "grid.ppm"])
    err = capsys.readouterr().err
    assert code == 3
    assert "data error" in err and f"{bad}.json: {bad} file holds a non-finite number" in err
    assert not (out / "grid.ppm").exists()


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


ROUTES_CFG = """\
corpus.n_train = 60
corpus.n_val = 30
corpus.n_pool = 60
corpus.height = 24
corpus.width = 24
train.max_epochs = 20
loop.max_iterations = 2
"""


def run_files(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_loop_in_memory_and_over_synth_manifests_is_one_experiment(tmp_path, capsys):
    # The generator stores each face at the 8-bit precision synth writes,
    # so both routes train, score and select on the same pixels.
    cfg = tmp_path / "routes.cfg"
    cfg.write_text(ROUTES_CFG)
    data = tmp_path / "data"
    assert main(["--config", str(cfg), "--out-dir", str(data), "synth"]) == 0
    manifests = tmp_path / "manifests.cfg"
    manifests.write_text(ROUTES_CFG + "".join(f"paths.{name}_manifest = {data}/{name}.jsonl\n"
                                              for name in ("train", "val", "pool")))
    for arm in ("targeted", "random"):
        args = ["loop", "--baseline", arm, "--run-name", arm]
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "memory")] + args) == 0
        assert main(["--config", str(manifests), "--out-dir", str(tmp_path / "files")] + args) == 0
    capsys.readouterr()
    in_memory = run_files(tmp_path / "memory" / "runs")
    assert len(in_memory) >= 2 * 8 and run_files(tmp_path / "files" / "runs") == in_memory


def test_loop_rejects_partial_manifests(tmp_path, small_cfg, capsys):
    cfg = tmp_path / "partial.cfg"
    cfg.write_text(SMALL_CORPUS_CFG + "paths.train_manifest = somewhere.jsonl\n")
    code = main(["--config", str(cfg), "--out-dir", str(tmp_path / "w"), "loop"])
    err = capsys.readouterr().err
    assert code == 2
    assert "either configure all" in err
    assert "paths.pool_manifest" in err


def test_loop_reports_a_bad_loop_setting_before_generating_the_corpus(tmp_path, capsys, monkeypatch):
    generated = []
    monkeypatch.setattr("biasgrid.cli.generate_corpus", lambda spec: generated.append(spec))
    bad_settings = {
        "render.alpha = 2.0": ("alpha", SMALL_CORPUS_CFG + "render.alpha = 2.0\n"),
        "loop.k = 0": ("k must be at least 1", SMALL_CORPUS_CFG.replace("loop.k = 1", "loop.k = 0")),
        "grid.rows = 0": ("rows and cols must be >= 1", SMALL_CORPUS_CFG + "grid.rows = 0\n"),
    }
    for setting, (named, text) in bad_settings.items():
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = tmp_path / "work"
        code = main(["--config", str(cfg), "--out-dir", str(out), "loop"])
        err = capsys.readouterr().err
        assert code == 2, setting
        assert "config error" in err and named in err, setting
        assert generated == [], setting
        assert not (out / "runs").exists(), setting


@pytest.mark.parametrize(
    "setting, argv, named",
    [
        ("corpus.n_train = 0\n", ["synth"], "corpus split sizes"),
        ("loop.k = 0\n", ["fit-pca", "--manifest", "val.jsonl", "--out", "basis.json"], "k must be"),
        ("train.learning_rate = -1\n", ["train", "--manifest", "t.jsonl", "--out-model", "m.json"],
         "learning_rate"),
        ("", ["visualize", "--manifest", "v.jsonl", "--basis", "b.json", "--model", "m.json",
              "--out", "g.ppm", "--cell-px", "2"], "cell_px"),
        ("grid.rows = 0\n", ["loop"], "rows and cols"),
    ],
    ids=["synth", "fit-pca", "train", "visualize", "loop"],
)
def test_an_out_of_range_setting_exits_two_before_any_file_is_touched(
    tmp_path, capsys, monkeypatch, setting, argv, named
):
    def refuse(*args, **kwargs):
        raise AssertionError("input read before the config was checked")

    for name in ("load_manifest", "load_basis", "load_model", "generate_corpus"):
        monkeypatch.setattr(f"biasgrid.cli.{name}", refuse)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(setting)
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out-dir", str(out), *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and named in err
    assert not out.exists()


@pytest.mark.parametrize("schedule", ["nan, inf", "1e-4, inf", "-inf, 1e-4"], ids=["nan-inf", "inf", "-inf"])
def test_a_non_finite_learning_rate_schedule_exits_two_before_any_file_is_written(tmp_path, capsys, schedule):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SMALL_CORPUS_CFG.replace("loop.max_iterations = 1", "loop.max_iterations = 2")
                   + f"loop.lr_schedule = {schedule}\n")
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out-dir", str(out), "loop"])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and "loop.lr_schedule" in err and "not finite" in err
    assert not out.exists()


def test_visualize_takes_the_grid_shape_from_the_config_and_flags(tmp_path, small_cfg, capsys):
    out = run_synth(tmp_path, small_cfg)
    main(["--out-dir", str(out), "fit-pca", "--manifest", str(out / "val.jsonl"), "--out", "basis.json"])
    main(["--out-dir", str(out), "train", "--manifest", str(out / "train.jsonl"), "--out-model", "model.json"])
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("grid.rows = 2\ngrid.cols = 5\n")
    show = ["--config", str(cfg), "--out-dir", str(out), "visualize", "--manifest", str(out / "val.jsonl"),
            "--basis", str(out / "basis.json"), "--model", str(out / "model.json"), "--out", "grid.ppm",
            "--sidecar", "grid.json"]
    for flags, shape in (([], (2, 5)), (["--rows", "3"], (3, 5))):
        assert main([*show, *flags]) == 0
        sidecar = json.loads((out / "grid.json").read_text())
        assert (sidecar["rows"], sidecar["cols"]) == shape
    capsys.readouterr()


def test_visualize_holds_one_float_matrix_of_the_manifest(tmp_path, capsys):
    # Projection and scoring read row blocks and hold no float matrix; one
    # held across both, or a centered copy beside it, would add 1x. The
    # manifest's uint8 levels add 1/8.
    n, hw = 256, 64
    ds = generate_split(CorpusSpec(master_seed=4, height=hw, width=hw), "val", n)
    save_dataset(ds, tmp_path / "val.jsonl")
    save_basis(fit(ds), tmp_path / "basis.json")
    save_model(RefModel(weights=np.random.default_rng(4).normal(0.0, 0.01, hw * hw), bias=0.0), tmp_path / "model.json")
    show = ["--out-dir", str(tmp_path), "visualize", "--manifest", str(tmp_path / "val.jsonl"),
            "--basis", str(tmp_path / "basis.json"), "--model", str(tmp_path / "model.json"),
            "--out", "grid.ppm", "--sidecar", "grid.json"]
    assert main(show) == 0  # warm up lazy imports outside the trace
    tracemalloc.start()
    try:
        assert main(show) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 1.3 * n * hw * hw * 8


def test_no_stage_builds_a_datasets_whole_float_matrix(tmp_path, small_cfg, capsys, monkeypatch):
    # fit-pca, visualize and both loop arms on 24 x 24 images, in several
    # column blocks (100 columns) and row blocks (3 rows) each
    def refuse(self):
        raise AssertionError("Dataset.matrix() was called")

    monkeypatch.setattr(Dataset, "matrix", refuse)
    monkeypatch.setattr(biasgrid.pca, "FIT_BLOCK_COLS", 100)
    monkeypatch.setattr(biasgrid.dataset, "ROW_BLOCK_BYTES", 3 * 8 * 24 * 24)
    out = run_synth(tmp_path, small_cfg)
    args = ["--config", str(small_cfg), "--out-dir", str(out)]
    assert main(args + ["fit-pca", "--manifest", str(out / "val.jsonl"), "--out", "basis.json"]) == 0
    assert main(args + ["train", "--manifest", str(out / "train.jsonl"), "--out-model", "model.json"]) == 0
    assert main(args + ["visualize", "--manifest", str(out / "val.jsonl"), "--basis", str(out / "basis.json"),
                        "--model", str(out / "model.json"), "--out", "grid.ppm", "--sidecar", "grid.json"]) == 0
    capsys.readouterr()
    data = [load_manifest(out / f"{name}.jsonl") for name in ("train", "val", "pool")]
    cfg = LoopConfig(max_iterations=1, k=1, m=2)
    for runner in (run_loop, run_random_baseline):
        assert len(runner(*data, cfg=cfg, out_dir=tmp_path / runner.__name__)) >= 1


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
