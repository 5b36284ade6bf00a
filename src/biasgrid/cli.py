"""Command-line entry point.

Subcommands: synth, fit-pca, train, visualize, loop. Every run is driven
by a flat key = value config file plus flag overrides; all randomness
flows from the single seed in that config. Each override flag sets one
config key (its argparse dest), and the whole config is checked before
any file is read or written, so an out-of-range setting exits 2 under
every subcommand. Exit codes: 0 success, 2 config error, 3 data error,
4 numerical error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from .classifier import load_model, save_model, train
from .config import SCHEMA, RunConfig, default_config, load_config
from .dataset import load_manifest, save_dataset
from .errors import BiasgridError, ConfigError, DataError, NumericalError
from .grid import make_grid
from .loop import run_loop, run_random_baseline
from .netpbm import write_ppm
from .pca import fit, load_basis, project, save_basis
from .saliency import compute_failures, render, save_sidecar
from .sampler import WEIGHT_MODES
from .seeding import derive_seed
from .synth import generate_corpus


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biasgrid",
        description=(
            "Locate subgroup failures of a binary image classifier on a PCA "
            "similarity grid and remediate them by failure-weighted sampling "
            "and iterative fine-tuning."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--config", type=Path, help="path to a key = value config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out-dir", dest="paths.out_dir", type=Path, help="override the output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate the synthetic face corpus")
    p_synth.set_defaults(func=cmd_synth)

    p_pca = sub.add_parser("fit-pca", help="fit a 2-D PCA basis from a manifest")
    p_pca.add_argument("--manifest", type=Path, required=True, help="dataset manifest (JSONL)")
    p_pca.add_argument("--out", type=Path, required=True, help="output basis file (JSON)")
    p_pca.set_defaults(func=cmd_fit_pca)

    p_train = sub.add_parser("train", help="train the reference classifier")
    p_train.add_argument("--manifest", type=Path, required=True, help="training manifest (JSONL)")
    p_train.add_argument("--out-model", type=Path, required=True, help="output model file (JSON)")
    p_train.set_defaults(func=cmd_train)

    p_vis = sub.add_parser("visualize", help="render the similarity grid with failure overlay")
    p_vis.add_argument("--manifest", type=Path, required=True, help="dataset manifest (JSONL)")
    p_vis.add_argument("--basis", type=Path, required=True, help="PCA basis file")
    p_vis.add_argument("--model", type=Path, required=True, help="classifier model file")
    p_vis.add_argument("--out", type=Path, required=True, help="output image (PPM)")
    p_vis.add_argument("--rows", dest="grid.rows", type=int, help="grid rows (default: floor(sqrt(N)))")
    p_vis.add_argument("--cols", dest="grid.cols", type=int, help="grid cols (default: floor(sqrt(N)))")
    p_vis.add_argument("--cell-px", dest="render.cell_px", type=int, help="cell size in pixels")
    p_vis.add_argument("--alpha", dest="render.alpha", type=float, help="overlay opacity in [0, 1]")
    p_vis.add_argument("--sidecar", type=Path, help="also write a cell -> score JSON map here")
    p_vis.set_defaults(func=cmd_visualize)

    p_loop = sub.add_parser("loop", help="run the iterative remediation loop")
    p_loop.add_argument(
        "--baseline",
        choices=("targeted", "random"),
        default="targeted",
        help="selection strategy: targeted matching or uniform-random control",
    )
    p_loop.add_argument(
        "--weight-mode",
        dest="loop.weight_mode",
        choices=WEIGHT_MODES,
        help="sampling weights: toward high failure (failure) or low (success)",
    )
    p_loop.add_argument("--run-name", dest="run.name", help="run directory name under <out-dir>/runs/")
    p_loop.set_defaults(func=cmd_loop)

    return parser


def _load_run_config(args) -> RunConfig:
    """The config file (or the defaults) with every given flag applied, checked whole."""
    cfg = load_config(args.config) if args.config is not None else default_config()
    for key, value in vars(args).items():
        if key in SCHEMA and value is not None:
            cfg.override(key, value.resolve() if SCHEMA[key][0] == "path" else value)
    cfg.validate()
    return cfg


def _out_dir(cfg: RunConfig) -> Path:
    return Path(cfg["paths.out_dir"])


def _resolve_out(cfg: RunConfig, path: Path) -> Path:
    """Relative output paths land inside the configured output directory."""
    return path if path.is_absolute() else _out_dir(cfg) / path


def cmd_synth(args) -> int:
    cfg = _load_run_config(args)
    spec = cfg.corpus_spec()
    out = _out_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    train_ds, val_ds, pool_ds = generate_corpus(spec)
    for name, ds in (("train", train_ds), ("val", val_ds), ("pool", pool_ds)):
        manifest = out / f"{name}.jsonl"
        save_dataset(ds, manifest)
        print(f"wrote {manifest} ({len(ds)} records)")
    return 0


def cmd_fit_pca(args) -> int:
    cfg = _load_run_config(args)
    ds = load_manifest(args.manifest)
    basis = fit(ds)
    out = _resolve_out(cfg, args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_basis(basis, out)
    print(f"wrote {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    ds = load_manifest(args.manifest)
    hyper = cfg.train_hyper(seed=derive_seed(cfg["seed"], "train", "0"))
    model = train(ds, hyper)
    out = _resolve_out(cfg, args.out_model)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(model, out)
    print(f"wrote {out} ({model.trained_epochs} epochs)")
    return 0


def cmd_visualize(args) -> int:
    cfg = _load_run_config(args)
    ds = load_manifest(args.manifest)
    basis = load_basis(args.basis)
    model = load_model(args.model)
    # each reads ds in row blocks of floats and holds no float matrix of it
    coords = project(basis, ds)
    grid = make_grid(coords, cfg["grid.rows"], cfg["grid.cols"], ids=ds.ids())
    failures = compute_failures(model, ds)
    canvas = render(grid, ds, failures, cell_px=cfg["render.cell_px"], alpha=cfg["render.alpha"])
    out = _resolve_out(cfg, args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_ppm(out, canvas)
    print(f"wrote {out} ({grid.rows}x{grid.cols} cells)")
    if args.sidecar is not None:
        sidecar = _resolve_out(cfg, args.sidecar)
        save_sidecar(grid, failures, sidecar)
        print(f"wrote {sidecar}")
    return 0


def cmd_loop(args) -> int:
    cfg = _load_run_config(args)
    loop_cfg = cfg.loop_config()
    manifest_keys = ("paths.train_manifest", "paths.val_manifest", "paths.pool_manifest")
    given = [k for k in manifest_keys if cfg[k] is not None]
    if not given:
        # No manifests configured: generate the corpus from corpus.* settings.
        train_ds, val_ds, pool_ds = generate_corpus(cfg.corpus_spec())
    elif len(given) == len(manifest_keys):
        train_ds = load_manifest(cfg["paths.train_manifest"])
        val_ds = load_manifest(cfg["paths.val_manifest"])
        pool_ds = load_manifest(cfg["paths.pool_manifest"])
    else:
        missing = sorted(set(manifest_keys) - set(given))
        raise ConfigError(
            "either configure all of train/val/pool manifests or none of them; "
            f"missing {', '.join(missing)}"
        )
    test_ds = None
    if cfg["paths.test_manifest"] is not None:
        test_ds = load_manifest(cfg["paths.test_manifest"])

    run_dir = _out_dir(cfg) / "runs" / cfg["run.name"]
    run_dir.mkdir(parents=True, exist_ok=True)
    lock_path = run_dir / ".lock"
    try:
        lock_fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise DataError(
            f"run directory {run_dir} is locked by another invocation (remove {lock_path} if stale)"
        ) from None
    try:
        os.close(lock_fd)
        runner = run_loop if args.baseline == "targeted" else run_random_baseline
        states = runner(train_ds, val_ds, pool_ds, test_ds, loop_cfg, out_dir=run_dir)
    finally:
        lock_path.unlink(missing_ok=True)
    final = states[-1]
    print(f"wrote {run_dir / 'summary.jsonl'} ({len(states)} iterations)")
    print(f"final val accuracy {final.val_accuracy:.4f} (train size {final.train_size})")
    for group, acc in final.group_accuracies.items():
        print(f"final val accuracy[{group}] {acc:.4f}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"biasgrid: config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"biasgrid: data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"biasgrid: numerical error: {exc}", file=sys.stderr)
        return 4
    except BiasgridError as exc:
        print(f"biasgrid: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
