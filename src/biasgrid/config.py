"""Flat key = value run configuration.

One file captures a whole reproducible run: corpus generation, training
hyperparameters, loop settings, render settings, and data paths. Keys are
dotted and flat (no sections), values are typed against a fixed schema,
unknown keys are rejected with their line number, and every path value is
resolved relative to the directory containing the config file.

Example:

    seed = 7
    corpus.n_train = 1000
    train.learning_rate = 0.05
    loop.max_iterations = 7
    loop.weight_mode = failure
    paths.train_manifest = data/train.jsonl
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .classifier import TrainHyper
from .errors import ConfigError
from .loop import LoopConfig
from .synth import CorpusSpec

# key -> (type tag, default). Type tags: int, float, str, path,
# float_list (comma separated). Defaults of None mean "absent".
SCHEMA: dict[str, tuple[str, Any]] = {
    "seed": ("int", 0),
    "run.name": ("str", "run"),
    "corpus.n_train": ("int", 1000),
    "corpus.n_val": ("int", 300),
    "corpus.n_pool": ("int", 1200),
    "corpus.train_complexion_mix": ("float", 0.95),
    "corpus.noise_sigma": ("float", 0.10),
    "corpus.height": ("int", 64),
    "corpus.width": ("int", 64),
    "train.learning_rate": ("float", 0.05),
    "train.max_epochs": ("int", 200),
    "train.batch_size": ("int", 32),
    "train.l2": ("float", 1e-4),
    "train.early_stop_patience": ("int", 25),
    "train.early_stop_min_delta": ("float", 0.0),
    "train.val_fraction": ("float", 0.1),
    "loop.max_iterations": ("int", 7),
    "loop.lr_schedule": ("float_list", None),
    "loop.k": ("int", None),
    "loop.m": ("int", 5),
    "loop.convergence_min_delta": ("float", 0.002),
    "loop.convergence_patience": ("int", 2),
    "loop.weight_mode": ("str", "failure"),
    "render.cell_px": ("int", 32),
    "render.alpha": ("float", 0.4),
    "grid.rows": ("int", None),
    "grid.cols": ("int", None),
    "paths.out_dir": ("path", "."),
    "paths.train_manifest": ("path", None),
    "paths.val_manifest": ("path", None),
    "paths.pool_manifest": ("path", None),
    "paths.test_manifest": ("path", None),
}

def _convert(key: str, raw: str, kind: str, lineno: int, base_dir: Path):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            v = float(raw)
            if not math.isfinite(v):
                raise ValueError("not finite")
            return v
        if kind == "str":
            return raw
        if kind == "path":
            return (base_dir / raw).resolve()
        if kind == "float_list":
            vals = tuple(float(part.strip()) for part in raw.split(",") if part.strip())
            if not vals:
                raise ValueError("empty list")
            return vals
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: key '{key}': cannot parse '{raw}' as {kind} ({exc})") from exc
    raise ConfigError(f"key '{key}': unknown schema type '{kind}'")


@dataclass
class RunConfig:
    """Parsed, typed view of one config file."""

    values: dict[str, Any] = field(default_factory=dict)
    source: Path | None = None

    def __getitem__(self, key: str):
        return self.values[key]

    def override(self, key: str, value) -> None:
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key '{key}'")
        self.values[key] = value

    def corpus_spec(self) -> CorpusSpec:
        return CorpusSpec(
            n_train=self["corpus.n_train"],
            n_val=self["corpus.n_val"],
            n_pool=self["corpus.n_pool"],
            train_complexion_mix=self["corpus.train_complexion_mix"],
            noise_sigma=self["corpus.noise_sigma"],
            master_seed=self["seed"],
            height=self["corpus.height"],
            width=self["corpus.width"],
        )

    def train_hyper(self, seed: int | None = None) -> TrainHyper:
        return TrainHyper(
            learning_rate=self["train.learning_rate"],
            max_epochs=self["train.max_epochs"],
            batch_size=self["train.batch_size"],
            l2=self["train.l2"],
            early_stop_patience=self["train.early_stop_patience"],
            early_stop_min_delta=self["train.early_stop_min_delta"],
            seed=self["seed"] if seed is None else seed,
            val_fraction=self["train.val_fraction"],
        )

    def loop_config(self) -> LoopConfig:
        return LoopConfig(
            max_iterations=self["loop.max_iterations"],
            lr_schedule=self["loop.lr_schedule"],
            k=self["loop.k"],
            m=self["loop.m"],
            convergence_min_delta=self["loop.convergence_min_delta"],
            convergence_patience=self["loop.convergence_patience"],
            seed=self["seed"],
            weight_mode=self["loop.weight_mode"],
            hyper=self.train_hyper(),
            cell_px=self["render.cell_px"],
            alpha=self["render.alpha"],
            grid_rows=self["grid.rows"],
            grid_cols=self["grid.cols"],
        )


def default_config() -> RunConfig:
    return RunConfig(values={key: default for key, (_, default) in SCHEMA.items()})


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    base_dir = path.resolve().parent
    cfg = default_config()
    cfg.source = path
    seen: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value', got '{stripped}'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{path}: line {lineno}: unknown config key '{key}'")
        if key in seen:
            raise ConfigError(
                f"{path}: line {lineno}: key '{key}' already set on line {seen[key]}"
            )
        seen[key] = lineno
        kind, _ = SCHEMA[key]
        try:
            cfg.values[key] = _convert(key, raw, kind, lineno, base_dir)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    return cfg
