"""Flat key = value run configuration.

One file captures a whole reproducible run: corpus generation, training
hyperparameters, loop settings, render settings, and data paths. Keys are
dotted and flat (no sections), values are typed against a fixed schema,
unknown keys are rejected with their line number, and every path value is
resolved relative to the directory containing the config file.

Each corpus, train, loop, render and grid key is owned by one dataclass
field (OWNED), and that field's default is the key's default; only seed,
run.name and paths.* have defaults written here. Each CLI override flag
sets one of these keys. RunConfig.validate checks every setting at once
and reports an out-of-range value as a ConfigError, which the CLI turns
into exit 2 before any file is read or written.

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
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from .classifier import TrainHyper
from .errors import ConfigError, DataError
from .loop import LoopConfig
from .synth import CorpusSpec

# key -> (type tag, owner dataclass, field) for every key a dataclass owns.
OWNED: dict[str, tuple[str, type, str]] = {
    "corpus.n_train": ("int", CorpusSpec, "n_train"),
    "corpus.n_val": ("int", CorpusSpec, "n_val"),
    "corpus.n_pool": ("int", CorpusSpec, "n_pool"),
    "corpus.train_complexion_mix": ("float", CorpusSpec, "train_complexion_mix"),
    "corpus.noise_sigma": ("float", CorpusSpec, "noise_sigma"),
    "corpus.height": ("int", CorpusSpec, "height"),
    "corpus.width": ("int", CorpusSpec, "width"),
    "train.learning_rate": ("float", TrainHyper, "learning_rate"),
    "train.max_epochs": ("int", TrainHyper, "max_epochs"),
    "train.batch_size": ("int", TrainHyper, "batch_size"),
    "train.l2": ("float", TrainHyper, "l2"),
    "train.early_stop_patience": ("int", TrainHyper, "early_stop_patience"),
    "train.early_stop_min_delta": ("float", TrainHyper, "early_stop_min_delta"),
    "train.val_fraction": ("float", TrainHyper, "val_fraction"),
    "loop.max_iterations": ("int", LoopConfig, "max_iterations"),
    "loop.lr_schedule": ("float_list", LoopConfig, "lr_schedule"),
    "loop.k": ("int", LoopConfig, "k"),
    "loop.m": ("int", LoopConfig, "m"),
    "loop.convergence_min_delta": ("float", LoopConfig, "convergence_min_delta"),
    "loop.convergence_patience": ("int", LoopConfig, "convergence_patience"),
    "loop.weight_mode": ("str", LoopConfig, "weight_mode"),
    "render.cell_px": ("int", LoopConfig, "cell_px"),
    "render.alpha": ("float", LoopConfig, "alpha"),
    "grid.rows": ("int", LoopConfig, "grid_rows"),
    "grid.cols": ("int", LoopConfig, "grid_cols"),
}


def _field_default(owner: type, name: str):
    return next(f.default for f in fields(owner) if f.name == name)


# key -> (type tag, default). Type tags: int, float, str, path,
# float_list (comma separated). Defaults of None mean "absent".
SCHEMA: dict[str, tuple[str, Any]] = {
    "seed": ("int", 0),
    "run.name": ("str", "run"),
    **{key: (kind, _field_default(owner, name)) for key, (kind, owner, name) in OWNED.items()},
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
            if not all(math.isfinite(v) for v in vals):
                raise ValueError("not finite")
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

    def _build(self, owner: type, **extra):
        return owner(**{name: self[key] for key, (_, o, name) in OWNED.items() if o is owner}, **extra)

    def corpus_spec(self) -> CorpusSpec:
        return self._build(CorpusSpec, master_seed=self["seed"])

    def train_hyper(self, seed: int | None = None) -> TrainHyper:
        return self._build(TrainHyper, seed=self["seed"] if seed is None else seed)

    def loop_config(self) -> LoopConfig:
        return self._build(LoopConfig, seed=self["seed"], hyper=self.train_hyper())

    def validate(self) -> None:
        """Check every corpus, train, loop, render and grid setting's range."""
        try:
            self.corpus_spec().validate()
            self.loop_config().validate()
        except DataError as exc:
            raise ConfigError(str(exc)) from None


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
