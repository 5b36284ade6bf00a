"""The iterative remediation loop: train, locate failures, sample, match,
fine-tune, repeat.

Iteration 0 trains the base model on the original training set. Each later
iteration scores the validation set with the current model, renders the
similarity grid with the failure overlay, samples hard validation images
in proportion to their failure scores, matches them to nearby augmentation
pool images in projection space, appends the matched records to the
working training set, and fine-tunes at that iteration's learning rate.
The loop stops on a validation-accuracy plateau or after max_iterations.

A random-selection control arm (run_random_baseline) draws the same
per-iteration budget of pool images uniformly instead of by matching, so
targeted and random augmentation can be compared on equal footing.

Subgroup tags on records are used for reporting per-group accuracy only;
no decision in the loop reads them.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .classifier import (
    RefModel,
    TrainHyper,
    accuracy_from_scores,
    fine_tune,
    predict_dataset,
    save_model,
    train,
)
from .dataset import Dataset
from .errors import DataError
from .grid import default_dims, make_grid
from .pca import fit, project
from .saliency import (
    DEFAULT_ALPHA,
    DEFAULT_CELL_PX,
    compute_failures,
    render,
    save_saliency,
)
from .sampler import WEIGHT_MODES, MatchSet, make_weights, match_pool, sample, save_matchset
from .seeding import derive_seed, make_rng


def default_lr_schedule(n: int, first: float = 1e-4, last: float = 1e-6) -> tuple[float, ...]:
    """Geometric ramp from first to last over n fine-tuning iterations."""
    if n <= 0:
        return ()
    if n == 1:
        return (first,)
    ratio = (last / first) ** (1.0 / (n - 1))
    return tuple(first * ratio**i for i in range(n))


@dataclass(frozen=True)
class LoopConfig:
    """Knobs for one remediation run.

    lr_schedule[t-1] is the fine-tune learning rate of iteration t; when
    None a geometric 1e-4 to 1e-6 ramp over max_iterations is used. k is
    the number of validation draws per iteration (default ceil(0.1 * N_val))
    and m the pool neighbors per draw.
    """

    max_iterations: int = 7
    lr_schedule: tuple[float, ...] | None = None
    k: int | None = None
    m: int = 5
    convergence_min_delta: float = 0.002
    convergence_patience: int = 2
    seed: int = 0
    weight_mode: str = "failure"
    hyper: TrainHyper = field(default_factory=TrainHyper)
    cell_px: int = DEFAULT_CELL_PX
    alpha: float = DEFAULT_ALPHA
    grid_rows: int | None = None
    grid_cols: int | None = None

    def resolved_schedule(self) -> tuple[float, ...]:
        sched = self.lr_schedule if self.lr_schedule is not None else default_lr_schedule(self.max_iterations)
        if len(sched) < self.max_iterations:
            raise DataError(
                f"lr_schedule has {len(sched)} entries but max_iterations is {self.max_iterations}"
            )
        if any(lr <= 0.0 for lr in sched):
            raise DataError("all scheduled learning rates must be positive")
        return tuple(sched)

    def resolved_k(self, n_val: int) -> int:
        k = self.k if self.k is not None else math.ceil(0.1 * n_val)
        if k < 1:
            raise DataError("k must be at least 1")
        return k

    def validate(self) -> None:
        if self.max_iterations < 0:
            raise DataError("max_iterations must be >= 0")
        if self.m < 1:
            raise DataError("m must be at least 1")
        if self.convergence_min_delta < 0.0:
            raise DataError("convergence_min_delta must be >= 0")
        if self.convergence_patience < 1:
            raise DataError("convergence_patience must be >= 1")
        if self.weight_mode not in WEIGHT_MODES:
            raise DataError(f"unknown weight mode '{self.weight_mode}' (expected one of {WEIGHT_MODES})")
        if self.max_iterations > 0:
            self.resolved_schedule()


@dataclass
class LoopState:
    """Everything recorded about one iteration."""

    iteration: int
    val_accuracy: float
    group_accuracies: dict[str, float]
    test_accuracy: float | None
    selected_val_ids: list[str]
    matched_pool_ids: list[str]
    train_size: int
    selection_mode: str | None = None
    model_path: str | None = None
    saliency_path: str | None = None

    def to_json(self) -> dict:
        return {
            "iteration": self.iteration,
            "val_accuracy": self.val_accuracy,
            "group_accuracies": self.group_accuracies,
            "test_accuracy": self.test_accuracy,
            "selected_val_ids": self.selected_val_ids,
            "matched_pool_ids": self.matched_pool_ids,
            "train_size": self.train_size,
            "selection_mode": self.selection_mode,
            "model_path": self.model_path,
            "saliency_path": self.saliency_path,
        }


def group_accuracy(dataset: Dataset, scores: np.ndarray) -> dict[str, float]:
    """Accuracy per group tag (records without a tag are skipped)."""
    labels = dataset.labels()
    hits = (scores >= 0.5) == (labels == 1)
    out: dict[str, float] = {}
    groups = dataset.groups()
    for g in sorted({g for g in groups if g is not None}):
        mask = np.array([gi == g for gi in groups])
        out[g] = float(np.mean(hits[mask]))
    return out


def _assert_disjoint(working_ids: set[str], val: Dataset, test: Dataset | None) -> None:
    for name, ds in (("validation", val), ("test", test)):
        if ds is None:
            continue
        leaked = working_ids.intersection(ds.ids())
        if leaked:
            raise DataError(f"{name} record '{sorted(leaked)[0]}' leaked into the training set")


def _uniform_pool_draw(pool_ids: Sequence[str], count: int, seed: int) -> MatchSet:
    """Control arm: count uniform draws (with replacement) then dedup."""
    rng = make_rng(seed)
    idx = rng.integers(0, len(pool_ids), size=count)
    matched: list[str] = []
    seen: set[str] = set()
    for i in idx:
        pid = pool_ids[int(i)]
        if pid not in seen:
            seen.add(pid)
            matched.append(pid)
    return MatchSet(sampled_val_ids=[], matched_pool_ids=matched, matches=[], mode="random", seed=seed)


def _evaluate(model: RefModel, val: Dataset, test: Dataset | None) -> tuple[float, dict[str, float], float | None]:
    val_scores = predict_dataset(model, val)
    val_acc = accuracy_from_scores(val_scores, val.labels())
    groups = group_accuracy(val, val_scores)
    test_acc = None
    if test is not None:
        test_acc = accuracy_from_scores(predict_dataset(model, test), test.labels())
    return val_acc, groups, test_acc


def _run(
    train_ds: Dataset,
    val: Dataset,
    pool: Dataset,
    test: Dataset | None,
    cfg: LoopConfig,
    out_dir,
    select: Callable[[int, object, np.ndarray, np.ndarray], MatchSet],
) -> list[LoopState]:
    cfg.validate()
    if len(pool.records) == 0:
        raise DataError("augmentation pool is empty")
    for ds, name in ((val, "validation"), (pool, "pool")):
        if (ds.height, ds.width) != (train_ds.height, train_ds.width):
            raise DataError(f"{name} image dimensions do not match the training set")
    if test is not None and (test.height, test.width) != (train_ds.height, train_ds.width):
        raise DataError("test image dimensions do not match the training set")

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        # an earlier run into this directory may have gone more iterations;
        # drop its outputs so the tree matches this run's summary.jsonl
        for stale in out_path.glob("iter-*"):
            if stale.is_dir():
                shutil.rmtree(stale)
        (out_path / "summary.jsonl").unlink(missing_ok=True)

    basis = fit(val)
    val_coords = project(basis, val)
    pool_coords = project(basis, pool)
    rows, cols = cfg.grid_rows, cfg.grid_cols
    if rows is None or cols is None:
        d_rows, d_cols = default_dims(len(val.records))
        rows = rows if rows is not None else d_rows
        cols = cols if cols is not None else d_cols
    grid = make_grid(val_coords, rows, cols, ids=val.ids())

    sched = cfg.resolved_schedule() if cfg.max_iterations > 0 else ()

    working = train_ds
    working_ids = set(working.ids())
    _assert_disjoint(working_ids, val, test)

    model = train(working, replace(cfg.hyper, seed=derive_seed(cfg.seed, "train", "0")))
    states: list[LoopState] = []

    def record(
        t: int,
        sel: list[str],
        matched: list[str],
        mode: str | None,
        sal_rel: str | None,
        trained: RefModel | None,
    ) -> LoopState:
        val_acc, groups, test_acc = _evaluate(model, val, test)
        model_rel = None
        if out_path is not None:
            iter_dir = out_path / f"iter-{t}"
            iter_dir.mkdir(parents=True, exist_ok=True)
            model_rel = f"iter-{t}/model.json"
            save_model(model, iter_dir / "model.json")
            metrics = {
                "iteration": t,
                "val_accuracy": val_acc,
                "group_accuracies": groups,
                "test_accuracy": test_acc,
                "train_size": len(working.records),
                "learning_rate": cfg.hyper.learning_rate if t == 0 else sched[t - 1],
                "n_selected": len(sel),
                "n_matched": len(matched),
                "selection_mode": mode,
                "epochs_run": trained.trained_epochs if trained is not None else None,
                "best_epoch": trained.best_epoch if trained is not None else None,
            }
            (iter_dir / "metrics.json").write_text(json.dumps(metrics), encoding="utf-8")
        state = LoopState(
            iteration=t,
            val_accuracy=val_acc,
            group_accuracies=groups,
            test_accuracy=test_acc,
            selected_val_ids=sel,
            matched_pool_ids=matched,
            train_size=len(working.records),
            selection_mode=mode,
            model_path=model_rel,
            saliency_path=sal_rel,
        )
        states.append(state)
        return state

    record(0, [], [], None, None, model)
    best_acc = states[0].val_accuracy
    flat_iters = 0

    for t in range(1, cfg.max_iterations + 1):
        failures = compute_failures(model, val)
        sal_rel = None
        if out_path is not None:
            iter_dir = out_path / f"iter-{t}"
            iter_dir.mkdir(parents=True, exist_ok=True)
            image = render(grid, val, failures, cell_px=cfg.cell_px, alpha=cfg.alpha)
            sal_rel = f"iter-{t}/saliency.ppm"
            save_saliency(image, iter_dir / "saliency.ppm")

        ms = select(t, failures, val_coords, pool_coords)
        if out_path is not None:
            save_matchset(ms, out_path / f"iter-{t}" / "matchset.json")

        trained = None
        if ms.matched_pool_ids:
            new_records = [
                pool.record_by_id(pid) for pid in ms.matched_pool_ids if pid not in working_ids
            ]
            if new_records:
                working = working.appended(new_records)
                working_ids.update(rec.id for rec in new_records)
                _assert_disjoint(working_ids, val, test)
            ft_hyper = replace(
                cfg.hyper,
                learning_rate=sched[t - 1],
                seed=derive_seed(cfg.seed, "train", str(t)),
            )
            model = trained = fine_tune(model, working, ft_hyper)

        state = record(t, ms.sampled_val_ids, ms.matched_pool_ids, ms.mode, sal_rel, trained)

        if state.val_accuracy - best_acc < cfg.convergence_min_delta:
            flat_iters += 1
        else:
            flat_iters = 0
        best_acc = max(best_acc, state.val_accuracy)
        if flat_iters >= cfg.convergence_patience:
            break

    if out_path is not None:
        lines = [json.dumps(s.to_json()) for s in states]
        (out_path / "summary.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return states


def run_loop(
    train_ds: Dataset,
    val: Dataset,
    pool: Dataset,
    test: Dataset | None = None,
    cfg: LoopConfig = LoopConfig(),
    out_dir=None,
) -> list[LoopState]:
    """Targeted remediation: sample validation failures, match pool images."""
    k = cfg.resolved_k(len(val.records))

    def select(t: int, failures, val_coords, pool_coords) -> MatchSet:
        weights = make_weights(failures, cfg.weight_mode)
        seed = derive_seed(cfg.seed, "sample", str(t))
        chosen = sample(weights, k, seed)
        ms = match_pool(chosen, val.ids(), val_coords, pool.ids(), pool_coords, cfg.m)
        ms.mode = cfg.weight_mode
        ms.seed = seed
        return ms

    return _run(train_ds, val, pool, test, cfg, out_dir, select)


def run_random_baseline(
    train_ds: Dataset,
    val: Dataset,
    pool: Dataset,
    test: Dataset | None = None,
    cfg: LoopConfig = LoopConfig(),
    out_dir=None,
) -> list[LoopState]:
    """Control arm: per iteration, k*m uniform pool draws instead of matching."""
    k = cfg.resolved_k(len(val.records))
    budget = k * cfg.m
    pool_ids = pool.ids()

    def select(t: int, failures, val_coords, pool_coords) -> MatchSet:
        return _uniform_pool_draw(pool_ids, budget, derive_seed(cfg.seed, "baseline", str(t)))

    return _run(train_ds, val, pool, test, cfg, out_dir, select)
