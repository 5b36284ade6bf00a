"""The iterative remediation loop: train, locate failures, select rows,
fine-tune, repeat.

Iteration 0 trains the base model on the original training set. Each later
iteration renders the similarity grid with the current model's failure
overlay, asks a selector for (MatchSet, Dataset), the audit record saved
as matchset.json and the rows to add, appends the rows the working set
lacks (copied once, into a new working set), and
fine-tunes at that iteration's learning rate. Rows may come from anywhere
but the validation and test sets. Each trained model scores the validation
set once, for its record and the next iteration, and a model no fine-tune
replaced keeps its scores. The loop stops on a validation-accuracy plateau
or after max_iterations.

The targeted arm (run_loop) takes the pool images nearest to validation
images drawn by failure score. The control arm (run_random_baseline) draws
the same budget of pool images uniformly, for comparison on equal footing.

Subgroup tags on records are used for reporting per-group accuracy only;
no decision in the loop reads them.
"""

from __future__ import annotations

import functools
import json
import math
import shutil
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable

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
from .grid import make_grid
from .pca import fit, project
from .saliency import (
    DEFAULT_ALPHA,
    DEFAULT_CELL_PX,
    FailureScores,
    check_render_settings,
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
        if self.k is not None and self.k < 1:
            raise DataError("k must be at least 1")
        if self.m < 1:
            raise DataError("m must be at least 1")
        if self.convergence_min_delta < 0.0:
            raise DataError("convergence_min_delta must be >= 0")
        if self.convergence_patience < 1:
            raise DataError("convergence_patience must be >= 1")
        if self.weight_mode not in WEIGHT_MODES:
            raise DataError(f"unknown weight mode '{self.weight_mode}' (expected one of {WEIGHT_MODES})")
        if any(n is not None and n < 1 for n in (self.grid_rows, self.grid_cols)):
            raise DataError("rows and cols must be >= 1")
        check_render_settings(self.cell_px, self.alpha)
        if self.max_iterations > 0:
            self.resolved_schedule()
        self.hyper.validate()


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


def group_accuracy(dataset: Dataset, scores: np.ndarray) -> dict[str, float]:
    """Accuracy per group tag (records without a tag are skipped)."""
    labels = dataset.labels()
    groups = dataset.groups()
    out: dict[str, float] = {}
    for g in sorted({g for g in groups if g is not None}):
        mask = np.array([gi == g for gi in groups])
        out[g] = accuracy_from_scores(scores[mask], labels[mask])
    return out


def _uniform_pool_draw(pool: Dataset, count: int, seed: int) -> tuple[MatchSet, Dataset]:
    """Control arm: count uniform draws (with replacement), deduplicated in draw order."""
    idx = make_rng(seed).integers(0, len(pool), size=count)
    rows = pool.take(list(dict.fromkeys(idx.tolist())))
    ms = MatchSet(sampled_val_ids=[], matched_pool_ids=rows.ids(), matches=[], mode="random", seed=seed)
    return ms, rows


def _run(
    train_ds: Dataset,
    val: Dataset,
    pool: Dataset,
    test: Dataset | None,
    cfg: LoopConfig,
    out_dir,
    select: Callable[[int, FailureScores, np.ndarray, Callable[[], np.ndarray]], tuple[MatchSet, Dataset]],
) -> list[LoopState]:
    cfg.validate()
    if len(pool) == 0:
        raise DataError("augmentation pool is empty")
    for ds, name in ((val, "validation"), (pool, "pool"), (test, "test")):
        if ds is not None and (ds.height, ds.width) != (train_ds.height, train_ds.width):
            raise DataError(f"{name} image dimensions do not match the training set")
    held_out = [
        (name, set(ds.ids())) for ds, name in ((val, "validation"), (test, "test")) if ds is not None
    ]

    def refuse_leaks(ids: Iterable[str]) -> None:
        for name, held in held_out:
            leaked = held.intersection(ids)
            if leaked:
                raise DataError(f"{name} record '{sorted(leaked)[0]}' leaked into the training set")

    working = train_ds
    refuse_leaks(working.ids())

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        # an earlier run into this directory may have gone more iterations;
        # drop its outputs so the tree matches this run's summary.jsonl
        for stale in out_path.glob("iter-*"):
            if stale.is_dir():
                shutil.rmtree(stale)
        (out_path / "summary.jsonl").unlink(missing_ok=True)

    # the fit reads the validation set in column blocks, the projection and
    # every scoring in row blocks: no stage holds a float copy of a set
    basis = fit(val)
    val_coords = project(basis, val)
    # the pool is projected on a selector's first request, and only then
    project_pool = functools.cache(lambda: project(basis, pool))
    grid = make_grid(val_coords, cfg.grid_rows, cfg.grid_cols, ids=val.ids())

    sched = cfg.resolved_schedule() if cfg.max_iterations > 0 else ()

    def score(model: RefModel) -> tuple[FailureScores, float | None]:
        """The one scoring of a freshly trained model: validation failures and test accuracy."""
        failures = compute_failures(model, val)
        test_acc = None
        if test is not None:
            test_acc = accuracy_from_scores(predict_dataset(model, test), test.labels())
        return failures, test_acc

    model = trained = train(working, replace(cfg.hyper, seed=derive_seed(cfg.seed, "train", "0")))
    failures, test_acc = score(model)
    sel, matched, mode, sal_rel = [], [], None, None  # iteration 0 selects nothing
    states: list[LoopState] = []
    flat_iters = 0

    for t in range(cfg.max_iterations + 1):
        iter_dir = out_path / f"iter-{t}" if out_path is not None else None
        if iter_dir is not None:
            iter_dir.mkdir(exist_ok=True)
        if t > 0:
            if iter_dir is not None:
                sal_rel = f"iter-{t}/saliency.ppm"
                image = render(grid, val, failures, cell_px=cfg.cell_px, alpha=cfg.alpha)
                save_saliency(image, out_path / sal_rel)
            ms, rows = select(t, failures, val_coords, project_pool)
            sel, matched, mode = ms.sampled_val_ids, ms.matched_pool_ids, ms.mode
            if iter_dir is not None:
                save_matchset(ms, iter_dir / "matchset.json")
            trained = None
            if len(rows):
                held = set(working.ids())
                ids = rows.ids()
                new = [i for i, rec_id in enumerate(ids) if rec_id not in held]
                if new:
                    refuse_leaks([ids[i] for i in new])
                    working = working.appended(rows, new)
                ft_hyper = replace(
                    cfg.hyper,
                    learning_rate=sched[t - 1],
                    seed=derive_seed(cfg.seed, "train", str(t)),
                )
                model = trained = fine_tune(model, working, ft_hyper)
                failures, test_acc = score(model)

        state = LoopState(
            iteration=t,
            val_accuracy=accuracy_from_scores(failures.predictions, val.labels()),
            group_accuracies=group_accuracy(val, failures.predictions),
            test_accuracy=test_acc,
            selected_val_ids=sel,
            matched_pool_ids=matched,
            train_size=len(working),
            selection_mode=mode,
            saliency_path=sal_rel,
        )
        states.append(state)
        if iter_dir is not None:
            state.model_path = f"iter-{t}/model.json"
            save_model(model, out_path / state.model_path)
            metrics = {
                "iteration": t,
                "val_accuracy": state.val_accuracy,
                "group_accuracies": state.group_accuracies,
                "test_accuracy": test_acc,
                "train_size": state.train_size,
                "learning_rate": cfg.hyper.learning_rate if t == 0 else sched[t - 1],
                "n_selected": len(sel),
                "n_matched": len(matched),
                "selection_mode": mode,
                "epochs_run": trained.trained_epochs if trained is not None else None,
                "best_epoch": trained.best_epoch if trained is not None else None,
            }
            (iter_dir / "metrics.json").write_text(json.dumps(metrics), encoding="utf-8")

        if t > 0:
            best_acc = max(s.val_accuracy for s in states[:-1])
            flat_iters = flat_iters + 1 if state.val_accuracy - best_acc < cfg.convergence_min_delta else 0
            if flat_iters >= cfg.convergence_patience:
                break

    if out_path is not None:
        lines = [json.dumps(asdict(s)) for s in states]
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
    k = cfg.resolved_k(len(val))
    pool_row = {pid: i for i, pid in enumerate(pool.ids())}

    def select(t: int, failures, val_coords, project_pool) -> tuple[MatchSet, Dataset]:
        weights = make_weights(failures, cfg.weight_mode)
        seed = derive_seed(cfg.seed, "sample", str(t))
        chosen = sample(weights, k, seed)
        ms = match_pool(chosen, val.ids(), val_coords, pool.ids(), project_pool(), cfg.m)
        ms.mode = cfg.weight_mode
        ms.seed = seed
        return ms, pool.take([pool_row[pid] for pid in ms.matched_pool_ids])

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
    k = cfg.resolved_k(len(val))
    budget = k * cfg.m

    def select(t: int, failures, val_coords, project_pool) -> tuple[MatchSet, Dataset]:
        return _uniform_pool_draw(pool, budget, derive_seed(cfg.seed, "baseline", str(t)))

    return _run(train_ds, val, pool, test, cfg, out_dir, select)
