"""Per-image failure scores and the tinted similarity-grid rendering.

The failure score of an image is the absolute gap between the classifier's
sigmoid output and the binary label, C = |y_pred - y_true|, so 0 means a
confident correct answer and 1 a confident wrong one. The renderer paints
each grid cell with its image, alpha-blended with a color encoding
correctness 1 - C: purple where the model fails, through teal-green, to
yellow where it is right.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classifier import RefModel, predict_dataset
from .dataset import Dataset
from .errors import DataError
from .grid import GridLayout

# Anchor colors for the correctness ramp: failing, middling, correct.
ANCHORS = (
    (0.0, (68.0, 1.0, 84.0)),
    (0.5, (33.0, 145.0, 140.0)),
    (1.0, (253.0, 231.0, 37.0)),
)
EMPTY_CELL_RGB = (128, 128, 128)
DEFAULT_ALPHA = 0.4
DEFAULT_CELL_PX = 32


@dataclass
class FailureScores:
    """Per-image scores in dataset record order: scores = |predictions - labels|."""

    ids: list[str]
    predictions: np.ndarray  # (N,) float64 sigmoid scores
    scores: np.ndarray  # (N,) float64 failure scores


def compute_failures(model: RefModel, dataset: Dataset) -> FailureScores:
    """Score every record: C = |sigmoid score - label|, in dataset order.
    The scores are computed one row block at a time (predict_dataset), so
    no N x P float array of the dataset is built."""
    preds = predict_dataset(model, dataset)
    return FailureScores(ids=dataset.ids(), predictions=preds, scores=np.abs(preds - dataset.labels()))


def check_render_settings(cell_px: int, alpha: float) -> None:
    """Refuse a cell size below 8 px or an overlay opacity outside [0, 1]."""
    if cell_px < 8:
        raise DataError("cell_px must be at least 8")
    if not 0.0 <= alpha <= 1.0:
        raise DataError("alpha must lie in [0, 1]")


def _positions(grid: GridLayout, failures: FailureScores) -> dict[str, int]:
    """Position in failures of every image on the grid."""
    pos = {rec_id: i for i, rec_id in enumerate(failures.ids)}
    for rec_id in grid.assigned_ids():
        if rec_id not in pos:
            raise DataError(f"no failure score for grid cell image '{rec_id}'")
    return pos


def colormap(correctness) -> np.ndarray:
    """Map correctness in [0, 1] to RGB uint8 via the 3-anchor ramp.

    Channels interpolate linearly between the bracketing anchors and round
    to the nearest integer (ties to even, numpy's rint).
    """
    c = np.asarray(correctness, dtype=np.float64)
    if not np.all(np.isfinite(c)) or np.any(c < 0.0) or np.any(c > 1.0):
        raise DataError("correctness values must lie in [0, 1]")
    lo = np.array(ANCHORS[0][1])
    mid = np.array(ANCHORS[1][1])
    hi = np.array(ANCHORS[2][1])
    t = c[..., None]
    low_seg = lo + (mid - lo) * (t / 0.5)
    high_seg = mid + (hi - mid) * ((t - 0.5) / 0.5)
    rgb = np.where(t <= 0.5, low_seg, high_seg)
    return np.rint(rgb).astype(np.uint8)


def _resize_nearest(imgs: np.ndarray, size: int) -> np.ndarray:
    """Nearest-neighbor resize of a K x H x W stack to K x size x size."""
    _, h, w = imgs.shape
    rr = (np.arange(size) * h) // size
    cc = (np.arange(size) * w) // size
    return imgs[:, rr][:, :, cc]


def render(
    grid: GridLayout,
    dataset: Dataset,
    failures: FailureScores,
    cell_px: int = DEFAULT_CELL_PX,
    alpha: float = DEFAULT_ALPHA,
) -> np.ndarray:
    """Paint the grid into a (rows*cell_px, cols*cell_px, 3) uint8 canvas:
    per cell, nearest-neighbor resized image blended with the correctness
    tint; empty cells are flat mid-gray. Each grid row is painted in one
    step: one colormap call, one gather of the dataset's 8-bit levels, one
    blend.

    A helper thread paints the lower half of the grid rows while the
    calling thread paints the upper half (numpy releases the GIL in the
    gathers and the blend). Each row writes only its own slice of the
    canvas with the same arithmetic, so the canvas holds the bytes of a
    one-thread paint. The helper is joined before render returns or
    raises."""
    check_render_settings(cell_px, alpha)
    if failures.ids != dataset.ids():
        raise DataError("failure scores are not the dataset's records in order")
    pos = _positions(grid, failures)
    images = dataset.levels().reshape(len(dataset), dataset.height, dataset.width)
    canvas = np.empty((grid.rows * cell_px, grid.cols * cell_px, 3), dtype=np.uint8)
    # one grid row of the canvas as cell_px x cols x cell_px x 3: cell c is [:, c]
    row_blocks = canvas.reshape(grid.rows, cell_px, grid.cols, cell_px, 3)

    def paint(rows: range) -> None:
        for r in rows:
            block, row = row_blocks[r], grid.cells[r]
            empty = [c for c, rec_id in enumerate(row) if rec_id is None]
            block[:, empty] = EMPTY_CELL_RGB
            occupied = [c for c, rec_id in enumerate(row) if rec_id is not None]
            if not occupied:
                continue
            at = [pos[row[c]] for c in occupied]
            gray = _resize_nearest(images[at], cell_px).astype(np.float64)
            tint = colormap(1.0 - failures.scores[at]).astype(np.float64)
            blended = (1.0 - alpha) * gray[..., None] + alpha * tint[:, None, None, :]
            block[:, occupied] = np.clip(np.rint(blended), 0, 255).astype(np.uint8).swapaxes(0, 1)

    upper = (grid.rows + 1) // 2
    with ThreadPoolExecutor(max_workers=1) as helper:
        lower = helper.submit(paint, range(upper, grid.rows))
        paint(range(upper))
        lower.result()
    return canvas


def grid_sidecar(grid: GridLayout, failures: FailureScores) -> dict:
    """JSON-ready map of cell position -> {id, failure, prediction}."""
    pos = _positions(grid, failures)
    cells: dict[str, dict] = {}
    for r in range(grid.rows):
        for c in range(grid.cols):
            rec_id = grid.cells[r][c]
            if rec_id is None:
                continue
            cells[f"{r},{c}"] = {
                "id": rec_id,
                "failure": float(failures.scores[pos[rec_id]]),
                "prediction": float(failures.predictions[pos[rec_id]]),
            }
    return {"rows": grid.rows, "cols": grid.cols, "cells": cells}


def save_sidecar(grid: GridLayout, failures: FailureScores, path) -> None:
    Path(path).write_text(json.dumps(grid_sidecar(grid, failures)), encoding="utf-8")
