"""Failure scores, colormap exactness, and grid rendering."""

import json
import math

import numpy as np
import pytest

from biasgrid.classifier import RefModel
from biasgrid.dataset import Dataset, ImageRecord
from biasgrid.errors import DataError
from biasgrid.grid import make_grid
from biasgrid.saliency import (
    ANCHORS,
    EMPTY_CELL_RGB,
    FailureScores,
    colormap,
    compute_failures,
    grid_sidecar,
    render,
    save_saliency,
    save_sidecar,
)
from oracles import per_pixel_render


def flat_dataset(values, side=8):
    return Dataset.from_records(
        [ImageRecord(f"f{i}", np.full((side, side), v), i % 2) for i, v in enumerate(values)]
    )


def failures_of(ids, preds, labels):
    """FailureScores as compute_failures builds them, from given predictions."""
    preds = np.asarray(preds, dtype=np.float64)
    return FailureScores(ids=list(ids), predictions=preds, scores=np.abs(preds - np.asarray(labels)))


def test_colormap_anchors_are_exact():
    rgb = colormap(np.array([0.0, 0.5, 1.0]))
    assert rgb.dtype == np.uint8
    assert rgb.tolist() == [[68, 1, 84], [33, 145, 140], [253, 231, 37]]


def test_colormap_midpoints_round_ties_to_even():
    assert colormap(0.75).tolist() == [143, 188, 88]  # blue hits 88.5
    assert colormap(0.25).tolist() == [50, 73, 112]  # red hits 50.5


def test_colormap_rejects_out_of_range():
    for bad in (-0.01, 1.01, np.nan):
        with pytest.raises(DataError, match="correctness"):
            colormap(np.array([bad]))


def test_compute_failures_is_score_label_gap():
    ds = flat_dataset([0.2, 0.8])
    model = RefModel(weights=np.zeros(64), bias=0.0)  # every score is 0.5
    failures = compute_failures(model, ds)
    assert failures.ids == ["f0", "f1"]
    assert failures.scores.dtype == np.float64 and failures.scores.tolist() == [0.5, 0.5]
    assert failures.predictions.dtype == np.float64 and failures.predictions.tolist() == [0.5, 0.5]


def test_compute_failures_keeps_dataset_order():
    # ids out of sorted order and distinct scores: every array follows the records
    rows = (("z", 230 / 255, 0), ("a", 51 / 255, 1), ("m", 128 / 255, 1))
    ds = Dataset.from_records([ImageRecord(i, np.full((2, 2), v), y) for i, v, y in rows])
    model = RefModel(weights=np.full(4, 2.0), bias=-4.0)  # score = sigmoid(8 v - 4)
    failures = compute_failures(model, ds)
    preds = [1.0 / (1.0 + math.exp(4.0 - 8.0 * v)) for _, v, _ in rows]
    assert failures.ids == ["z", "a", "m"]
    assert failures.predictions.tolist() == pytest.approx(preds)
    assert failures.scores.tolist() == pytest.approx([abs(p - y) for p, (_, _, y) in zip(preds, rows)])


def test_render_blends_image_and_tint_exactly():
    ds = Dataset.from_records([ImageRecord("solo", np.full((32, 32), 0.5), 0)])
    grid = make_grid(np.array([[0.0, 0.0]]), 1, 1, ids=["solo"])
    failures = failures_of(["solo"], [1.0], [0.0])  # C=1, correctness 0
    img = render(grid, ds, failures, cell_px=32, alpha=0.4)
    # gray 128 blended with the failing anchor (68, 1, 84)
    assert img.pixels.shape == (32, 32, 3)
    assert np.all(img.pixels == np.array([104, 77, 110], dtype=np.uint8))


def test_render_alpha_zero_is_nearest_neighbor_grayscale():
    px = np.arange(64, dtype=np.float64).reshape(8, 8) / 63.0
    ds = Dataset.from_records([ImageRecord("im", px, 0)])
    grid = make_grid(np.array([[0.0, 0.0]]), 1, 1, ids=["im"])
    failures = failures_of(["im"], [0.0], [0.0])
    img = render(grid, ds, failures, cell_px=16, alpha=0.0)
    gray = np.rint(px * 255.0)
    expected = np.repeat(np.repeat(gray, 2, axis=0), 2, axis=1)
    assert np.array_equal(img.pixels[:, :, 0], expected.astype(np.uint8))
    assert np.array_equal(img.pixels[:, :, 0], img.pixels[:, :, 2])


def test_render_paints_empty_cells_gray():
    ds = flat_dataset([0.3, 0.6])
    grid = make_grid(np.array([[0.0, 0.0], [1.0, 1.0]]), 2, 2, ids=ds.ids())
    failures = failures_of(ds.ids(), [0.0, 0.0], [0.0, 1.0])
    img = render(grid, ds, failures, cell_px=8)
    empties = [
        (r, c) for r in range(2) for c in range(2) if grid.cells[r][c] is None
    ]
    assert len(empties) == 2
    for r, c in empties:
        block = img.pixels[r * 8 : (r + 1) * 8, c * 8 : (c + 1) * 8]
        assert np.all(block == np.array(EMPTY_CELL_RGB, dtype=np.uint8))


@pytest.mark.parametrize("alpha", [0.0, 0.4, 1.0])
def test_render_matches_per_pixel_reference(alpha):
    # 10 non-square 12 x 20 images on a 4 x 4 grid: row 2 half full, row 3
    # empty, plus a hole punched in row 0; cell_px 9 is no multiple of 12 or 20
    rng = np.random.default_rng(16)
    ds = Dataset.from_records([ImageRecord(f"n{i}", rng.random((12, 20)), i % 2) for i in range(10)])
    grid = make_grid(rng.normal(size=(10, 2)), 4, 4, ids=ds.ids())
    grid.cells[0][1] = None
    labels = [0.0] * 10
    preds = np.concatenate([[0.5, 0.0, 1.0, 0.25], rng.random(6)])  # correctness 0.5, 1, 0, 0.75
    failures = failures_of(ds.ids(), preds, labels)
    img = render(grid, ds, failures, cell_px=9, alpha=alpha)
    images = {rec.id: rec.pixels for rec in ds.records}
    scores = dict(zip(failures.ids, failures.scores))
    expected = per_pixel_render(grid.cells, images, scores, 9, alpha, ANCHORS, EMPTY_CELL_RGB)
    assert [sum(c is None for c in row) for row in grid.cells] == [1, 0, 2, 4]
    assert np.array_equal(img.pixels, expected)


def test_render_legend_documents_the_encoding():
    ds = flat_dataset([0.3])
    grid = make_grid(np.array([[0.0, 0.0]]), 1, 1, ids=["f0"])
    failures = failures_of(["f0"], [0.0], [0.0])
    img = render(grid, ds, failures, cell_px=8, alpha=0.25)
    assert img.legend["anchors"]["0.0"] == [68, 1, 84]
    assert img.legend["alpha"] == 0.25
    assert img.legend["empty_cell_rgb"] == list(EMPTY_CELL_RGB)


def test_render_input_validation():
    ds = flat_dataset([0.3])
    grid = make_grid(np.array([[0.0, 0.0]]), 1, 1, ids=["f0"])
    failures = failures_of(["f0"], [0.0], [0.0])
    with pytest.raises(DataError, match="cell_px"):
        render(grid, ds, failures, cell_px=4)
    with pytest.raises(DataError, match="alpha"):
        render(grid, ds, failures, alpha=1.5)
    orphan_grid = make_grid(np.array([[0.0, 0.0]]), 1, 1, ids=["ghost"])
    with pytest.raises(DataError, match="no failure score.*ghost"):
        render(orphan_grid, ds, failures)


def test_render_refuses_scores_out_of_the_datasets_order():
    ds = flat_dataset([0.2, 0.4, 0.6])
    grid = make_grid(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), 2, 2, ids=ds.ids())
    failures = failures_of(["f1", "f0", "f2"], [0.0, 1.0, 0.5], [1.0, 0.0, 0.0])
    with pytest.raises(DataError, match="not the dataset's records in order"):
        render(grid, ds, failures)
    with pytest.raises(DataError, match="not the dataset's records in order"):
        render(grid, ds, failures_of(["f0", "f1"], [0.0, 1.0], [0.0, 1.0]))


def test_save_saliency_writes_ppm(tmp_path):
    ds = flat_dataset([0.3])
    grid = make_grid(np.array([[0.0, 0.0]]), 1, 1, ids=["f0"])
    failures = failures_of(["f0"], [0.5], [0.0])
    img = render(grid, ds, failures, cell_px=8)
    save_saliency(img, tmp_path / "s.ppm")
    data = (tmp_path / "s.ppm").read_bytes()
    assert data.startswith(b"P6\n8 8\n255\n")
    assert len(data) == len(b"P6\n8 8\n255\n") + 8 * 8 * 3


def test_sidecar_maps_cells_to_scores(tmp_path):
    ds = flat_dataset([0.3, 0.6])
    grid = make_grid(np.array([[0.0, 0.0], [1.0, 1.0]]), 1, 2, ids=ds.ids())
    failures = failures_of(ds.ids(), [0.25, 0.75], [0.0, 1.0])
    sidecar = grid_sidecar(grid, failures)
    assert sidecar["rows"] == 1 and sidecar["cols"] == 2
    entries = {v["id"]: v for v in sidecar["cells"].values()}
    assert entries["f0"]["failure"] == pytest.approx(0.25)
    assert entries["f1"]["failure"] == pytest.approx(0.25)
    assert entries["f1"]["prediction"] == pytest.approx(0.75)
    save_sidecar(grid, failures, tmp_path / "cells.json")
    assert json.loads((tmp_path / "cells.json").read_text()) == sidecar
    orphan_grid = make_grid(np.array([[0.0, 0.0]]), 1, 1, ids=["ghost"])
    with pytest.raises(DataError, match="no failure score for grid cell image 'ghost'"):
        grid_sidecar(orphan_grid, failures)
