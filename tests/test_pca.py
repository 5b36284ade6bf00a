"""Rank-2 PCA: structure recovery, sign convention, degeneracy, I/O."""

import hashlib
import json
import threading
import tracemalloc

import numpy as np
import pytest

import biasgrid.pca
from biasgrid.classifier import RefModel, predict_dataset, sigmoid
from biasgrid.dataset import ROW_BLOCK_BYTES, Dataset, ImageRecord
from biasgrid.errors import DataError, NumericalError
from biasgrid.pca import (
    FIT_BLOCK_COLS,
    GRAM_SPLIT_ROWS,
    _fix_signs,
    dataset_fingerprint,
    fit,
    load_basis,
    project,
    save_basis,
)
from biasgrid.saliency import compute_failures
from oracles import jacobi_svd, pca_oracle, sign_normalize


def planted_plane(n=40, p=30, scales=(9.0, 2.0), seed=0):
    """Data on a known 2-D plane through a random mean, plus nothing else."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(p, 2)))
    coeffs = rng.normal(size=(n, 2)) * np.array(scales)
    return rng.normal(size=p) + coeffs @ q.T, q


def prescribed_spectrum(n, p, ratio, seed):
    """N x P matrix whose centred singular values are 10 * (1, ratio, ratio/2, ...)."""
    rng = np.random.default_rng(seed)
    k = min(n - 1, p)
    u = rng.normal(size=(n, k))
    u, _ = np.linalg.qr(u - u.mean(axis=0))  # columns orthogonal to the ones vector
    v, _ = np.linalg.qr(rng.normal(size=(p, k)))
    svals = 10.0 * np.concatenate([[1.0, ratio], ratio / 2 * 0.9 ** np.arange(k - 2)])
    return rng.normal(size=p) + (u * svals) @ v.T


@pytest.mark.parametrize("shape", [(30, 80), (80, 30)], ids=["wide", "tall"])
@pytest.mark.parametrize("ratio", [0.5, 1e-2, 1e-6])
def test_fit_matches_lapack_svd_across_spectra(shape, ratio, tmp_path):
    # tall input and s2/s1 = 1e-6 (below the Gram path's limit) take the thin SVD
    mat = prescribed_spectrum(*shape, ratio, seed=15)
    _, svals, vt = np.linalg.svd(mat - mat.mean(axis=0), full_matrices=False)
    basis = fit(mat)
    assert np.allclose(basis.components, _fix_signs(vt[:2].T), rtol=0.0, atol=1e-9)
    assert np.allclose(basis.singular_values, svals[:2], rtol=1e-12, atol=0.0)
    path = tmp_path / "basis.json"
    save_basis(basis, path)
    assert np.array_equal(load_basis(path).components, basis.components)


def test_fit_never_runs_a_full_svd_on_a_well_conditioned_input(monkeypatch):
    shapes = []
    full_svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return full_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    rng = np.random.default_rng(12)
    fit(rng.normal(size=(40, 500)))
    assert shapes and all(min(s) <= 2 for s in shapes), shapes
    # a near-collinear input falls back to the thin SVD of the whole matrix
    shapes.clear()
    fit(prescribed_spectrum(40, 500, 1e-6, seed=13))
    assert (40, 500) in shapes


def record_eigh_shapes(monkeypatch) -> list:
    shapes = []
    full_eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return full_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    return shapes


def test_fit_never_runs_a_full_eigh_on_a_well_gapped_input(monkeypatch):
    shapes = record_eigh_shapes(monkeypatch)
    fit(prescribed_spectrum(40, 500, 0.5, seed=17))
    assert shapes and (40, 40) not in shapes, shapes


def test_fit_falls_back_to_a_full_eigh_on_a_flat_spectrum(monkeypatch):
    shapes = record_eigh_shapes(monkeypatch)
    mat = np.random.default_rng(12).normal(size=(40, 500))
    basis = fit(mat)
    assert (40, 40) in shapes
    _, svals, vt = np.linalg.svd(mat - mat.mean(axis=0), full_matrices=False)
    assert np.allclose(basis.components, _fix_signs(vt[:2].T), rtol=0.0, atol=1e-9)
    assert np.allclose(basis.singular_values, svals[:2], rtol=1e-12, atol=0.0)


def test_fit_matches_jacobi_oracle():
    rng = np.random.default_rng(42)
    mat = rng.normal(size=(15, 9))
    basis = fit(mat)
    _, svals, components = pca_oracle(mat)
    assert np.allclose(basis.components, components, atol=1e-9)
    assert np.allclose(basis.singular_values, svals[:2], rtol=1e-12)


def test_wide_oracle_matches_direct_jacobi():
    # P > N takes the oracle's transposed branch; check it against Jacobi run
    # on the centred matrix itself, independently of fit
    mat = np.random.default_rng(43).normal(size=(8, 20))
    mean, svals, components = pca_oracle(mat)
    direct_svals, direct_v = jacobi_svd(mat - mat.mean(axis=0))
    assert np.array_equal(mean, mat.mean(axis=0))
    assert np.allclose(svals, direct_svals[:2], rtol=1e-10, atol=0.0)
    assert np.allclose(components, sign_normalize(direct_v[:, :2]), rtol=0.0, atol=1e-10)
    assert np.allclose(components.T @ components, np.eye(2), rtol=0.0, atol=1e-10)


def test_recovers_planted_plane():
    mat, q = planted_plane()
    basis = fit(mat)
    # each fitted direction lies in the planted span
    for j in range(2):
        residual = basis.components[:, j] - q @ (q.T @ basis.components[:, j])
        assert np.linalg.norm(residual) < 1e-8


def test_sign_convention_largest_entry_positive():
    rng = np.random.default_rng(3)
    basis = fit(rng.normal(size=(20, 12)))
    for j in range(2):
        col = basis.components[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_projection_of_fitted_data_is_centered():
    rng = np.random.default_rng(5)
    mat = rng.normal(size=(25, 10))
    basis = fit(mat)
    coords = project(basis, mat)
    assert coords.shape == (25, 2)
    assert np.allclose(coords.mean(axis=0), 0.0, atol=1e-12)


def test_projected_variance_equals_top_singular_values():
    rng = np.random.default_rng(6)
    mat = rng.normal(size=(30, 14))
    basis = fit(mat)
    coords = project(basis, mat)
    s1, s2 = basis.singular_values
    assert np.sum(coords**2) == pytest.approx(s1**2 + s2**2, rel=1e-12)


def test_project_matches_manual_formula():
    rng = np.random.default_rng(7)
    mat = rng.normal(size=(12, 8))
    basis = fit(mat)
    new = rng.normal(size=(3, 8))
    assert np.array_equal(project(basis, new), (new - basis.mean) @ basis.components)


def test_fit_accepts_datasets_and_matrices_equally():
    rng = np.random.default_rng(8)
    imgs = rng.integers(0, 256, size=(10, 4, 5)) / 255.0
    ds = Dataset.from_records(
        [ImageRecord(f"r{i}", imgs[i], i % 2) for i in range(10)]
    )
    assert_fits_alike(ds, imgs.reshape(10, 20))


def test_project_accepts_datasets_and_matrices_equally():
    rng = np.random.default_rng(9)
    ds = Dataset.from_records(
        [ImageRecord(f"r{i}", rng.integers(0, 256, size=(4, 5)) / 255.0, i % 2) for i in range(10)]
    )
    basis = fit(ds)
    mat = ds.matrix()
    assert project(basis, ds).tobytes() == project(basis, mat).tobytes()
    assert mat.tobytes() == ds.matrix().tobytes()  # a caller's matrix is not centered in place


@pytest.mark.parametrize("layout", ["c-order", "fortran-order", "strided-view", "dataset"])
def test_fit_records_the_fingerprint_of_the_raw_matrix(layout):
    # the fingerprint is hashed on a helper thread; it must still be that of
    # the input as given, whatever its layout, not of the centered copy
    base = np.random.default_rng(19).random((14, 22))
    data = {
        "c-order": base[:9, :11].copy(),
        "fortran-order": np.asfortranarray(base[:9, :11]),
        "strided-view": base[::2, ::2],
        "dataset": Dataset.from_records(
            [ImageRecord(f"r{i}", base[i].reshape(2, 11), i % 2) for i in range(14)]
        ),
    }[layout]
    assert fit(data).trained_on == dataset_fingerprint(data)


def levels_dataset(levels: np.ndarray, height: int, width: int) -> Dataset:
    n = levels.shape[0]
    return Dataset.from_matrix(np.ascontiguousarray(levels, dtype=np.uint8), height, width,
                               [f"r{i}" for i in range(n)], [i % 2 for i in range(n)], [None] * n)


def random_levels_dataset(n: int, height: int, width: int, seed: int) -> Dataset:
    levels = np.random.default_rng(seed).integers(0, 256, size=(n, height * width), dtype=np.uint8)
    return levels_dataset(levels, height, width)


def assert_fits_alike(ds: Dataset, mat: np.ndarray) -> None:
    """A Dataset and its float matrix fit to byte-equal bases, and each
    basis records its own input's fingerprint."""
    from_ds, from_mat = fit(ds), fit(mat)
    assert from_ds.mean.tobytes() == from_mat.mean.tobytes()
    assert from_ds.components.tobytes() == from_mat.components.tobytes()
    assert from_ds.singular_values == from_mat.singular_values
    assert from_ds.trained_on == dataset_fingerprint(ds) != from_mat.trained_on == dataset_fingerprint(mat)


def test_a_datasets_fingerprint_is_sha256_of_shape_and_levels():
    ds = random_levels_dataset(150, 32, 64, seed=21)
    levels = ds.levels()
    expected = hashlib.sha256(str((150, 2048)).encode("ascii") + levels.tobytes()).hexdigest()[:16]
    assert dataset_fingerprint(ds) == expected
    assert dataset_fingerprint(ds.take([])) == hashlib.sha256(b"(0, 2048)").hexdigest()[:16]
    moved = levels.copy()
    moved[149, 2047] ^= 1
    assert dataset_fingerprint(levels_dataset(moved, 32, 64)) != expected
    fixed = levels_dataset(np.arange(12, dtype=np.uint8).reshape(3, 4) * 21, 2, 2)
    assert dataset_fingerprint(fixed) == "0f7f9f12d05921e0"  # sha256(b"(3, 4)" + bytes(range(0, 252, 21)))


def test_a_datasets_fingerprint_hashed_by_row_blocks_is_that_of_its_matrix():
    # the fingerprints differ (levels against floats) and the bases do not,
    # for the whole set and for the rows of its first float_rows block
    ds = random_levels_dataset(150, 32, 64, seed=21)
    for part in (ds, ds.take(range(ROW_BLOCK_BYTES // (8 * 32 * 64)))):
        assert_fits_alike(part, part.matrix())


def assert_basis_files_alike(ds: Dataset, mat: np.ndarray, tmp_path) -> None:
    """The basis files fitted from a Dataset and from its float matrix hold
    the same numbers (JSON floats round-trip exactly, so the arrays are
    byte-equal), and each its own input's fingerprint."""
    objs = [json.loads((tmp_path / f"from_{name}.json").read_text()) for name in ("dataset", "matrix")]
    assert [obj.pop("trained_on") for obj in objs] == [dataset_fingerprint(ds), dataset_fingerprint(mat)]
    assert objs[0] == objs[1]


def test_fitting_a_dataset_or_its_matrix_writes_the_same_basis_file(tmp_path):
    ds = random_levels_dataset(150, 32, 64, seed=22)
    mat = ds.matrix()
    save_basis(fit(ds), tmp_path / "from_dataset.json")
    save_basis(fit(mat), tmp_path / "from_matrix.json")
    assert_basis_files_alike(ds, mat, tmp_path)
    assert mat.tobytes() == ds.matrix().tobytes()  # a caller's matrix is not centered in place


def traced_peak(run) -> int:
    """tracemalloc's peak, in bytes, over one call of run()."""
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_fitting_a_dataset_holds_under_half_a_float_matrix_of_it():
    # The column buffer holds FIT_BLOCK_COLS of the 9216 columns (0.25x);
    # the Gram matrix, its block product and the hash's row blocks add
    # under 0.15x. The whole float matrix, or a float copy for the hash,
    # would each add 1x.
    ds = random_levels_dataset(256, 96, 96, seed=23)
    fit(ds.take(range(8)))  # warm up lazy imports and the thread pool outside the trace
    assert traced_peak(lambda: fit(ds)) < 0.5 * 8 * ds.levels().size


def test_projecting_and_scoring_a_dataset_hold_under_a_quarter_of_its_float_matrix():
    # Both read row blocks of ROW_BLOCK_BYTES (0.05x here) and keep two
    # numbers or one a row; the whole float matrix would add 1x.
    ds = random_levels_dataset(256, 96, 96, seed=23)
    basis = fit(ds.take(range(8)))
    model = RefModel(weights=np.random.default_rng(23).normal(0.0, 0.01, 96 * 96), bias=0.0)

    def project_and_score(data):
        project(basis, data)
        compute_failures(model, data)

    project_and_score(ds.take(range(8)))  # warm up outside the trace
    assert traced_peak(lambda: project_and_score(ds)) < 0.25 * 8 * ds.levels().size


def test_a_dataset_fit_over_column_blocks_matches_the_oracle():
    # 50 x 100 images: three column blocks, the last one partial; criterion
    # 1's tolerances, and the mean byte for byte
    height, width = 50, 100
    assert 2 * FIT_BLOCK_COLS < height * width < 3 * FIT_BLOCK_COLS
    ds = random_levels_dataset(20, height, width, seed=24)
    mat = ds.matrix()
    basis = fit(ds)
    _, svals, components = pca_oracle(mat)
    assert basis.mean.tobytes() == mat.mean(axis=0).tobytes()
    assert np.max(np.abs(basis.components - components)) <= 1e-6
    assert np.max(np.abs(np.array(basis.singular_values) - svals) / svals) <= 1e-6


def copied_levels(distinct: int, copies: int, pixels: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(distinct random rows, those rows each repeated `copies` times in a
    shuffled order). The centred copies have the distinct rows' right
    singular vectors and sqrt(copies) times their singular values."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 256, size=(distinct, pixels), dtype=np.uint8)
    return base, base[rng.permutation(np.repeat(np.arange(distinct), copies))]


@pytest.mark.parametrize("distinct", [64, 80], ids=["512-rows", "640-rows"])
def test_a_fit_with_the_gram_product_split_over_two_threads_matches_the_oracle(distinct):
    # 47 x 100 images: three column blocks, the last one partial. Jacobi over
    # 512 columns takes tens of seconds, so the oracle runs on the distinct
    # rows, each copied 8 times in a shuffled order into rows of both halves.
    height, width, copies = 47, 100, 8
    assert 2 * FIT_BLOCK_COLS < height * width < 3 * FIT_BLOCK_COLS
    base, levels = copied_levels(distinct, copies, height * width, seed=40)
    ds = levels_dataset(levels, height, width)
    assert len(ds) >= GRAM_SPLIT_ROWS
    _, svals, components = pca_oracle(base / 255.0)
    for data in (ds, ds.matrix()):
        basis = fit(data)
        assert np.max(np.abs(basis.components - components)) <= 1e-6
        assert np.max(np.abs(np.array(basis.singular_values) / np.sqrt(copies) - svals) / svals) <= 1e-6


def test_two_split_gram_fits_write_the_same_basis_file(tmp_path):
    ds = random_levels_dataset(600, 24, 100, seed=41)
    assert len(ds) >= GRAM_SPLIT_ROWS
    save_basis(fit(ds), tmp_path / "first.json")
    save_basis(fit(ds), tmp_path / "second.json")
    assert (tmp_path / "first.json").read_bytes() == (tmp_path / "second.json").read_bytes()


def test_projection_and_scoring_by_row_blocks_match_whole_matrix_arithmetic():
    # 64 x 64 images: 100 rows make three full row blocks and a partial one
    ds = random_levels_dataset(100, 64, 64, seed=25)
    rows_per_block = ROW_BLOCK_BYTES // (8 * 64 * 64)
    assert len(ds) > 3 * rows_per_block and len(ds) % rows_per_block != 0
    mat = ds.matrix()
    basis = fit(ds)
    model = RefModel(weights=np.random.default_rng(25).normal(0.0, 0.01, 64 * 64), bias=0.1)
    coords = project(basis, ds)
    assert np.allclose(coords, (mat - basis.mean) @ basis.components, rtol=0.0, atol=1e-12)
    assert coords.tobytes() == project(basis, mat).tobytes()
    assert np.allclose(predict_dataset(model, ds), sigmoid(mat @ model.weights + model.bias), rtol=0.0, atol=1e-12)


def near_degenerate_levels(n: int, p: int, seed: int) -> np.ndarray:
    """Exactly rank 1 after centering (an outer product of small integers),
    but for one level raised by one: s2 / s1 falls far below GRAM_MIN_RATIO."""
    rng = np.random.default_rng(seed)
    levels = np.outer(rng.integers(0, 16, n), rng.integers(0, 16, p))
    levels[0, 0] += 1
    return levels


@pytest.mark.parametrize(
    "levels, height, width",
    [
        (np.random.default_rng(26).integers(0, 256, size=(40, 20)), 4, 5),
        (near_degenerate_levels(40, 500, seed=27), 20, 25),
    ],
    ids=["tall", "near-degenerate"],
)
def test_a_dataset_reaching_the_thin_svd_fits_as_its_matrix(monkeypatch, tmp_path, levels, height, width):
    ds = levels_dataset(levels, height, width)
    shapes = []
    full_svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return full_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    save_basis(fit(ds), tmp_path / "from_dataset.json")
    assert levels.shape in shapes  # the thin SVD of the whole centered matrix
    save_basis(fit(ds.matrix()), tmp_path / "from_matrix.json")
    assert_basis_files_alike(ds, ds.matrix(), tmp_path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("shape", [(12, 30), (40, 5)], ids=["wide", "tall"])
def test_fit_and_project_refuse_a_non_finite_matrix(monkeypatch, shape, value):
    # wide: the bad entry sits in the last of four column blocks
    monkeypatch.setattr(biasgrid.pca, "FIT_BLOCK_COLS", 8)
    mat = np.random.default_rng(28).normal(size=shape)
    basis = fit(mat)
    mat[-1, -1] = value
    with pytest.raises(DataError, match="non-finite value"):
        fit(mat)
    with pytest.raises(DataError, match="non-finite value"):
        project(basis, mat)


def nan_in_the_last_column_block(n: int, p: int) -> np.ndarray:
    mat = np.random.default_rng(29).normal(size=(n, p))
    mat[-1, -1] = np.nan
    return mat


@pytest.mark.parametrize(
    "data, error",
    [
        (np.random.default_rng(20).normal(size=(12, 30)), None),
        (np.ones((12, 30)), NumericalError),
        (np.random.default_rng(20).normal(size=(2, 30)), DataError),
        (random_levels_dataset(12, 5, 6, seed=20), None),
        (levels_dataset(np.full((12, 30), 128), 5, 6), NumericalError),
        (random_levels_dataset(2, 5, 6, seed=20), DataError),
        (np.full((12, 30), np.nan), DataError),
        (np.random.default_rng(20).normal(size=(GRAM_SPLIT_ROWS, FIT_BLOCK_COLS + 8)), None),
        (nan_in_the_last_column_block(GRAM_SPLIT_ROWS, FIT_BLOCK_COLS + 8), DataError),
    ],
    ids=["fits", "identical-rows", "two-rows", "dataset-fits", "dataset-identical-rows", "dataset-two-rows",
         "non-finite", "split-gram-fits", "split-gram-non-finite"],
)
def test_fit_leaves_no_thread_running(data, error):
    before = threading.active_count()
    if error is None:
        fit(data)
    else:
        with pytest.raises(error):
            fit(data)
    assert threading.active_count() == before


def test_fit_input_validation():
    with pytest.raises(DataError, match="at least 3 rows"):
        fit(np.zeros((2, 5)))
    with pytest.raises(DataError, match="at least 2 columns"):
        fit(np.zeros((5, 1)))
    with pytest.raises(DataError, match="2-D"):
        fit(np.zeros(5))


def test_degenerate_spectrum_raises():
    # a tall (8 x 3) line takes the thin SVD, a wide (5 x 12) one the Gram fit's
    # full eigh, and a wide (12 x 30) one the Gram fit's subspace iteration
    for n, direction in (
        (8, np.array([1.0, 2.0, -1.0])),
        (5, np.random.default_rng(14).normal(size=12)),
        (12, np.random.default_rng(14).normal(size=30)),
    ):
        t = np.linspace(0.0, 1.0, n)[:, None]
        line = 0.3 + t * direction  # rank-1 after centering
        with pytest.raises(NumericalError, match="degenerate spectrum"):
            fit(line)


def test_project_dimension_mismatch_names_both_sizes():
    basis = fit(np.random.default_rng(9).normal(size=(6, 7)))
    with pytest.raises(DataError, match="5 pixels.*expects 7"):
        project(basis, np.zeros((2, 5)))


def test_save_load_round_trip_is_exact(tmp_path):
    basis = fit(np.random.default_rng(10).normal(size=(9, 6)))
    path = tmp_path / "basis.json"
    save_basis(basis, path)
    back = load_basis(path)
    assert np.array_equal(back.mean, basis.mean)
    assert np.array_equal(back.components, basis.components)
    assert back.singular_values == basis.singular_values
    assert back.trained_on == basis.trained_on


def test_load_rejects_tampered_basis(tmp_path):
    basis = fit(np.random.default_rng(11).normal(size=(9, 6)))
    path = tmp_path / "basis.json"
    basis.components[:, 0] *= 2.0
    save_basis(basis, path)
    with pytest.raises(DataError, match="not orthonormal"):
        load_basis(path)


def test_load_rejects_wrong_format(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(DataError, match="pca-basis"):
        load_basis(path)
    path.write_text("{ not json")
    with pytest.raises(DataError, match="not a valid basis"):
        load_basis(path)


GOOD_BASIS = {"format": "pca-basis", "version": 1, "mean": [0.0, 0.0, 0.0],
              "components": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], "singular_values": [2.0, 1.0],
              "trained_on": "x"}


@pytest.mark.parametrize(
    "obj, message",
    [
        ([GOOD_BASIS], "not a version-1 pca-basis file"),
        ({k: v for k, v in GOOD_BASIS.items() if k != "mean"}, "lacks key 'mean'"),
        ({k: v for k, v in GOOD_BASIS.items() if k != "trained_on"}, "lacks key 'trained_on'"),
        ({**GOOD_BASIS, "mean": [0.0] * 4}, r"one entry per component row \(3\)"),
        ({**GOOD_BASIS, "mean": [[0.0, 0.0, 0.0]]}, r"one entry per component row \(3\)"),
        ({**GOOD_BASIS, "singular_values": [2.0]}, "malformed basis file"),
    ],
    ids=["top_level_list", "no_mean", "no_trained_on", "long_mean", "matrix_mean", "one_singular_value"],
)
def test_load_rejects_malformed_basis(tmp_path, obj, message):
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(DataError, match=message):
        load_basis(path)
    path.write_text(json.dumps(GOOD_BASIS))
    assert load_basis(path).mean.shape == (3,)  # the unedited file is valid


@pytest.mark.parametrize(
    "key, value",
    [
        ("mean", [float("nan"), 0.0, 0.0]),
        ("components", [[float("nan"), 0.0], [0.0, 1.0], [0.0, 0.0]]),
        ("components", [[1.0, 0.0], [0.0, float("inf")], [0.0, 0.0]]),
        ("singular_values", [2.0, float("-inf")]),
        ("mean", "overflow"),
    ],
    ids=["nan_mean", "nan_component", "infinite_component", "infinite_singular_value", "overflowing_mean"],
)
def test_load_rejects_a_non_finite_number_in_the_basis(tmp_path, key, value):
    # json reads NaN, Infinity and an overflowing literal such as 1e400
    path = tmp_path / "basis.json"
    if value == "overflow":
        path.write_text(json.dumps(GOOD_BASIS).replace('"mean": [0.0', '"mean": [1e400'))
    else:
        path.write_text(json.dumps({**GOOD_BASIS, key: value}))
    with pytest.raises(DataError, match=r"basis\.json: basis file holds a non-finite number"):
        load_basis(path)


def test_fingerprint_tracks_content_and_shape():
    a = np.zeros((2, 2))
    b = np.zeros((1, 4))
    assert dataset_fingerprint(a) != dataset_fingerprint(b)
    assert dataset_fingerprint(a) == dataset_fingerprint(np.zeros((2, 2)))
    c = a.copy()
    c[0, 0] = 1e-9
    assert dataset_fingerprint(a) != dataset_fingerprint(c)


@pytest.mark.parametrize("layout", ["c-order", "fortran-order", "strided-view", "empty"])
def test_fingerprint_is_sha256_of_shape_and_c_order_bytes(layout):
    # the digest basis.json files record as trained_on: any memory layout of
    # the same matrix hashes as its C-ordered copy
    base = np.random.default_rng(18).normal(size=(14, 22))
    mat = {
        "c-order": base[:7, :11].copy(),
        "fortran-order": np.asfortranarray(base[:7, :11]),
        "strided-view": base[::2, ::2],
        "empty": np.zeros((0, 4)),
    }[layout]
    expected = hashlib.sha256(str(mat.shape).encode("ascii") + mat.tobytes()).hexdigest()[:16]
    assert dataset_fingerprint(mat) == expected
