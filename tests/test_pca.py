"""Rank-2 PCA: structure recovery, sign convention, degeneracy, I/O."""

import hashlib
import json
import threading

import numpy as np
import pytest

from biasgrid.dataset import Dataset, ImageRecord
from biasgrid.errors import DataError, NumericalError
from biasgrid.pca import (
    _fix_signs,
    dataset_fingerprint,
    fit,
    load_basis,
    mean_center,
    project,
    save_basis,
)
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
    a = fit(ds)
    b = fit(imgs.reshape(10, 20))
    assert np.array_equal(a.components, b.components)
    assert a.trained_on == b.trained_on


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


@pytest.mark.parametrize(
    "mat, error",
    [
        (np.random.default_rng(20).normal(size=(12, 30)), None),
        (np.ones((12, 30)), NumericalError),
        (np.random.default_rng(20).normal(size=(2, 30)), DataError),
    ],
    ids=["fits", "identical-rows", "two-rows"],
)
def test_fit_leaves_no_thread_running(mat, error):
    before = threading.active_count()
    if error is None:
        fit(mat)
    else:
        with pytest.raises(error):
            fit(mat)
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


def test_mean_center_needs_two_rows():
    with pytest.raises(DataError, match="at least 2 rows"):
        mean_center(np.zeros((1, 4)))


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
