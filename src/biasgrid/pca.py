"""Rank-2 principal-component basis for image collections.

Images are flattened to row vectors and stacked into an N x P matrix, the
per-pixel mean is subtracted, and the top two right singular vectors of the
centered matrix C form the projection basis; coordinates of any image (from
the fitted set or not) are its mean-centered flattening times that basis.

When N <= P they come from the N x N Gram matrix G = C C^T (the snapshot
method of Turk & Pentland, "Eigenfaces for Recognition", 1991). Its top two
eigenvectors U2 come from seeded block subspace iteration (Halko, Martinsson
& Tropp, "Finding Structure with Randomness", SIAM Review 2011): a block of
SUBSPACE_BLOCK columns is multiplied by G and re-orthonormalized by QR each
step, and the Ritz pairs come from eigh of the small projected matrix. The
iteration stops once both top Ritz residuals |G u - lambda u| are at most
SUBSPACE_TOL * lambda_1, the accuracy eigh itself guarantees, which takes a
few steps on face data, whose spectrum falls fast. If SUBSPACE_MAX_STEPS
pass first (a flat spectrum), a full eigh of G gives U2 instead. Then a thin
SVD of the P x 2 matrix C^T U2 (a Rayleigh-Ritz step) makes the columns
orthonormal to machine precision and measures each singular value as a
norm rather than as the root of an eigenvalue. Tall input (N > P), and
input whose second singular value falls below GRAM_MIN_RATIO times the
first, takes a thin SVD of C instead.

The trained_on fingerprint, a SHA-256 pass over the raw matrix that no step
of the fit reads, runs on one helper thread while the calling thread
centers the matrix and runs the Gram product, the iteration and the SVDs.
The two overlap because hashlib releases the GIL while it hashes a large
buffer, and numpy releases it in BLAS products and in ufunc loops over
large arrays.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Dataset
from .errors import DataError, NumericalError
from .seeding import make_rng

# Second singular value at or below this (absolute, or relative to the first)
# means the centered data lies on a line and a 2-D layout is meaningless.
DEGENERATE_TOL = 1e-12

ORTHONORMALITY_TOL = 1e-8

# A Gram matrix squares the condition number, so the components' error grows
# about as 1e-16 * (s1/s2)**2: ~3e-11 at this ratio, ~1e-6 at s2/s1 = 1e-6.
GRAM_MIN_RATIO = 1e-3

# Subspace iteration on the Gram matrix: block width, step cap, residual
# tolerance relative to the top eigenvalue, and the start block's seed. The
# residual floor of G u in float64 measured 1-10 eps * lambda_1 at N = 30-1024.
SUBSPACE_BLOCK = 6
SUBSPACE_MAX_STEPS = 32
SUBSPACE_TOL = 64 * np.finfo(np.float64).eps
SUBSPACE_SEED = 0


@dataclass
class PcaBasis:
    """Mean image plus rank-2 projection basis.

    components has orthonormal columns; the sign of each column is fixed so
    its largest-magnitude entry is positive (ties: earliest index wins),
    making fitted bases and golden files deterministic.
    """

    mean: np.ndarray  # (P,)
    components: np.ndarray  # (P, 2)
    singular_values: tuple[float, float]  # descending
    trained_on: str  # fingerprint of the fitted matrix


def _as_matrix(data) -> np.ndarray:
    if isinstance(data, Dataset):
        return data.matrix()  # float64, so a fingerprint does not depend on the storage
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise DataError("expected a Dataset or a 2-D matrix")
    return arr


def dataset_fingerprint(data) -> str:
    """Stable hex fingerprint of the flattened image matrix."""
    mat = np.ascontiguousarray(_as_matrix(data))
    digest = hashlib.sha256()
    digest.update(str(mat.shape).encode("ascii"))
    digest.update(mat)
    return digest.hexdigest()[:16]


def mean_center(data) -> tuple[np.ndarray, np.ndarray]:
    """Subtract the per-column (per-pixel) mean; returns (centered, mean)."""
    mat = _as_matrix(data)
    if mat.shape[0] < 2:
        raise DataError(f"mean_center needs at least 2 rows, got {mat.shape[0]}")
    mean = mat.mean(axis=0)
    return mat - mean, mean


def _fix_signs(components: np.ndarray) -> np.ndarray:
    out = components.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            out[:, j] = -col
    return out


def _gram_top2(gram: np.ndarray) -> np.ndarray | None:
    """Top two eigenvectors of a Gram matrix, descending, by block subspace
    iteration; None when the step cap passes before both residuals are small."""
    n = gram.shape[0]
    if n <= SUBSPACE_BLOCK:
        return None
    q = make_rng(SUBSPACE_SEED).standard_normal((n, SUBSPACE_BLOCK))
    for _ in range(SUBSPACE_MAX_STEPS):
        q, _ = np.linalg.qr(q)
        z = gram @ q
        ritz, vecs = np.linalg.eigh(q.T @ z)
        vecs, lam = vecs[:, :-3:-1], ritz[:-3:-1]
        u2 = q @ vecs
        if np.all(np.linalg.norm(z @ vecs - u2 * lam, axis=0) <= SUBSPACE_TOL * lam[0]):
            return u2
        q = z
    return None


def fit(data) -> PcaBasis:
    """Fit the rank-2 basis on a dataset or raw N x P matrix.

    The fingerprint of the raw matrix is hashed on a helper thread while
    this thread fits (see the module docstring); the thread is joined
    before fit returns or raises, and an input refused for its shape
    starts none.

    Raises NumericalError when the centered spectrum is degenerate (the
    second singular value vanishes, e.g. all images identical or collinear).
    """
    mat = _as_matrix(data)
    n, p = mat.shape
    if n < 3:
        raise DataError(f"fit needs at least 3 rows, got {n}")
    if p < 2:
        raise DataError(f"fit needs at least 2 columns, got {p}")
    with ThreadPoolExecutor(max_workers=1) as hasher:
        fingerprint = hasher.submit(dataset_fingerprint, mat)
        centered, mean = mean_center(mat)
        if n <= p:
            gram = centered @ centered.T
            u2 = _gram_top2(gram)
            if u2 is None:
                u2 = np.linalg.eigh(gram)[1][:, :-3:-1]
            components, s, _ = np.linalg.svd(centered.T @ u2, full_matrices=False)
        if n > p or s[1] < GRAM_MIN_RATIO * s[0]:
            _, s, vt = np.linalg.svd(centered, full_matrices=False)
            components = vt[:2].T
        if s[1] <= DEGENERATE_TOL * max(1.0, s[0]):
            raise NumericalError(
                f"degenerate spectrum: second singular value {s[1]:.3e} "
                f"(first {s[0]:.3e}); a 2-D layout is meaningless"
            )
        trained_on = fingerprint.result()
    return PcaBasis(
        mean=mean,
        components=_fix_signs(components),
        singular_values=(float(s[0]), float(s[1])),
        trained_on=trained_on,
    )


def project(basis: PcaBasis, data) -> np.ndarray:
    """Project images into the basis: (X - mean) @ components, one 2-D point per row.

    Works for any dataset with matching pixel count, including ones the
    basis was not fitted on (e.g. an augmentation pool). A Dataset's float
    matrix is built for this call alone, so it is centered in place rather
    than copied.
    """
    mat = _as_matrix(data)
    p = basis.mean.shape[0]
    if mat.shape[1] != p:
        raise DataError(f"dimension mismatch: data has {mat.shape[1]} pixels, basis expects {p}")
    if isinstance(data, Dataset):
        mat -= basis.mean
        return mat @ basis.components
    return (mat - basis.mean) @ basis.components


def save_basis(basis: PcaBasis, path) -> None:
    """Serialize to JSON; floats survive the round trip exactly."""
    obj = {
        "format": "pca-basis",
        "version": 1,
        "mean": basis.mean.tolist(),
        "components": basis.components.tolist(),
        "singular_values": list(basis.singular_values),
        "trained_on": basis.trained_on,
    }
    Path(path).write_text(json.dumps(obj), encoding="utf-8")


def load_basis(path) -> PcaBasis:
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read basis {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not a valid basis file: {exc.msg}") from exc
    if not isinstance(obj, dict) or obj.get("format") != "pca-basis" or obj.get("version") != 1:
        raise DataError(f"{path}: not a version-1 pca-basis file")
    missing = [key for key in ("mean", "components", "singular_values", "trained_on") if key not in obj]
    if missing:
        raise DataError(f"{path}: basis file lacks key '{missing[0]}'")
    try:
        basis = PcaBasis(
            mean=np.asarray(obj["mean"], dtype=np.float64),
            components=np.asarray(obj["components"], dtype=np.float64),
            singular_values=(float(obj["singular_values"][0]), float(obj["singular_values"][1])),
            trained_on=str(obj["trained_on"]),
        )
    except (TypeError, ValueError, IndexError, KeyError) as exc:
        raise DataError(f"{path}: malformed basis file: {exc}") from exc
    if basis.components.ndim != 2 or basis.components.shape[1] != 2:
        raise DataError(f"{path}: components must be P x 2")
    if basis.mean.shape != basis.components.shape[:1]:
        raise DataError(f"{path}: mean must hold one entry per component row ({basis.components.shape[0]})")
    gram = basis.components.T @ basis.components
    if np.max(np.abs(gram - np.eye(2))) > ORTHONORMALITY_TOL:
        raise DataError(f"{path}: basis columns are not orthonormal")
    return basis
