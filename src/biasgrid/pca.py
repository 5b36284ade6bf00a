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
first, takes a thin SVD of the whole of C instead.

The Gram fit never holds C whole. It reads the input in blocks of
FIT_BLOCK_COLS columns, each divided (a Dataset's levels / 255.0) or copied
(a matrix) into one reused N x FIT_BLOCK_COLS float64 buffer. A first pass
takes each block's column means, which are independent of the other
columns, centers the block in place and adds its product C_b C_b^T to G; a
second pass rebuilds each block and forms its rows of C^T U2. A matrix
block holding a non-finite value is refused. project reads rows instead,
one block of about dataset.ROW_BLOCK_BYTES at a time.

From GRAM_SPLIT_ROWS rows on, each block's product is split over two
threads by rows: with C_a the block's first N // 2 rows and C_b the rest,
the calling thread forms C_a C_a^T and C_b C_b^T (numpy hands a product of
a matrix with its own transpose to a symmetric rank-k update, half the
work of a general product) while a helper thread forms C_a C_b^T, about
as much work as the other two together. Each product goes through
np.matmul(out=) into a preallocated array and is added over the blocks in
block order; the lower-left block of G is mirrored from the upper-right
once at the end. The gate exists because below it the split was no
faster (see GRAM_SPLIT_ROWS) and rounded differently from the whole
product, which would move the bytes of loop runs at package defaults (300
validation rows). At and above it, G can still differ from the unsplit
product in its last bits, depending on how the BLAS kernels' edge blocks
fall: with OpenBLAS 0.3.31 it was byte-identical at 512, 768 and 1024
rows, and at 600 and 1000 rows the components moved by at most 3e-17.

The trained_on fingerprint, which no step of the fit reads, is a SHA-256
pass over the input as stored: a Dataset's C-order uint8 levels, or the
C-order bytes of a float64 matrix. It runs on a helper thread of the same
two-worker pool while the calling thread fits. They overlap because
hashlib releases the GIL while it hashes a large buffer, and numpy
releases it in BLAS products and in ufunc loops over large arrays. A
Dataset's levels are an eighth of the bytes of its floats and need no
division, so on a wide Dataset the hash takes a small share of the
second core that the split Gram product also uses.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Dataset, row_spans
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

# Columns per block of the Gram fit's one reused float64 buffer. The Gram
# product loses BLAS efficiency as its inner dimension shrinks: a fit of a
# 1024 x 9216 Dataset took 0.36 s in one block, 0.37 s in blocks of 2304
# columns and 0.41 s in blocks of 1024 (medians of 8, one BLAS thread).
FIT_BLOCK_COLS = 2304

# Rows from which the Gram product is split over the calling thread and one
# helper (see the module docstring). Fits of synthetic face Datasets, one
# BLAS thread on 2 cores, medians of 10 alternating reps of 11 fits each,
# unsplit against split: 33.0 / 35.3 ms at 512 x 4096 and 74.3 / 77.1 ms at
# 512 x 9216 (the split won 1/10 at each), 139.5 / 106.8 ms at 768 x 9216
# (10/10). So the crossover lies between 512 and 768 rows; the gate stays
# at 512 because moving it would move the bytes of fits in between.
GRAM_SPLIT_ROWS = 512


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
    trained_on: str  # dataset_fingerprint of the fitted input (a Dataset's levels)


def _source(data) -> Dataset | np.ndarray:
    """A Dataset as it is; anything else as a 2-D float64 array."""
    if isinstance(data, Dataset):
        return data
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise DataError("expected a Dataset or a 2-D matrix")
    return arr


def _shape(source: Dataset | np.ndarray) -> tuple[int, int]:
    return source.levels().shape if isinstance(source, Dataset) else source.shape


def _finite(block: np.ndarray) -> np.ndarray:
    if not np.isfinite(block).all():
        raise DataError("input matrix holds a non-finite value")
    return block


def _columns(source: Dataset | np.ndarray, start: int, stop: int, out: np.ndarray) -> np.ndarray:
    """out = columns start:stop of the source's float matrix: a Dataset's
    levels / 255.0, or a matrix's entries, which must be finite."""
    if isinstance(source, Dataset):
        return np.divide(source.levels()[:, start:stop], 255.0, out=out)
    out[...] = source[:, start:stop]
    return _finite(out)


def dataset_fingerprint(data) -> str:
    """Stable hex fingerprint of the input as stored: the first 16 hex
    digits of the SHA-256 of its shape string followed by its C-order
    bytes. Those are a Dataset's N x P uint8 levels, or a matrix's entries
    as float64, so a Dataset and its float matrix have different
    fingerprints."""
    source = _source(data)
    digest = hashlib.sha256(str(_shape(source)).encode("ascii"))
    digest.update(source.levels() if isinstance(source, Dataset) else np.ascontiguousarray(source))
    return digest.hexdigest()[:16]


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


class _SplitGram:
    """G = C C^T summed over column blocks from 2 x 2 row blocks of each:
    with C_a the first n // 2 rows of a block and C_b the rest, the calling
    thread adds C_a C_a^T and C_b C_b^T while one helper thread adds
    C_a C_b^T; the lower-left block is mirrored once, by result."""

    def __init__(self, n: int, pool: ThreadPoolExecutor):
        self.h = h = n // 2
        self.pool = pool
        self.gram = np.empty((n, n))
        self.square = np.empty((n - h, n - h))  # C_a C_a^T, then C_b C_b^T
        self.corner = np.empty((h, n - h))  # the helper's C_a C_b^T
        self.blocks = 0

    def _add(self, a: np.ndarray, b: np.ndarray, into: np.ndarray, tmp: np.ndarray) -> None:
        """into (+)= a b^T through np.matmul(out=): the first block writes
        into G directly, later ones into tmp and then add it."""
        if self.blocks == 0:
            np.matmul(a, b.T, out=into)
        else:
            into += np.matmul(a, b.T, out=tmp[: len(a), : len(b)])

    def add(self, block: np.ndarray) -> None:
        h, gram = self.h, self.gram
        c_a, c_b = block[:h], block[h:]
        corner = self.pool.submit(self._add, c_a, c_b, gram[:h, h:], self.corner)
        try:
            self._add(c_a, c_a, gram[:h, :h], self.square)
            self._add(c_b, c_b, gram[h:, h:], self.square)
        finally:
            corner.result()  # the helper reads block, which the caller refills next
        self.blocks += 1

    def result(self) -> np.ndarray:
        h, gram = self.h, self.gram
        gram[h:, :h] = gram[:h, h:].T
        return gram


def _gram_fit(source: Dataset | np.ndarray, n: int, p: int, pool: ThreadPoolExecutor) -> tuple[np.ndarray, np.ndarray]:
    """(mean, C^T U2) of a wide source, read in column blocks (see the module
    docstring); from GRAM_SPLIT_ROWS rows on, pool's helper thread takes a
    share of the Gram product."""
    width = min(p, FIT_BLOCK_COLS)
    buf = np.empty(n * width)
    spans = [(a, min(a + width, p)) for a in range(0, p, width)]
    mean = np.empty(p)
    split = _SplitGram(n, pool) if n >= GRAM_SPLIT_ROWS else None

    def block_of(start: int, stop: int) -> np.ndarray:
        return _columns(source, start, stop, buf[: n * (stop - start)].reshape(n, stop - start))

    for start, stop in spans:
        block = block_of(start, stop)
        mean[start:stop] = block.mean(axis=0)
        block -= mean[start:stop]
        if split is not None:
            split.add(block)
        elif start == 0:
            gram = block @ block.T
        else:
            gram += block @ block.T
    if split is not None:
        gram = split.result()
    u2 = _gram_top2(gram)
    if u2 is None:
        u2 = np.linalg.eigh(gram)[1][:, :-3:-1]
    ct_u2 = np.empty((p, 2))
    for start, stop in reversed(spans):
        if stop != p:  # the buffer still holds the last block, centered
            block = block_of(start, stop)
            block -= mean[start:stop]
        ct_u2[start:stop] = block.T @ u2
    return mean, ct_u2


def fit(data) -> PcaBasis:
    """Fit the rank-2 basis on a dataset or raw N x P matrix.

    The fingerprint of the input is hashed on a helper thread while this
    thread fits, and from GRAM_SPLIT_ROWS rows on a second helper takes a
    share of the Gram product (see the module docstring); both are joined
    before fit returns or raises, and an input refused for its shape starts
    none. A caller's matrix is never written to, and a wide input is read
    in column blocks, never whole.

    Raises DataError when a matrix holds a non-finite value, and
    NumericalError when the centered spectrum is degenerate (the second
    singular value vanishes, e.g. all images identical or collinear).
    """
    source = _source(data)
    n, p = _shape(source)
    if n < 3:
        raise DataError(f"fit needs at least 3 rows, got {n}")
    if p < 2:
        raise DataError(f"fit needs at least 2 columns, got {p}")
    with ThreadPoolExecutor(max_workers=2) as pool:
        fingerprint = pool.submit(dataset_fingerprint, source)
        if n <= p:
            mean, ct_u2 = _gram_fit(source, n, p, pool)
            components, s, _ = np.linalg.svd(ct_u2, full_matrices=False)
        if n > p or s[1] < GRAM_MIN_RATIO * s[0]:
            centered = _columns(source, 0, p, np.empty((n, p)))
            if n > p:
                mean = centered.mean(axis=0)
            centered -= mean
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
    basis was not fitted on (e.g. an augmentation pool). Rows are read one
    block at a time (a Dataset's float_rows), so no N x P float array is
    built; a matrix block holding a non-finite value raises a DataError.
    """
    source = _source(data)
    n, cols = _shape(source)
    p = basis.mean.shape[0]
    if cols != p:
        raise DataError(f"dimension mismatch: data has {cols} pixels, basis expects {p}")
    if isinstance(source, Dataset):
        blocks = source.float_rows()
    else:
        blocks = ((start, _finite(source[start:stop])) for start, stop in row_spans(n, cols))
    coords = np.empty((n, 2))
    for start, rows in blocks:
        coords[start : start + len(rows)] = (rows - basis.mean) @ basis.components
    return coords


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
    if not all(np.isfinite(a).all() for a in (basis.mean, basis.components, basis.singular_values)):
        raise DataError(f"{path}: basis file holds a non-finite number")
    gram = basis.components.T @ basis.components
    if np.max(np.abs(gram - np.eye(2))) > ORTHONORMALITY_TOL:
        raise DataError(f"{path}: basis columns are not orthonormal")
    return basis
