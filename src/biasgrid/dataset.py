"""Image records, datasets, and JSONL manifest I/O.

A Dataset stores its images as one N x P float64 matrix, P = H * W, each
image flattened row-major into one row. The matrix is C-contiguous and
read-only, and `matrix()` returns it without copying; labels are a stored
read-only float64 array beside it. Each record's `pixels` is a read-only
H x W view of its row, so writing to `pixels` (or to the matrix) raises
ValueError: a dataset never changes once built. Every way to build one
checks what it adds, so nothing checks a built dataset's rows again.

Rows move by position, in blocks; no API looks a record up by id.
`take(indices)` copies those rows into a new dataset. `appended(rows)`
adds the rows of the Dataset `rows` after this one's, refusing another
image size or an id already held. It writes into a row buffer with spare
capacity (half as many rows again); the first dataset appended to a
receiver takes over its spare rows, so only the new rows are copied. A
later `appended` on the same receiver, or one that does not fit, copies
both into a fresh buffer: a chain of appends copies the rows it holds
only when it outgrows a buffer.

A manifest is one JSON object per line with keys "id" (string), "path"
(image file relative to the manifest's directory), "label" (0 or 1), and
optional "group" (string). The group tag exists only so evaluations can
report per-subgroup accuracy; no algorithm in this package reads it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .netpbm import read_pgm, write_pgm


@dataclass
class ImageRecord:
    """One grayscale image with a binary label (0=open/awake, 1=closed/drowsy)."""

    id: str
    pixels: np.ndarray  # H x W, float in [0, 1]; a read-only row view inside a Dataset
    label: int
    group: str | None = None


def _bad_label(label) -> bool:
    return isinstance(label, (bool, np.bool_)) or label not in (0, 1)


def _check_rows(ids: list[str], labels: list, rows: np.ndarray) -> None:
    """Raise the DataError of the first bad record, in record order.

    Within a record the checks run in this order: its id repeats an
    earlier record's; its label is not 0 or 1 (bools are refused); its row
    of `rows` holds a non-finite value; or a value outside [0, 1]. The
    pixel checks are two reductions over all rows.
    """
    lo, hi = rows.min(axis=1), rows.max(axis=1)
    finite = np.isfinite(lo) & np.isfinite(hi)
    bad_pixels = (~finite | (lo < 0.0) | (hi > 1.0)).tolist()  # NaN compares False
    seen: set[str] = set()
    for i, (rec_id, label) in enumerate(zip(ids, labels)):
        if rec_id in seen:
            raise DataError(f"duplicate id '{rec_id}'")
        if _bad_label(label):
            raise DataError(f"id '{rec_id}': label must be 0 or 1, got {label!r}")
        if bad_pixels[i]:
            if not finite[i]:
                raise DataError(f"id '{rec_id}': non-finite pixel value")
            raise DataError(f"id '{rec_id}': pixel value outside [0, 1]")
        seen.add(rec_id)


def _size_mismatch(rec_id: str, shape: tuple[int, int], height: int, width: int) -> DataError:
    return DataError(f"dimension mismatch for id '{rec_id}': {shape[0]}x{shape[1]} vs expected {height}x{width}")


class Dataset:
    """Ordered, dimension-consistent image records backed by one N x P matrix.

    Build one with from_records, from_matrix, take or appended; the
    constructor itself trusts its arguments and checks nothing. Its
    records are the first len(ids) rows of `buffer`; any rows after them
    are the spare space that the first `appended` may fill.
    """

    def __init__(self, buffer: np.ndarray, height: int, width: int,
                 ids: list[str], labels: list[int], groups: list[str | None]):
        matrix = buffer[: len(ids)]
        matrix.flags.writeable = False
        self._matrix = matrix
        self._spare = buffer if buffer.shape[0] > len(ids) else None
        self._labels = np.array(labels, dtype=np.float64)
        self._labels.flags.writeable = False
        self.height = height
        self.width = width
        views = matrix.reshape(len(ids), height, width)
        self.records = [
            ImageRecord(id=rec_id, pixels=views[i], label=int(label), group=group)
            for i, (rec_id, label, group) in enumerate(zip(ids, labels, groups))
        ]

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, height: int, width: int,
                    ids: list[str], labels: list, groups: list[str | None]) -> "Dataset":
        """Adopt a filled C-contiguous float64 len(ids) x (height * width)
        matrix as the dataset's storage, after checking every record; the
        matrix is marked read-only."""
        if not ids:
            raise DataError("dataset must be non-empty")
        if matrix.dtype != np.float64 or not matrix.flags.c_contiguous or matrix.shape != (len(ids), height * width):
            raise DataError(f"expected a C-contiguous float64 {len(ids)}x{height * width} matrix")
        _check_rows(ids, labels, matrix)
        matrix.flags.writeable = False
        return cls(matrix, height, width, ids, labels, groups)

    @classmethod
    def from_records(cls, records: list[ImageRecord]) -> "Dataset":
        """Stack the records' pixels once into a new dataset. The first bad
        record, in order, raises a DataError: one whose image is not the
        first record's size, or one that _check_rows refuses."""
        if not records:
            raise DataError("dataset must be non-empty")
        h, w = records[0].pixels.shape
        ids = [rec.id for rec in records]
        labels = [rec.label for rec in records]
        mat = np.empty((len(records), h * w))
        rows = mat.reshape(len(records), h, w)
        for i, rec in enumerate(records):
            if rec.pixels.shape != (h, w):
                _check_rows(ids[:i], labels[:i], mat[:i])
                raise _size_mismatch(rec.id, rec.pixels.shape, h, w)
            rows[i] = rec.pixels
        _check_rows(ids, labels, mat)
        return cls(mat, h, w, ids, labels, [rec.group for rec in records])

    def take(self, indices) -> "Dataset":
        """A new dataset of the rows at `indices`, in that order, copied out
        of the matrix as one block; a repeated index raises a DataError."""
        idx = np.asarray(indices, dtype=np.intp)
        if len(set(idx.tolist())) != len(idx):
            raise DataError("take: repeated row index")
        picked = [self.records[i] for i in idx]
        return Dataset(self._matrix[idx], self.height, self.width, [rec.id for rec in picked],
                       [rec.label for rec in picked], [rec.group for rec in picked])

    def appended(self, rows: "Dataset") -> "Dataset":
        """A new dataset: this one's records, then those of `rows`. Rows of
        another image size or with an id this dataset holds raise a
        DataError. This dataset is unchanged either way."""
        if len(rows) and (rows.height, rows.width) != (self.height, self.width):
            raise _size_mismatch(rows.records[0].id, (rows.height, rows.width), self.height, self.width)
        held = set(self.ids())
        for rec_id in rows.ids():
            if rec_id in held:
                raise DataError(f"duplicate id '{rec_id}'")
        n = len(self.records)
        total = n + len(rows)
        buffer = self._spare
        if buffer is None or buffer.shape[0] < total:
            buffer = np.empty((total + total // 2, self._matrix.shape[1]))
            buffer[:n] = self._matrix
        buffer[n:total] = rows.matrix()
        self._spare = None
        whole = self.records + rows.records
        return Dataset(buffer, self.height, self.width,
                       [rec.id for rec in whole], [rec.label for rec in whole], [rec.group for rec in whole])

    def __len__(self) -> int:
        return len(self.records)

    def ids(self) -> list[str]:
        return [rec.id for rec in self.records]

    def matrix(self) -> np.ndarray:
        """The stored N x P image matrix (row-major flattening), read-only."""
        return self._matrix

    def labels(self) -> np.ndarray:
        """The stored read-only float64 label array, aligned with records."""
        return self._labels

    def groups(self) -> list[str | None]:
        return [rec.group for rec in self.records]


def load_manifest(path) -> Dataset:
    """Load a JSONL manifest into a Dataset, preserving manifest line order.

    Each image is read straight into its row of one preallocated matrix:
    every non-blank line is one record or an error.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read manifest {path}: {exc}") from exc
    base = path.parent
    lines = [(lineno, line) for lineno, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if not lines:
        raise DataError(f"{path}: manifest has no records")
    ids: list[str] = []
    labels: list[int] = []
    groups: list[str | None] = []
    seen: set[str] = set()
    for lineno, line in lines:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{lineno}: malformed line: {exc.msg}") from exc
        if not isinstance(obj, dict):
            raise DataError(f"{path}:{lineno}: malformed line: expected a JSON object")
        try:
            rec_id = obj["id"]
            img_path = obj["path"]
            label = obj["label"]
        except KeyError as exc:
            raise DataError(f"{path}:{lineno}: malformed line: missing key {exc}") from exc
        group = obj.get("group")
        if not isinstance(rec_id, str):
            raise DataError(f"{path}:{lineno}: malformed line: id must be a string")
        if not isinstance(img_path, str):
            raise DataError(f"{path}:{lineno}: malformed line: path must be a string")
        if _bad_label(label):
            raise DataError(f"{path}:{lineno}: malformed line: label must be 0 or 1")
        if group is not None and not isinstance(group, str):
            raise DataError(f"{path}:{lineno}: malformed line: group must be a string")
        if rec_id in seen:
            raise DataError(f"{path}:{lineno}: duplicate id '{rec_id}'")
        seen.add(rec_id)
        pixels = read_pgm(base / img_path)
        if not ids:
            h, w = pixels.shape
            mat = np.empty((len(lines), h * w))
            rows = mat.reshape(len(lines), h, w)
        elif pixels.shape != (h, w):
            raise _size_mismatch(rec_id, pixels.shape, h, w)
        rows[len(ids)] = pixels
        ids.append(rec_id)
        labels.append(int(label))
        groups.append(group)
    return Dataset.from_matrix(mat, h, w, ids, labels, groups)


def save_dataset(dataset: Dataset, manifest_path) -> None:
    """Write a dataset as a JSONL manifest plus one PGM file per record.

    Images go into '<manifest stem>-images' next to the manifest, named
    '<id>.pgm'.
    """
    manifest_path = Path(manifest_path)
    rel_dir = manifest_path.stem + "-images"
    out_dir = manifest_path.parent / rel_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for rec in dataset.records:
        rel_path = f"{rel_dir}/{rec.id}.pgm"
        write_pgm(manifest_path.parent / rel_path, rec.pixels)
        obj: dict = {"id": rec.id, "path": rel_path, "label": rec.label}
        if rec.group is not None:
            obj["group"] = rec.group
        lines.append(json.dumps(obj))
    manifest_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
