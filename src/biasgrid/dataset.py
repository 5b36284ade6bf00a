"""Image records, datasets, and JSONL manifest I/O.

A Dataset stores its images as one N x P float64 matrix, P = H * W, each
image flattened row-major into one row. The matrix is C-contiguous and
read-only, and `matrix()` returns it without copying; labels are a stored
read-only float64 array beside it. Each record's `pixels` is a read-only
H x W view of its row, so writing to `pixels` (or to the matrix) raises
ValueError: a dataset never changes once built. `appended` returns a new
dataset with more records and leaves the one it was called on as it was.

`appended` stores its result in a row buffer with spare capacity (half as
many rows again), and its matrix is a leading-rows view of that buffer.
The first dataset appended to such a dataset takes over the spare rows:
only the new records are copied, into the rows past the receiver's own.
A later `appended` on the same receiver, or one that does not fit, copies
the receiver's rows and the new ones into a fresh buffer. So a chain of
appends copies the rows it already holds only when it outgrows a buffer,
not on every append.

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


def _check_rows(ids: list[str], labels: list, rows: np.ndarray, taken) -> None:
    """Raise the DataError of the first bad record, in record order.

    Within a record the checks run in this order: its id repeats one in
    `taken` or an earlier record's; its label is not 0 or 1 (bools are
    refused); its row of `rows` holds a non-finite value; or a value
    outside [0, 1]. The pixel checks are two reductions over all rows.
    """
    lo, hi = rows.min(axis=1), rows.max(axis=1)
    finite = np.isfinite(lo) & np.isfinite(hi)
    bad_pixels = (~finite | (lo < 0.0) | (hi > 1.0)).tolist()  # NaN compares False
    seen: set[str] = set()
    for i, (rec_id, label) in enumerate(zip(ids, labels)):
        if rec_id in taken or rec_id in seen:
            raise DataError(f"duplicate id '{rec_id}'")
        if _bad_label(label):
            raise DataError(f"id '{rec_id}': label must be 0 or 1, got {label!r}")
        if bad_pixels[i]:
            if not finite[i]:
                raise DataError(f"id '{rec_id}': non-finite pixel value")
            raise DataError(f"id '{rec_id}': pixel value outside [0, 1]")
        seen.add(rec_id)


def _stack(records: list[ImageRecord], mat: np.ndarray, height: int, width: int, taken) -> None:
    """Copy the records' pixels into the C-contiguous len(records) x
    (height * width) matrix `mat`, raising the DataError of the first bad
    record: one whose image is not height x width, or one that _check_rows
    refuses."""
    ids = [rec.id for rec in records]
    labels = [rec.label for rec in records]
    rows = mat.reshape(len(records), height, width)
    for i, rec in enumerate(records):
        if rec.pixels.shape != (height, width):
            _check_rows(ids[:i], labels[:i], mat[:i], taken)
            raise DataError(
                f"dimension mismatch for id '{rec.id}': "
                f"{rec.pixels.shape[0]}x{rec.pixels.shape[1]} vs expected {height}x{width}"
            )
        rows[i] = rec.pixels
    _check_rows(ids, labels, mat, taken)


class Dataset:
    """Ordered, dimension-consistent image records backed by one N x P matrix.

    Build one with from_records, from_matrix or appended; the constructor
    itself trusts its arguments and checks nothing. Its records are the
    first len(ids) rows of `buffer`; any rows after them are the spare
    space that the first `appended` may fill.
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
        self._by_id = {rec.id: rec for rec in self.records}

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
        _check_rows(ids, labels, matrix, {})
        matrix.flags.writeable = False
        return cls(matrix, height, width, ids, labels, groups)

    @classmethod
    def from_records(cls, records: list[ImageRecord]) -> "Dataset":
        """Stack the records' pixels once into a new dataset; the first bad
        record, in order, raises a DataError."""
        if not records:
            raise DataError("dataset must be non-empty")
        h, w = records[0].pixels.shape
        mat = np.empty((len(records), h * w))
        _stack(records, mat, h, w, {})
        return cls(mat, h, w, [rec.id for rec in records], [rec.label for rec in records],
                   [rec.group for rec in records])

    def appended(self, records: list[ImageRecord]) -> "Dataset":
        """A new dataset: this one's records, then `records`.

        Only the new records are checked, and the first bad one raises what
        from_records on the whole list would. This dataset is unchanged.
        Only the first dataset appended to this one gets its spare rows.
        """
        n = len(self.records)
        total = n + len(records)
        buffer = self._spare
        if buffer is None or buffer.shape[0] < total:
            buffer = np.empty((total + total // 2, self._matrix.shape[1]))
            buffer[:n] = self._matrix
        _stack(records, buffer[n:total], self.height, self.width, self._by_id)
        self._spare = None
        whole = self.records + list(records)
        return Dataset(buffer, self.height, self.width,
                       [rec.id for rec in whole], [rec.label for rec in whole], [rec.group for rec in whole])

    def __len__(self) -> int:
        return len(self.records)

    def ids(self) -> list[str]:
        return [rec.id for rec in self.records]

    def record_by_id(self, rec_id: str) -> ImageRecord:
        try:
            return self._by_id[rec_id]
        except KeyError:
            raise DataError(f"no record with id '{rec_id}'") from None

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
            raise DataError(
                f"dimension mismatch for id '{rec_id}': "
                f"{pixels.shape[0]}x{pixels.shape[1]} vs expected {h}x{w}"
            )
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
