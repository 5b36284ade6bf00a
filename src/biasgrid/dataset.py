"""Image records, datasets, and JSONL manifest I/O.

A Dataset is four columns in row order: one N x P uint8 matrix of levels,
P = H * W, each image flattened row-major into one row; the ids; the labels
as a float64 array; and the group tags. The levels are C-contiguous and
read-only, and `levels()` returns them without copying, as `labels()` does
its read-only array; `ids()` and `groups()` return fresh lists. A dataset
never changes once built. Every way to build one checks what it adds, so
nothing checks a built dataset's rows again.

Float pixels enter at one place, `from_records`, which checks them (finite,
in [0, 1]) and quantizes them by netpbm's one rule, rint(v * 255) with ties
to even; the generator and the manifest reader write levels straight into
their rows. Every float a consumer sees is exactly levels / 255.0: the
fresh N x P float64 array `matrix()` returns, which the caller owns and may
overwrite, and each record's `pixels`, a read-only H x W float64 image
computed from its row on access. No float copy is kept, so a caller that
needs the whole matrix more than once holds the one `matrix()` gave it.

Rows move by position, in blocks; no API looks a record up by id.
`take(indices)` copies those rows into a new dataset. `appended(rows)`
adds the rows of the Dataset `rows` after this one's (or only those at
given positions), refusing another image size or an id already held, and
copies both into one new level matrix of the exact size. A position
outside [0, len) is refused by both, a negative one included.

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
from .netpbm import quantize, read_pgm_levels, write_pgm_levels


@dataclass
class ImageRecord:
    """One grayscale image with a binary label (0=open/awake, 1=closed/drowsy)."""

    id: str
    pixels: np.ndarray  # H x W, float in [0, 1]
    label: int
    group: str | None = None


class _Row(ImageRecord):
    """A dataset's record: its pixels are computed from its row of levels."""

    def __init__(self, levels: np.ndarray, rec_id: str, label: int, group: str | None):
        self._levels = levels  # H x W uint8 view of the dataset's row
        self.id = rec_id
        self.label = label
        self.group = group

    @property
    def pixels(self) -> np.ndarray:
        pixels = self._levels / 255.0
        pixels.flags.writeable = False
        return pixels


def _bad_label(label) -> bool:
    return isinstance(label, (bool, np.bool_)) or label not in (0, 1)


def _check_rows(ids: list[str], labels: list, rows: np.ndarray | None = None) -> None:
    """Raise the DataError of the first bad record, in record order.

    Within a record the checks run in this order: its id repeats an
    earlier record's; its label is not 0 or 1 (bools are refused); its row
    of the float matrix `rows`, when given, holds a non-finite value; or a
    value outside [0, 1]. The pixel checks are two reductions over all rows.
    """
    bad_pixels = [False] * len(ids)
    if rows is not None:
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
    """Ordered, dimension-consistent images held as four columns: a
    read-only N x P uint8 level matrix, the ids, a read-only float64 label
    array, and the group tags, all in row order.

    Build one with from_records, from_matrix, take or appended; the
    constructor itself trusts its arguments and checks nothing. `records`
    builds a read-only record view of each row on access.
    """

    def __init__(self, levels: np.ndarray, height: int, width: int,
                 ids: list[str], labels: list | np.ndarray, groups: list[str | None]):
        levels.flags.writeable = False
        self._levels = levels
        self._ids = list(ids)
        self._labels = np.array(labels, dtype=np.float64)
        self._labels.flags.writeable = False
        self._groups = list(groups)
        self.height = height
        self.width = width

    @classmethod
    def from_matrix(cls, levels: np.ndarray, height: int, width: int,
                    ids: list[str], labels: list, groups: list[str | None]) -> "Dataset":
        """Adopt a filled C-contiguous uint8 len(ids) x (height * width)
        level matrix as the dataset's storage, after checking every record's
        id and label; the matrix is marked read-only. Every level is a valid
        pixel, so no pixel is checked."""
        if not ids:
            raise DataError("dataset must be non-empty")
        if levels.dtype != np.uint8 or not levels.flags.c_contiguous or levels.shape != (len(ids), height * width):
            raise DataError(f"expected a C-contiguous uint8 {len(ids)}x{height * width} matrix")
        _check_rows(ids, labels)
        return cls(levels, height, width, ids, labels, groups)

    @classmethod
    def from_records(cls, records: list[ImageRecord]) -> "Dataset":
        """Stack the records' float pixels once, check them, and quantize
        them into a new dataset. The first bad record, in order, raises a
        DataError: one whose image is not the first record's size, or one
        that _check_rows refuses."""
        if not records:
            raise DataError("dataset must be non-empty")
        h, w = records[0].pixels.shape
        ids = [rec.id for rec in records]
        labels = [rec.label for rec in records]
        mat = np.empty((len(records), h * w))
        rows = mat.reshape(len(records), h, w)
        for i, rec in enumerate(records):
            pixels = rec.pixels
            if pixels.shape != (h, w):
                _check_rows(ids[:i], labels[:i], mat[:i])
                raise _size_mismatch(rec.id, pixels.shape, h, w)
            rows[i] = pixels
        _check_rows(ids, labels, mat)
        return cls(quantize(mat), h, w, ids, labels, [rec.group for rec in records])

    def _row_indices(self, indices, caller: str) -> np.ndarray:
        """`indices` as a flat intp array of row positions, each in [0, len);
        anything else raises a DataError. Negative positions are refused,
        not counted from the end."""
        idx = np.asarray(indices, dtype=np.intp)
        if idx.ndim != 1:
            raise DataError(f"{caller}: row indices must be a flat sequence")
        outside = idx[(idx < 0) | (idx >= len(self))]
        if outside.size:
            raise DataError(f"{caller}: row index {outside[0]} outside [0, {len(self)})")
        return idx

    def take(self, indices) -> "Dataset":
        """A new dataset of the rows at `indices`, in that order, copied out
        of the level matrix as one block; an index outside [0, len) or a
        repeated one raises a DataError."""
        idx = self._row_indices(indices, "take")
        picked = idx.tolist()
        if len(set(picked)) != len(picked):
            raise DataError("take: repeated row index")
        return Dataset(self._levels[idx], self.height, self.width, [self._ids[i] for i in picked],
                       self._labels[idx], [self._groups[i] for i in picked])

    def appended(self, rows: "Dataset", indices=None) -> "Dataset":
        """A new dataset: this one's rows, then those of `rows` at `indices`
        in that order (all of them when None), both copied into one new level
        matrix of the exact size. An index outside [0, len(rows)), images of
        another size (even when nothing is picked), or a picked row with an
        id this dataset holds or picked twice raises a DataError. This
        dataset is unchanged either way."""
        idx = np.arange(len(rows)) if indices is None else rows._row_indices(indices, "appended")
        picked = idx.tolist()
        ids = [rows._ids[i] for i in picked]
        if (rows.height, rows.width) != (self.height, self.width):
            if ids:
                raise _size_mismatch(ids[0], (rows.height, rows.width), self.height, self.width)
            raise DataError(f"dimension mismatch: rows are {rows.height}x{rows.width} images, "
                            f"expected {self.height}x{self.width}")
        held = set(self._ids)
        for rec_id in ids:  # a repeated index repeats an id
            if rec_id in held:
                raise DataError(f"duplicate id '{rec_id}'")
            held.add(rec_id)
        return Dataset(np.concatenate((self._levels, rows._levels[idx])), self.height, self.width,
                       self._ids + ids, np.concatenate((self._labels, rows._labels[idx])),
                       self._groups + [rows._groups[i] for i in picked])

    @property
    def records(self) -> list[ImageRecord]:
        """One record per row, in order, built on each access: its pixels
        are computed from the row's levels and are read-only."""
        views = self._levels.reshape(len(self), self.height, self.width)
        return [_Row(view, rec_id, int(label), group)
                for view, rec_id, label, group in zip(views, self._ids, self._labels.tolist(), self._groups)]

    def __len__(self) -> int:
        return len(self._ids)

    def ids(self) -> list[str]:
        return list(self._ids)

    def levels(self) -> np.ndarray:
        """The stored N x P uint8 level matrix (row-major flattening), read-only."""
        return self._levels

    def matrix(self) -> np.ndarray:
        """A fresh N x P float64 matrix, levels / 255.0, that the caller owns."""
        return self._levels / 255.0

    def labels(self) -> np.ndarray:
        """The stored read-only float64 label array, aligned with the rows."""
        return self._labels

    def groups(self) -> list[str | None]:
        return list(self._groups)


def load_manifest(path) -> Dataset:
    """Load a JSONL manifest into a Dataset, preserving manifest line order.

    Each image's 8-bit payload is copied straight into its row of one
    preallocated level matrix: every non-blank line is one record or an
    error.
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
        image = read_pgm_levels(base / img_path)
        if not ids:
            h, w = image.shape
            levels = np.empty((len(lines), h * w), dtype=np.uint8)
            rows = levels.reshape(len(lines), h, w)
        elif image.shape != (h, w):
            raise _size_mismatch(rec_id, image.shape, h, w)
        rows[len(ids)] = image
        ids.append(rec_id)
        labels.append(int(label))
        groups.append(group)
    return Dataset.from_matrix(levels, h, w, ids, labels, groups)


def save_dataset(dataset: Dataset, manifest_path) -> None:
    """Write a dataset as a JSONL manifest plus one PGM file per record.

    Images go into '<manifest stem>-images' next to the manifest, named
    '<id>.pgm', each written as its row of levels.
    """
    manifest_path = Path(manifest_path)
    rel_dir = manifest_path.stem + "-images"
    out_dir = manifest_path.parent / rel_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    images = dataset.levels().reshape(len(dataset), dataset.height, dataset.width)
    for rec_id, label, group, image in zip(dataset.ids(), dataset.labels().tolist(), dataset.groups(), images):
        rel_path = f"{rel_dir}/{rec_id}.pgm"
        write_pgm_levels(manifest_path.parent / rel_path, image)
        obj: dict = {"id": rec_id, "path": rel_path, "label": int(label)}
        if group is not None:
            obj["group"] = group
        lines.append(json.dumps(obj))
    manifest_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
