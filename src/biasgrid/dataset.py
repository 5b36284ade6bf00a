"""Image records, datasets, and JSONL manifest I/O.

A manifest is one JSON object per line with keys "id" (string), "path"
(image file relative to the manifest's directory), "label" (0 or 1), and
optional "group" (string). The group tag exists only so evaluations can
report per-subgroup accuracy; no algorithm in this package reads it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError
from .netpbm import read_pgm, write_pgm


@dataclass
class ImageRecord:
    """One grayscale image with a binary label (0=open/awake, 1=closed/drowsy)."""

    id: str
    pixels: np.ndarray  # H x W, float in [0, 1]
    label: int
    group: str | None = None


@dataclass
class Dataset:
    """Ordered, dimension-consistent collection of image records."""

    records: list[ImageRecord]
    height: int
    width: int
    _by_id: dict[str, ImageRecord] = field(default_factory=dict, repr=False)

    @classmethod
    def from_records(cls, records: list[ImageRecord]) -> "Dataset":
        if not records:
            raise DataError("dataset must be non-empty")
        h, w = records[0].pixels.shape
        by_id: dict[str, ImageRecord] = {}
        for rec in records:
            if rec.pixels.shape != (h, w):
                raise DataError(
                    f"dimension mismatch for id '{rec.id}': "
                    f"{rec.pixels.shape[0]}x{rec.pixels.shape[1]} vs expected {h}x{w}"
                )
            if rec.id in by_id:
                raise DataError(f"duplicate id '{rec.id}'")
            if rec.label not in (0, 1):
                raise DataError(f"id '{rec.id}': label must be 0 or 1, got {rec.label!r}")
            if not np.all(np.isfinite(rec.pixels)):
                raise DataError(f"id '{rec.id}': non-finite pixel value")
            if rec.pixels.min() < 0.0 or rec.pixels.max() > 1.0:
                raise DataError(f"id '{rec.id}': pixel value outside [0, 1]")
            by_id[rec.id] = rec
        return cls(records=list(records), height=h, width=w, _by_id=by_id)

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
        """Images reshaped to row vectors and stacked: N x P, row-major flattening."""
        return np.stack([rec.pixels.ravel() for rec in self.records], dtype=np.float64)

    def labels(self) -> np.ndarray:
        return np.array([rec.label for rec in self.records], dtype=np.float64)

    def groups(self) -> list[str | None]:
        return [rec.group for rec in self.records]


def load_manifest(path) -> Dataset:
    """Load a JSONL manifest into a Dataset, preserving manifest line order."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read manifest {path}: {exc}") from exc
    base = path.parent
    records: list[ImageRecord] = []
    seen: set[str] = set()
    dims: tuple[int, int] | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
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
        if label not in (0, 1) or isinstance(label, bool):
            raise DataError(f"{path}:{lineno}: malformed line: label must be 0 or 1")
        if group is not None and not isinstance(group, str):
            raise DataError(f"{path}:{lineno}: malformed line: group must be a string")
        if rec_id in seen:
            raise DataError(f"{path}:{lineno}: duplicate id '{rec_id}'")
        seen.add(rec_id)
        pixels = read_pgm(base / img_path)
        if dims is None:
            dims = pixels.shape
        elif pixels.shape != dims:
            raise DataError(
                f"dimension mismatch for id '{rec_id}': "
                f"{pixels.shape[0]}x{pixels.shape[1]} vs expected {dims[0]}x{dims[1]}"
            )
        records.append(ImageRecord(id=rec_id, pixels=pixels, label=int(label), group=group))
    if not records:
        raise DataError(f"{path}: manifest has no records")
    return Dataset.from_records(records)


def save_dataset(dataset: Dataset, manifest_path, image_dir: str | None = None) -> None:
    """Write a dataset as a JSONL manifest plus one PGM file per record.

    Images go into `image_dir` (relative to the manifest's directory,
    default '<manifest stem>-images'), named '<id>.pgm'.
    """
    manifest_path = Path(manifest_path)
    rel_dir = image_dir if image_dir is not None else manifest_path.stem + "-images"
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
