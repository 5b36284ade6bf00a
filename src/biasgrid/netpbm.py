"""Binary netpbm codecs: PGM (P5) read/write and PPM (P6) write.

On disk a gray value is an 8-bit level with maxval 255. `quantize` is the
package's one rule from a float in [0, 1] to a level: rint(v * 255), ties
to even. A level k reads back as the float k / 255.0 (a division, so
quantize gives k back), and any value already on the 8-bit lattice
round-trips exactly. read_pgm_levels and write_pgm_levels move levels as
they are; read_pgm and write_pgm take floats.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DataError


def _parse_header(data: bytes, magic: bytes, path) -> tuple[int, int, int, int]:
    """Parse a netpbm binary header; returns (width, height, maxval, payload offset)."""
    if data[:2] != magic:
        raise DataError(f"{path}: bad magic number {data[:2]!r}, expected {magic.decode()}")
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            nl = data.find(b"\n", pos)
            if nl < 0:
                raise DataError(f"{path}: truncated header")
            pos = nl + 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token:
            raise DataError(f"{path}: truncated header")
        if not token.isdigit():
            raise DataError(f"{path}: non-numeric header token {token!r}")
        fields.append(int(token))
    if pos >= len(data):
        raise DataError(f"{path}: truncated header")
    # exactly one whitespace byte separates maxval from the payload
    return fields[0], fields[1], fields[2], pos + 1


def quantize(values) -> np.ndarray:
    """The uint8 level of each value in [0, 1]: rint(v * 255), ties to even."""
    return np.rint(np.asarray(values, dtype=np.float64) * 255.0).astype(np.uint8)


def read_pgm_levels(path) -> np.ndarray:
    """Read a binary P5 grayscale file as its H x W read-only uint8 levels."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    width, height, maxval, offset = _parse_header(data, b"P5", path)
    if maxval != 255:
        raise DataError(f"{path}: unsupported maxval {maxval}, expected 255")
    if width == 0 or height == 0:
        raise DataError(f"{path}: zero-size image {width}x{height}")
    n = width * height
    payload = data[offset : offset + n]
    if len(payload) < n:
        raise DataError(f"{path}: truncated payload, expected {n} bytes, got {len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width)


def read_pgm(path) -> np.ndarray:
    """Read a binary P5 grayscale file into an H x W float matrix in [0, 1]."""
    return read_pgm_levels(path) / 255.0


def write_pgm_levels(path, levels: np.ndarray) -> None:
    """Write an H x W uint8 level matrix as binary P5."""
    if levels.dtype != np.uint8 or levels.ndim != 2 or levels.size == 0:
        raise DataError("write_pgm_levels expects a non-empty 2-D uint8 matrix")
    header = f"P5\n{levels.shape[1]} {levels.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + np.ascontiguousarray(levels).tobytes())


def write_pgm(path, matrix) -> None:
    """Write a [0, 1] float matrix as binary P5, quantizing by round(v * 255)."""
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise DataError("write_pgm expects a non-empty 2-D matrix")
    if not np.all(np.isfinite(arr)) or arr.min() < 0.0 or arr.max() > 1.0:
        raise DataError("write_pgm expects finite values in [0, 1]")
    write_pgm_levels(path, quantize(arr))


def write_ppm(path, pixels) -> None:
    """Write an H x W x 3 uint8 buffer as binary P6."""
    arr = np.asarray(pixels)
    if arr.ndim != 3 or arr.shape[2] != 3 or arr.size == 0:
        raise DataError("write_ppm expects a non-empty H x W x 3 buffer")
    if arr.dtype != np.uint8:
        raise DataError(f"write_ppm expects uint8 pixels, got {arr.dtype}")
    header = f"P6\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + np.ascontiguousarray(arr).tobytes())
