"""Greedy assignment of projected images to a uniform 2-D grid.

Grid points form a rows x cols lattice over the bounding box of the input
coordinates. Points are visited in row-major order with the top row at
maximum y (matching image layout); each point takes the closest image not
yet assigned, so no image appears twice. The result depends on traversal
order and on the lowest-index tie rule, both fixed here for
reproducibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError


@dataclass
class GridLayout:
    rows: int
    cols: int
    cells: list[list[str | None]]  # rows x cols, image id or None
    cell_coords: np.ndarray  # rows x cols x 2 lattice points in projection space

    def assigned_ids(self) -> list[str]:
        return [cell for row in self.cells for cell in row if cell is not None]


def default_dims(n: int) -> tuple[int, int]:
    """Square grid using nearly all images: rows = cols = floor(sqrt(n))."""
    side = max(1, int(math.isqrt(n)))
    return side, side


def make_grid(
    coords, rows: int | None = None, cols: int | None = None, ids: Sequence[str] | None = None
) -> GridLayout:
    """Assign each lattice point the nearest unassigned image.

    rows and cols that are None take default_dims(N). Ties break toward
    the lowest dataset index. Once every image is assigned (when
    rows*cols > N), remaining cells stay empty.
    """
    pts = np.asarray(coords, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DataError("coords must be an N x 2 array")
    n = pts.shape[0]
    if n < 1:
        raise DataError("need at least one coordinate")
    d_rows, d_cols = default_dims(n)
    rows = d_rows if rows is None else rows
    cols = d_cols if cols is None else cols
    if rows < 1 or cols < 1:
        raise DataError("rows and cols must be >= 1")
    if ids is None:
        ids = [str(i) for i in range(n)]
    ids = list(ids)
    if len(ids) != n:
        raise DataError(f"got {len(ids)} ids for {n} coordinates")
    if len(set(ids)) != n:
        raise DataError("ids must be unique")

    min_x, max_x = float(pts[:, 0].min()), float(pts[:, 0].max())
    min_y, max_y = float(pts[:, 1].min()), float(pts[:, 1].max())
    xs = np.linspace(min_x, max_x, cols) if cols > 1 else np.array([(min_x + max_x) / 2.0])
    ys = np.linspace(max_y, min_y, rows) if rows > 1 else np.array([(min_y + max_y) / 2.0])
    cell_coords = np.empty((rows, cols, 2), dtype=np.float64)
    cell_coords[:, :, 0] = xs[None, :]
    cell_coords[:, :, 1] = ys[:, None]

    cells: list[list[str | None]] = [[None] * cols for _ in range(rows)]
    taken = np.zeros(n, dtype=bool)
    n_assigned = 0
    for r in range(rows):
        if n_assigned == n:
            break
        for c in range(cols):
            if n_assigned == n:
                break
            diff = pts - cell_coords[r, c]
            dist2 = diff[:, 0] ** 2 + diff[:, 1] ** 2
            dist2[taken] = np.inf
            pick = int(np.argmin(dist2))  # first minimum = lowest index on ties
            cells[r][c] = ids[pick]
            taken[pick] = True
            n_assigned += 1
    return GridLayout(rows=rows, cols=cols, cells=cells, cell_coords=cell_coords)
