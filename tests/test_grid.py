"""Greedy grid assignment: tie rules, traversal order, brute-force parity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biasgrid.errors import DataError
from biasgrid.grid import default_dims, make_grid
from oracles import brute_force_grid, reference_make_grid


def test_matches_brute_force_on_seeded_instances():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(1, 13))
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        coords = rng.normal(size=(n, 2))
        ids = [f"im{i}" for i in range(n)]
        layout = make_grid(coords, rows, cols, ids=ids)
        assert layout.cells == brute_force_grid(coords, rows, cols, ids), f"trial {trial}"


def test_assignment_is_injective_and_complete():
    rng = np.random.default_rng(1)
    coords = rng.normal(size=(10, 2))
    layout = make_grid(coords, 4, 4)
    assigned = layout.assigned_ids()
    assert len(assigned) == len(set(assigned)) == 10
    assert sum(cell is None for row in layout.cells for cell in row) == 6


def test_every_point_assigned_when_grid_is_larger():
    coords = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
    layout = make_grid(coords, 2, 2)
    assert sorted(layout.assigned_ids()) == ["0", "1", "2"]


def test_top_row_is_maximum_y():
    coords = np.array([[0.0, 0.0], [0.0, 10.0]])
    layout = make_grid(coords, 2, 1, ids=["low", "high"])
    assert layout.cells == [["high"], ["low"]]


def test_ties_break_to_lowest_index():
    coords = np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
    layout = make_grid(coords, 1, 2, ids=["a", "b", "c"])
    assert layout.cells == [["a", "b"]]


def test_single_cell_uses_bounding_box_center():
    coords = np.array([[0.0, 0.0], [4.0, 2.0], [1.0, 0.1]])
    layout = make_grid(coords, 1, 1)
    # the one lattice point is the bounding box center (2, 1); a point at
    # either corner, (0, 0) or (4, 2), would take index 0 or 1 instead
    assert layout.cells == [["2"]]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-50, 50, allow_nan=False, width=32),
            st.floats(-50, 50, allow_nan=False, width=32),
        ),
        min_size=1,
        max_size=12,
    ),
    st.integers(1, 4),
    st.integers(1, 4),
)
def test_brute_force_parity_property(points, rows, cols):
    coords = np.array(points, dtype=np.float64)
    ids = [str(i) for i in range(len(points))]
    layout = make_grid(coords, rows, cols, ids=ids)
    assert layout.cells == brute_force_grid(coords, rows, cols, ids)
    assigned = layout.assigned_ids()
    assert len(assigned) == len(set(assigned)) == min(len(points), rows * cols)


@pytest.mark.parametrize(
    "coords, rows, cols",
    [
        # on a 3 x 3 lattice at 0, 1, 2: each midpoint ties between four lattice
        # points, the centre (1, 1) ties between four midpoints, and each point is doubled
        (np.repeat([[0.0, 0.0], [2.0, 2.0], [0.5, 0.5], [1.5, 1.5], [0.5, 1.5], [1.5, 0.5]], 2, axis=0), 3, 3),
        (np.full((6, 2), 0.25), 2, 3),  # every point the same
        (np.random.default_rng(40).normal(size=(9, 2)), 1, 9),
        (np.random.default_rng(41).normal(size=(9, 2)), 9, 1),
        (np.random.default_rng(42).normal(size=(9, 2)), 1, 4),  # a 1 x N grid short of the points
        (np.random.default_rng(43).normal(size=(7, 2)), 4, 5),  # rows * cols > N
        (np.random.default_rng(44).normal(size=(3, 2)), 1, 50),
        (np.random.default_rng(45).normal(size=(300, 2)), 17, 17),
        (np.random.default_rng(46).normal(size=(1024, 2)), 32, 32),
    ],
    ids=["ties-duplicates", "all-equal", "1xN", "Nx1", "1xN-short", "more-cells", "wide-row", "300", "1024"],
)
def test_cells_match_the_per_cell_reference(coords, rows, cols):
    ids = [f"im{i}" for i in range(len(coords))]
    assert make_grid(coords, rows, cols, ids=ids).cells == reference_make_grid(coords, rows, cols, ids)


def test_default_dims():
    assert default_dims(17) == (4, 4)
    assert default_dims(16) == (4, 4)
    assert default_dims(1) == (1, 1)
    assert default_dims(300) == (17, 17)


def test_missing_dims_take_the_default():
    coords = np.random.default_rng(4).normal(size=(17, 2))
    grids = (make_grid(coords), make_grid(coords, rows=2), make_grid(coords, cols=3))
    assert [(g.rows, g.cols) for g in grids] == [(4, 4), (2, 4), (4, 3)]
    assert make_grid(coords).cells == make_grid(coords, 4, 4).cells


def test_input_validation():
    good = np.zeros((3, 2))
    with pytest.raises(DataError, match="N x 2"):
        make_grid(np.zeros((3, 3)), 2, 2)
    with pytest.raises(DataError, match="at least one"):
        make_grid(np.zeros((0, 2)), 2, 2)
    with pytest.raises(DataError, match=">= 1"):
        make_grid(good, 0, 2)
    with pytest.raises(DataError, match="unique"):
        make_grid(good, 2, 2, ids=["a", "a", "b"])
    with pytest.raises(DataError, match="3 coordinates"):
        make_grid(good, 2, 2, ids=["a", "b"])
