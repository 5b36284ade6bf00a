"""PGM/PPM codec tests: round trips, header parsing, malformed files."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from biasgrid.errors import DataError
from biasgrid.netpbm import quantize, read_pgm, read_pgm_levels, write_pgm, write_pgm_levels, write_ppm


def test_round_trip_quantizes_by_rint(tmp_path):
    img = np.linspace(0.0, 1.0, 48).reshape(6, 8)
    path = tmp_path / "a.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.shape == (6, 8)
    assert np.array_equal(back, np.rint(img * 255.0) / 255.0)


def test_values_on_the_8bit_lattice_round_trip_exactly(tmp_path):
    img = np.arange(256, dtype=np.float64).reshape(16, 16) / 255.0
    path = tmp_path / "lattice.pgm"
    write_pgm(path, img)
    assert np.array_equal(read_pgm(path), img)


def test_every_level_reads_as_its_division_by_255_and_quantizes_back(tmp_path):
    levels = np.arange(256, dtype=np.uint8).reshape(16, 16)
    path = tmp_path / "levels.pgm"
    write_pgm_levels(path, levels)
    assert read_pgm_levels(path).tobytes() == levels.tobytes()
    floats = read_pgm(path)
    assert floats.tobytes() == (levels.astype(np.float64) / 255.0).tobytes()
    assert quantize(floats).tobytes() == levels.tobytes()
    with pytest.raises(DataError, match="uint8"):
        write_pgm_levels(path, floats)


def test_header_layout_and_payload_size(tmp_path):
    path = tmp_path / "h.pgm"
    write_pgm(path, np.zeros((3, 5)))
    data = path.read_bytes()
    assert data.startswith(b"P5\n5 3\n255\n")
    assert len(data) == len(b"P5\n5 3\n255\n") + 15


def test_half_value_rounds_to_even(tmp_path):
    # 0.5 * 255 = 127.5 exactly; rint resolves the tie to 128
    path = tmp_path / "tie.pgm"
    write_pgm(path, np.array([[0.5]]))
    assert path.read_bytes()[-1] == 128


def test_write_is_deterministic(tmp_path):
    img = np.random.default_rng(7).random((9, 4))
    write_pgm(tmp_path / "x.pgm", img)
    write_pgm(tmp_path / "y.pgm", img)
    assert (tmp_path / "x.pgm").read_bytes() == (tmp_path / "y.pgm").read_bytes()


@given(arrays(np.float64, (4, 6), elements=st.integers(0, 255).map(lambda v: v / 255.0)))
def test_lattice_round_trip_property(tmp_path_factory, img):
    path = tmp_path_factory.mktemp("pgm") / "p.pgm"
    write_pgm(path, img)
    assert np.array_equal(read_pgm(path), img)


def test_header_comments_are_skipped(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# made by hand\n2 # trailing\n1\n255\n\x00\xff")
    assert np.array_equal(read_pgm(path), np.array([[0.0, 1.0]]))


def test_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
    with pytest.raises(DataError, match="bad magic"):
        read_pgm(path)


def test_rejects_nonnumeric_header_token(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\nwide 1\n255\n\x00")
    with pytest.raises(DataError, match="non-numeric"):
        read_pgm(path)


def test_rejects_wrong_maxval(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n1 1\n127\n\x00")
    with pytest.raises(DataError, match="maxval"):
        read_pgm(path)


@pytest.mark.parametrize("size", [b"0 0", b"0 3", b"3 0"])
def test_rejects_zero_size_image(tmp_path, size):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n" + size + b"\n255\n")
    with pytest.raises(DataError, match="zero-size image"):
        read_pgm(path)


def test_rejects_truncated_header(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n1 1")
    with pytest.raises(DataError, match="truncated header"):
        read_pgm(path)


def test_rejects_truncated_payload(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(DataError, match="truncated payload"):
        read_pgm(path)


def test_missing_file_is_a_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        read_pgm(tmp_path / "absent.pgm")


def test_write_rejects_out_of_range_and_nonfinite(tmp_path):
    with pytest.raises(DataError):
        write_pgm(tmp_path / "r.pgm", np.array([[1.5]]))
    with pytest.raises(DataError):
        write_pgm(tmp_path / "r.pgm", np.array([[-0.1]]))
    with pytest.raises(DataError):
        write_pgm(tmp_path / "r.pgm", np.array([[np.nan]]))
    with pytest.raises(DataError):
        write_pgm(tmp_path / "r.pgm", np.zeros((3,)))


def test_ppm_layout_is_interleaved_rgb(tmp_path):
    px = np.zeros((1, 2, 3), dtype=np.uint8)
    px[0, 0] = (1, 2, 3)
    px[0, 1] = (4, 5, 6)
    path = tmp_path / "p.ppm"
    write_ppm(path, px)
    assert path.read_bytes() == b"P6\n2 1\n255\n\x01\x02\x03\x04\x05\x06"


def test_ppm_rejects_wrong_dtype_and_shape(tmp_path):
    with pytest.raises(DataError, match="uint8"):
        write_ppm(tmp_path / "p.ppm", np.zeros((2, 2, 3), dtype=np.float64))
    with pytest.raises(DataError):
        write_ppm(tmp_path / "p.ppm", np.zeros((2, 2), dtype=np.uint8))
