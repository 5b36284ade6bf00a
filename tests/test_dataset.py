"""Dataset construction, alignment guarantees, and manifest I/O."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from biasgrid.dataset import Dataset, ImageRecord, load_manifest, save_dataset
from biasgrid.errors import DataError
from biasgrid.netpbm import read_pgm_levels, write_pgm
from biasgrid.synth import CorpusSpec, generate_corpus, generate_split
from oracles import reference_from_records


def make_rec(rec_id, value=0.5, label=0, shape=(4, 4), group=None):
    return ImageRecord(id=rec_id, pixels=np.full(shape, value), label=label, group=group)


def eight_bit(shape, seed):
    """Random pixels already on the 8-bit lattice, so saving loses nothing."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=shape).astype(np.float64) / 255.0


def test_matrix_is_row_major_and_aligned():
    px = np.arange(6, dtype=np.float64).reshape(2, 3) / 255.0
    ds = Dataset.from_records([ImageRecord("a", px, 0), make_rec("b", 0.25, 1, (2, 3))])
    mat = ds.matrix()
    assert mat.shape == (2, 6)
    assert mat.dtype == np.float64
    assert np.array_equal(mat[0], px.ravel())
    assert ds.ids() == ["a", "b"]
    assert np.array_equal(ds.labels(), [0.0, 1.0])


def test_labels_groups_and_length():
    ds = Dataset.from_records([make_rec("a", group="dark"), make_rec("b", label=1)])
    assert [rec.label for rec in ds.records] == [0, 1]
    assert ds.groups() == ["dark", None]
    assert len(ds) == 2


def test_from_records_rejects_empty():
    with pytest.raises(DataError, match="non-empty"):
        Dataset.from_records([])


def test_from_records_rejects_duplicate_id():
    with pytest.raises(DataError, match="duplicate id 'a'"):
        Dataset.from_records([make_rec("a"), make_rec("a")])


def test_from_records_rejects_dimension_mismatch():
    with pytest.raises(DataError, match="dimension mismatch for id 'b'"):
        Dataset.from_records([make_rec("a"), make_rec("b", shape=(4, 5))])


def test_from_records_rejects_bad_labels_and_pixels():
    with pytest.raises(DataError, match="label must be 0 or 1"):
        Dataset.from_records([make_rec("a", label=2)])
    with pytest.raises(DataError, match="non-finite"):
        Dataset.from_records([ImageRecord("a", np.full((4, 4), np.inf), 0)])
    with pytest.raises(DataError, match="outside"):
        Dataset.from_records([make_rec("a", value=1.25)])


def test_manifest_round_trip(tmp_path):
    ds = Dataset.from_records(
        [
            ImageRecord("x1", eight_bit((5, 7), 0), 0, group="light"),
            ImageRecord("x2", eight_bit((5, 7), 1), 1, group=None),
        ]
    )
    manifest = tmp_path / "data.jsonl"
    save_dataset(ds, manifest)
    back = load_manifest(manifest)
    assert back.ids() == ["x1", "x2"]
    assert back.groups() == ["light", None]
    assert np.array_equal(back.matrix(), ds.matrix())
    assert (tmp_path / "data-images" / "x1.pgm").exists()
    # group key is omitted entirely for untagged records
    lines = manifest.read_text().splitlines()
    assert "group" not in json.loads(lines[1])
    assert manifest.read_text().endswith("\n")


def test_manifest_paths_resolve_relative_to_manifest_dir(tmp_path):
    ds = Dataset.from_records([ImageRecord("r", eight_bit((4, 4), 3), 0)])
    nested = tmp_path / "deep" / "deeper"
    nested.mkdir(parents=True)
    save_dataset(ds, nested / "m.jsonl")
    # loading through a different cwd must still find the images
    assert load_manifest(nested / "m.jsonl").ids() == ["r"]


def test_manifest_rejects_malformed_json(tmp_path):
    ds = Dataset.from_records([ImageRecord("a", eight_bit((4, 4), 9), 0)])
    path = tmp_path / "bad.jsonl"
    save_dataset(ds, path)
    path.write_text(path.read_text() + "not json\n")
    with pytest.raises(DataError, match=r"bad\.jsonl:2: malformed line"):
        load_manifest(path)


def test_manifest_rejects_missing_keys(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "label": 0}\n')
    with pytest.raises(DataError, match="missing key"):
        load_manifest(path)


def test_manifest_rejects_boolean_label(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "path": "a.pgm", "label": true}\n')
    with pytest.raises(DataError, match="label must be 0 or 1"):
        load_manifest(path)


def test_manifest_rejects_duplicate_id_with_line_number(tmp_path):
    ds = Dataset.from_records([ImageRecord("a", eight_bit((4, 4), 4), 0)])
    save_dataset(ds, tmp_path / "m.jsonl")
    line = (tmp_path / "m.jsonl").read_text().strip()
    (tmp_path / "m.jsonl").write_text(line + "\n" + line + "\n")
    with pytest.raises(DataError, match=r"m\.jsonl:2: duplicate id 'a'"):
        load_manifest(tmp_path / "m.jsonl")


def test_manifest_rejects_non_object_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("[1, 2]\n")
    with pytest.raises(DataError, match="expected a JSON object"):
        load_manifest(path)


def test_empty_manifest_is_an_error(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("\n\n")
    with pytest.raises(DataError, match="no records"):
        load_manifest(path)


def test_missing_manifest_is_a_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read manifest"):
        load_manifest(tmp_path / "nope.jsonl")


def test_manifest_blank_lines_are_skipped(tmp_path):
    ds = Dataset.from_records([ImageRecord("a", eight_bit((4, 4), 5), 0)])
    save_dataset(ds, tmp_path / "m.jsonl")
    text = (tmp_path / "m.jsonl").read_text()
    (tmp_path / "m.jsonl").write_text("\n" + text + "\n\n")
    assert load_manifest(tmp_path / "m.jsonl").ids() == ["a"]


@pytest.mark.parametrize("label", [True, False, np.True_])
def test_from_records_rejects_boolean_labels(label):
    with pytest.raises(DataError, match="label must be 0 or 1, got"):
        Dataset.from_records([make_rec("a", label=label)])


@pytest.mark.parametrize("label", [np.int64(1), 1.0, np.int64(0), 0.0])
def test_numeric_labels_are_stored_as_int_and_round_trip(tmp_path, label):
    expected = int(label)
    ds = Dataset.from_records(
        [ImageRecord("a", eight_bit((4, 4), 6), label), ImageRecord("b", eight_bit((4, 4), 7), 1 - expected)]
    )
    assert type(ds.records[0].label) is int and ds.records[0].label == expected
    save_dataset(ds, tmp_path / "m.jsonl")
    back = load_manifest(tmp_path / "m.jsonl")
    assert [rec.label for rec in back.records] == [expected, 1 - expected]
    assert np.array_equal(back.labels(), ds.labels())


def clean_records(n=8, shape=(4, 5)):
    return [ImageRecord(f"r{i:02d}", eight_bit(shape, 100 + i), i % 2, "dark" if i % 3 else None)
            for i in range(n)]


def plant(rec, prev, defect):
    """rec with one defect; prev is the record before it (for a duplicate id)."""
    if defect == "dimension":
        return replace(rec, pixels=np.full((5, 4), 0.5))
    if defect == "duplicate":
        return replace(rec, id=prev.id)
    if defect == "label":
        return replace(rec, label=2)
    value = {"nan": np.nan, "inf": np.inf, "above_one": 1.0 + 1e-12}[defect]
    pixels = rec.pixels.copy()
    pixels.flat[7] = value
    return replace(rec, pixels=pixels)


# (position, defect) lists; a record with several defects gets them in the
# order listed, and "dimension" comes first because it replaces the pixels.
DEFECT_CASES = {
    "dimension": [(3, "dimension")],
    "duplicate": [(5, "duplicate")],
    "label": [(1, "label")],
    "nan": [(7, "nan")],
    "inf": [(4, "inf")],
    "above_one": [(2, "above_one")],
    "label_before_nan": [(2, "label"), (5, "nan")],
    "nan_before_label": [(2, "nan"), (5, "label")],
    "above_one_before_duplicate": [(1, "above_one"), (6, "duplicate")],
    "duplicate_before_dimension": [(4, "duplicate"), (6, "dimension")],
    "inf_before_dimension": [(3, "inf"), (4, "dimension")],
    "dimension_before_label": [(2, "dimension"), (3, "label")],
    "same_record_dimension_label": [(3, "dimension"), (3, "label")],
    "same_record_duplicate_label": [(6, "duplicate"), (6, "label")],
    "same_record_label_nan": [(4, "label"), (4, "nan")],
    "same_record_nan_above_one": [(5, "above_one"), (5, "nan")],
    "same_record_inf_above_one": [(7, "above_one"), (7, "inf")],
    "three_records": [(6, "label"), (3, "above_one"), (7, "duplicate")],
}


def planted(case):
    records = clean_records()
    for pos, defect in DEFECT_CASES[case]:
        records[pos] = plant(records[pos], records[pos - 1], defect)
    return records


def oracle_message(records):
    with pytest.raises(DataError) as info:
        reference_from_records(records)
    return str(info.value)


@pytest.mark.parametrize("case", sorted(DEFECT_CASES))
def test_from_records_raises_the_oracles_first_error(case):
    records = planted(case)
    with pytest.raises(DataError) as info:
        Dataset.from_records(records)
    assert str(info.value) == oracle_message(records)


def grown_row_by_row(base, records):
    """base with each record appended in turn, as a one-row dataset."""
    for rec in records:
        base = base.appended(Dataset.from_records([rec]))
    return base


# A record that has a label defect besides a dimension or duplicate one now
# fails on its label when its one-row dataset is built, before appended
# could see the other defect; from_records still reports the oracle's order.
GROWN_CASES = sorted(set(DEFECT_CASES) - {"same_record_dimension_label", "same_record_duplicate_label"})


@pytest.mark.parametrize("case", GROWN_CASES)
def test_appended_raises_what_from_records_of_the_whole_list_raises(case):
    # appended refuses a dimension or duplicate defect; a label or pixel
    # defect cannot reach it, because no dataset holding one can be built
    records = planted(case)
    first_bad = min(pos for pos, _ in DEFECT_CASES[case])
    expected = oracle_message(records)
    for split in sorted({1, first_bad}):
        base = Dataset.from_records(records[:split])
        before = base.matrix().tobytes()
        with pytest.raises(DataError) as info:
            grown_row_by_row(base, records[split:])
        assert str(info.value) == expected
        assert len(base) == split and base.matrix().tobytes() == before


def test_matrix_is_one_stored_read_only_array_and_records_are_its_rows():
    ds = Dataset.from_records(clean_records())
    levels = ds.levels()
    assert ds.levels() is levels
    assert levels.dtype == np.uint8 and levels.flags.c_contiguous and not levels.flags.writeable
    assert ds.labels() is ds.labels() and not ds.labels().flags.writeable
    mat = ds.matrix()  # computed, never stored: the caller's own copy
    assert ds.matrix() is not mat and mat.tobytes() == (levels / 255.0).tobytes()
    assert mat.dtype == np.float64 and mat.flags.c_contiguous
    for i, rec in enumerate(ds.records):
        assert rec.pixels.dtype == np.float64 and not rec.pixels.flags.writeable
        assert rec.pixels.ravel().tobytes() == mat[i].tobytes()
    with pytest.raises(ValueError):
        ds.records[0].pixels[0, 0] = 0.0
    with pytest.raises(ValueError):
        levels[0, 0] = 0
    mat[0, 0] = 1.0
    assert ds.matrix()[0, 0] == levels[0, 0] / 255.0


def test_appended_leaves_the_receiver_unchanged():
    records = clean_records()
    base = Dataset.from_records(records[:5])
    levels, ids, recs = base.levels(), base.ids(), list(base.records)
    before = levels.tobytes()
    grown = base.appended(Dataset.from_records(records[5:]))
    assert base.levels() is levels and levels.tobytes() == before
    assert base.ids() == ids and base.records == recs and len(base) == 5
    assert "r07" not in base.ids()
    whole = Dataset.from_records(grown.records)
    assert grown.matrix().tobytes() == whole.matrix().tobytes()
    assert grown.ids() == whole.ids() and grown.groups() == whole.groups()
    assert np.array_equal(grown.labels(), whole.labels())
    assert grown.ids()[7] == "r07" and grown.records[7].pixels.tobytes() == grown.matrix()[7].tobytes()


def test_take_copies_the_rows_at_the_indices_in_order():
    source = Dataset.from_records(clean_records())
    before = source.matrix().tobytes()
    picked = source.take([6, 1, 3])
    assert picked.ids() == ["r06", "r01", "r03"]
    assert picked.matrix().tobytes() == source.matrix()[[6, 1, 3]].tobytes()
    assert picked.labels().tolist() == [0.0, 1.0, 1.0]
    assert picked.groups() == [None, "dark", None]
    assert_is_from_records_of_its_records(picked)
    assert not np.shares_memory(picked.levels(), source.levels())
    assert source.matrix().tobytes() == before and len(source) == 8
    assert len(source.take([])) == 0
    with pytest.raises(DataError, match="repeated row index"):
        source.take([2, 5, 2])


@pytest.mark.parametrize("bad", ["duplicate", "dimension"])
def test_appended_refuses_a_held_id_or_another_size_and_keeps_the_receiver(bad):
    records = clean_records(12)
    receiver = Dataset.from_records(records[:4]).appended(Dataset.from_records(records[4:6]))  # spare rows
    before = receiver.matrix().tobytes()
    if bad == "duplicate":
        rows = Dataset.from_records(records[6:8] + [replace(records[8], id="r05")] + records[9:10])
        message = "duplicate id 'r05'"
    else:
        rows = Dataset.from_records([make_rec(f"w{i}", shape=(5, 4)) for i in range(2)])
        message = "dimension mismatch for id 'w0': 5x4 vs expected 4x5"
    with pytest.raises(DataError) as info:
        receiver.appended(rows)
    assert str(info.value) == message
    assert receiver.matrix().tobytes() == before and len(receiver) == 6
    # the refused append left the spare rows to the next one
    grown = receiver.appended(Dataset.from_records(records[6:8]))
    assert np.shares_memory(grown.levels(), receiver.levels())
    assert_is_from_records_of_its_records(grown)


def test_appended_copies_only_the_rows_at_the_indices():
    records = clean_records(10)
    receiver = Dataset.from_records(records[:4])
    rows = Dataset.from_records(records[4:])
    grown = receiver.appended(rows, [5, 0, 2])
    assert grown.ids() == receiver.ids() + ["r09", "r04", "r06"]
    assert grown.levels().tobytes() == receiver.appended(rows.take([5, 0, 2])).levels().tobytes()
    assert_is_from_records_of_its_records(grown)
    with pytest.raises(DataError, match="duplicate id 'r06'"):
        receiver.appended(rows, [2, 1, 2])
    assert len(receiver.appended(rows, [])) == 4


def assert_is_from_records_of_its_records(ds):
    whole = Dataset.from_records(ds.records)
    levels = ds.levels()
    assert levels.dtype == np.uint8 and levels.flags.c_contiguous and not levels.flags.writeable
    assert levels.tobytes() == whole.levels().tobytes()
    assert ds.ids() == whole.ids() and ds.groups() == whole.groups()
    assert ds.labels().tobytes() == whole.labels().tobytes()


def test_two_appends_onto_one_receiver_give_independent_datasets():
    records = clean_records(12)
    # 6 rows, spare space
    receiver = Dataset.from_records(records[:4]).appended(Dataset.from_records(records[4:6]))
    before = receiver.matrix().tobytes()
    first = receiver.appended(Dataset.from_records(records[6:8]))
    second = receiver.appended(Dataset.from_records(records[8:11]))
    # the first takes the receiver's spare rows; the second may not write there
    assert np.shares_memory(first.levels(), receiver.levels())
    assert not np.shares_memory(second.levels(), first.levels())
    assert receiver.matrix().tobytes() == before and len(receiver) == 6
    for ds in (receiver, first, second):
        assert_is_from_records_of_its_records(ds)


def test_a_chain_of_appends_past_the_capacity_keeps_every_dataset():
    records = clean_records(60)
    chain = [Dataset.from_records(records[:3])]
    siblings = []
    pos = 3
    for step in (1, 2, 5, 1, 3, 8, 2, 6, 1):
        chain.append(chain[-1].appended(Dataset.from_records(records[pos : pos + step])))
        # a second append onto the same receiver, with records the chain takes later
        siblings.append(chain[-2].appended(Dataset.from_records(records[pos + step : pos + 2 * step])))
        pos += step
    shared = [np.shares_memory(a.levels(), b.levels()) for a, b in zip(chain, chain[1:])]
    assert any(shared) and not all(shared)
    for ds in chain + siblings:
        assert_is_from_records_of_its_records(ds)


def test_an_append_into_spare_rows_copies_only_the_new_rows():
    rng = np.random.default_rng(0)
    n, h, w, k = 1000, 64, 64, 50
    base = Dataset.from_matrix(rng.integers(0, 256, (n, h * w), dtype=np.uint8), h, w, [f"b{i}" for i in range(n)],
                               [i % 2 for i in range(n)], [None] * n)
    new = [ImageRecord(f"n{i}", rng.random((h, w)), i % 2) for i in range(2 * k)]
    receiver = base.appended(Dataset.from_records(new[:k]))  # a fresh buffer with spare rows
    rows = Dataset.from_records(new[k:])
    tracemalloc.start()
    try:
        grown = receiver.appended(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Beyond the rows, each record costs about 0.3 KiB (ids, labels, views).
    # Copying the receiver's levels would add 1000 rows of 4 KiB.
    assert peak < 2 * k * h * w + 1024 * len(grown)
    assert_is_from_records_of_its_records(grown)


def test_generated_and_loaded_matrices_equal_from_records_of_their_records(tmp_path):
    generated = generate_split(CorpusSpec(master_seed=3, height=16, width=20), "val", 12)
    save_dataset(generated, tmp_path / "m.jsonl")
    loaded = load_manifest(tmp_path / "m.jsonl")
    for ds in (generated, loaded):
        ref = Dataset.from_records(ds.records)
        assert ds.levels().tobytes() == ref.levels().tobytes()
        assert ds.ids() == ref.ids() and ds.groups() == ref.groups()
        assert ds.labels().tobytes() == ref.labels().tobytes()
        assert not ds.levels().flags.writeable


def traced_peak(build):
    tracemalloc.start()
    try:
        ds = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / ds.levels().nbytes


def test_building_a_dataset_peaks_near_its_matrix(tmp_path):
    # The bound is against the uint8 levels: a float64 matrix of the same
    # images alone would take 8x their bytes.
    spec = CorpusSpec(master_seed=0, height=64, width=64)
    save_dataset(generate_split(spec, "val", 200), tmp_path / "m.jsonl")
    load_manifest(tmp_path / "m.jsonl")  # warm up lazy imports outside the trace
    assert traced_peak(lambda: generate_split(spec, "val", 200)) <= 1.5
    assert traced_peak(lambda: load_manifest(tmp_path / "m.jsonl")) <= 1.5


def test_a_generated_corpus_is_stored_as_uint8_levels():
    spec = CorpusSpec()
    for ds, n in zip(generate_corpus(spec), (spec.n_train, spec.n_val, spec.n_pool)):
        levels = ds.levels()
        assert levels.dtype == np.uint8 and levels.shape == (n, spec.height * spec.width)
        assert levels.nbytes == n * spec.height * spec.width


def test_save_then_load_gives_the_same_levels_ids_labels_and_groups(tmp_path):
    ds = generate_split(CorpusSpec(master_seed=5, height=16, width=24), "pool", 30)
    save_dataset(ds, tmp_path / "m.jsonl")
    back = load_manifest(tmp_path / "m.jsonl")
    assert back.levels().dtype == np.uint8
    assert back.levels().tobytes() == ds.levels().tobytes()
    assert back.ids() == ds.ids() and back.groups() == ds.groups()
    assert back.labels().tobytes() == ds.labels().tobytes()


def test_from_records_quantizes_ties_as_write_pgm_does(tmp_path):
    px = np.array([[0.5, 1.5, 2.5, 254.5]]) / 255.0
    ds = Dataset.from_records([ImageRecord("t", px, 0)])
    write_pgm(tmp_path / "t.pgm", px)
    assert ds.levels().tolist() == [[0, 2, 2, 254]]
    assert read_pgm_levels(tmp_path / "t.pgm").tolist() == [[0, 2, 2, 254]]
    assert ds.matrix().tobytes() == (np.array([[0.0, 2.0, 2.0, 254.0]]) / 255.0).tobytes()
