"""Failure-weighted sampling and projection-space pool matching."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biasgrid.sampler
from biasgrid.errors import DataError
from biasgrid.sampler import (
    MatchSet,
    make_weights,
    match_pool,
    sample,
    save_matchset,
)
from biasgrid.saliency import FailureScores
from oracles import brute_force_neighbors


def scores_of(values):
    """Failure scores of all-label-0 images, so each score equals its prediction."""
    c = np.array(values, dtype=np.float64)
    return FailureScores(ids=[f"v{i}" for i in range(len(values))], predictions=c, scores=c)


def test_failure_mode_weights_toward_high_failure():
    w = make_weights(scores_of([0.2, 0.3, 0.5]))
    assert w.tolist() == pytest.approx([0.2, 0.3, 0.5])
    assert w.sum() == pytest.approx(1.0)


def test_success_mode_weights_toward_low_failure():
    w = make_weights(scores_of([0.1, 0.4, 0.5]), mode="success")
    assert w.tolist() == pytest.approx([0.45, 0.30, 0.25], abs=1e-12)


def test_unknown_mode_and_empty_scores_raise():
    with pytest.raises(DataError, match="unknown weight mode"):
        make_weights(scores_of([0.5]), mode="uniform")
    with pytest.raises(DataError, match="empty"):
        make_weights(FailureScores(ids=[], predictions=np.empty(0), scores=np.empty(0)))


def test_zero_mass_falls_back_to_uniform_with_warning():
    with pytest.warns(RuntimeWarning, match="falling back to uniform"):
        w = make_weights(scores_of([0.0, 0.0, 0.0]))
    assert w.tolist() == pytest.approx([1 / 3] * 3)
    with pytest.warns(RuntimeWarning):
        make_weights(scores_of([1.0, 1.0]), mode="success")


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=20))
def test_weights_form_a_distribution(values):
    if sum(values) == 0.0:
        with pytest.warns(RuntimeWarning):
            w = make_weights(scores_of(values))
    else:
        w = make_weights(scores_of(values))
    assert np.all(w >= 0.0)
    assert w.sum() == pytest.approx(1.0)


def test_sampling_is_seeded_and_deterministic():
    w = make_weights(scores_of([0.1, 0.2, 0.7]))
    assert np.array_equal(sample(w, 20, seed=5), sample(w, 20, seed=5))
    assert not np.array_equal(sample(w, 20, seed=5), sample(w, 20, seed=6))


def test_zero_weight_ids_are_never_drawn():
    w = make_weights(scores_of([0.0, 1.0]))
    assert set(sample(w, 300, seed=1).tolist()) == {1}


def test_a_draw_just_below_one_never_lands_on_a_trailing_zero_weight(monkeypatch):
    # ten weights of 0.1 sum to 0.9999999999999999, so a cdf topped up to 1
    # only at its last entry would hand that draw to the zero-weight position 10
    w = make_weights(scores_of([0.1] * 10 + [0.0]))
    assert np.cumsum(w)[-2] < 1.0

    class TopRng:
        def random(self, k):
            return np.full(k, np.nextafter(1.0, 0.0))

    monkeypatch.setattr(biasgrid.sampler, "make_rng", lambda seed: TopRng())
    assert sample(w, 5, seed=0).tolist() == [9] * 5


def test_sample_refuses_weights_without_a_positive_entry():
    with pytest.raises(DataError, match="no positive entry"):
        sample(np.zeros(3), 4, seed=0)


def test_sample_frequencies_roughly_track_weights():
    w = make_weights(scores_of([0.25, 0.75]))
    draws = sample(w, 4000, seed=2)
    share = np.count_nonzero(draws == 1) / len(draws)
    assert share == pytest.approx(0.75, abs=0.05)


def test_sample_rejects_bad_k():
    w = make_weights(scores_of([0.5]))
    with pytest.raises(DataError, match="at least 1"):
        sample(w, 0, seed=0)


def test_match_pool_agrees_with_brute_force():
    rng = np.random.default_rng(3)
    val_ids = [f"v{i}" for i in range(6)]
    pool_ids = [f"p{i}" for i in range(30)]
    val_coords = rng.normal(size=(6, 2))
    pool_coords = rng.normal(size=(30, 2))
    ms = match_pool(range(6), val_ids, val_coords, pool_ids, pool_coords, m=4)
    assert ms.sampled_val_ids == val_ids
    assert len(ms.matches) == 6 * 4
    pos = 0
    for i in range(6):
        expect = brute_force_neighbors(val_coords[i], pool_coords, 4)
        got = [ms.matches[pos + j][1] for j in range(4)]
        assert got == [pool_ids[e] for e in expect]
        pos += 4


def test_match_pool_ties_go_to_lower_pool_index():
    pool = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0]])
    ms = match_pool([0], ["q"], np.array([[0.0, 0.0]]), ["p0", "p1", "p2"], pool, m=2)
    assert ms.matched_pool_ids == ["p0", "p1"]


def test_match_pool_deduplicates_in_first_seen_order():
    pool = np.array([[0.0, 0.0], [5.0, 5.0]])
    val = np.array([[0.1, 0.0], [0.0, 0.1]])
    ms = match_pool([0, 1], ["a", "b"], val, ["near", "far"], pool, m=2)
    assert ms.matched_pool_ids == ["near", "far"]
    assert len(ms.matches) == 4  # per-neighbor audit keeps duplicates


def test_match_pool_caps_m_at_pool_size():
    pool = np.array([[0.0, 0.0], [1.0, 1.0]])
    ms = match_pool([0], ["a"], np.array([[0.0, 0.0]]), ["p0", "p1"], pool, m=10)
    assert ms.matched_pool_ids == ["p0", "p1"]


def test_match_pool_input_validation():
    coords = np.array([[0.0, 0.0]])
    with pytest.raises(DataError, match="at least 1"):
        match_pool([0], ["a"], coords, ["p"], coords, m=0)
    with pytest.raises(DataError, match="empty pool"):
        match_pool([0], ["a"], coords, [], np.empty((0, 2)), m=1)
    for outside in (1, -1):  # a negative position would otherwise index from the end
        with pytest.raises(DataError, match=f"position {outside} is outside the validation set of 1"):
            match_pool([0, outside], ["a"], coords, ["p"], coords, m=1)
    with pytest.raises(DataError, match="align"):
        match_pool([0], ["a", "b"], coords, ["p"], coords, m=1)


def test_save_matchset_writes_every_field(tmp_path):
    ms = MatchSet(
        sampled_val_ids=["a", "a", "b"],
        matched_pool_ids=["p2", "p0"],
        matches=[("a", "p2", 0.5), ("b", "p0", 1.25)],
        mode="failure",
        seed=99,
    )
    save_matchset(ms, tmp_path / "ms.json")
    assert json.loads((tmp_path / "ms.json").read_text()) == {
        "format": "matchset",
        "version": 1,
        "mode": "failure",
        "seed": 99,
        "sampled_val_ids": ["a", "a", "b"],
        "matched_pool_ids": ["p2", "p0"],
        "matches": [["a", "p2", 0.5], ["b", "p0", 1.25]],
    }
