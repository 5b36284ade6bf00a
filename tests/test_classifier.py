"""Reference classifier: gradients, early stopping, its helper thread, fine-tuning, model files."""

import json
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from biasgrid import classifier
from biasgrid.classifier import (
    BLOCK_BATCHES,
    RefModel,
    TrainHyper,
    _optimize,
    accuracy_from_scores,
    fine_tune,
    load_model,
    loss_gradient,
    loss_value,
    predict_dataset,
    save_model,
    sigmoid,
    train,
)
from biasgrid.dataset import Dataset, ImageRecord
from biasgrid.errors import DataError
from biasgrid.seeding import make_rng
from oracles import central_diff_grad, reference_optimize


def toy_dataset(n=24, side=8, gap=0.5, sigma=0.02, seed=0):
    """Linearly separable brightness task: label 1 images are much darker."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        label = i % 2
        level = 0.75 - gap * label
        px = np.clip(level + rng.normal(0.0, sigma, size=(side, side)), 0.0, 1.0)
        records.append(ImageRecord(f"t{i}", px, label))
    return Dataset.from_records(records)


def test_sigmoid_is_stable_and_correct():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(1000.0) == 1.0
    assert sigmoid(-1000.0) == pytest.approx(0.0, abs=1e-300)
    z = np.array([-3.0, 0.2, 5.0])
    assert np.allclose(sigmoid(z), 1.0 / (1.0 + np.exp(-z)))


def test_analytic_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    mat = rng.normal(size=(9, 6))
    labels = (rng.random(9) > 0.5).astype(np.float64)
    w = rng.normal(size=6)
    b = 0.3
    ga_w, ga_b = loss_gradient(w, b, mat, labels, l2=0.01)
    fd_w, fd_b = central_diff_grad(lambda wv, bv: loss_value(wv, bv, mat, labels, 0.01), w, b)
    assert np.allclose(ga_w, fd_w, rtol=0, atol=1e-8)
    assert ga_b == pytest.approx(fd_b, abs=1e-8)


def test_l2_penalizes_weights_not_bias():
    w = np.array([2.0, -1.0])
    mat = np.zeros((4, 2))
    labels = np.zeros(4)
    base_w, base_b = loss_gradient(w, 0.0, mat, labels, l2=0.0)
    reg_w, reg_b = loss_gradient(w, 0.0, mat, labels, l2=0.5)
    assert np.allclose(reg_w - base_w, 0.5 * w)
    assert reg_b == base_b


def test_separable_toy_reaches_full_training_accuracy():
    # val_fraction widens the stop split: on a tiny one the random init can
    # score perfectly and the best-snapshot rule would then keep it.
    ds = toy_dataset()
    hyper = TrainHyper(learning_rate=0.5, max_epochs=120, batch_size=8, l2=0.0, seed=2, val_fraction=0.25)
    model = train(ds, hyper)
    assert accuracy_from_scores(predict_dataset(model, ds), ds.labels()) == 1.0


def test_training_is_deterministic():
    ds = toy_dataset()
    hyper = TrainHyper(learning_rate=0.2, max_epochs=10, seed=5)
    a = train(ds, hyper)
    b = train(ds, hyper)
    assert np.array_equal(a.weights, b.weights)
    assert a.bias == b.bias
    assert a.history == b.history


def test_zero_learning_rate_fine_tune_is_identity():
    ds = toy_dataset()
    model = train(ds, TrainHyper(max_epochs=5, seed=1))
    frozen = fine_tune(model, ds, TrainHyper(learning_rate=0.0, max_epochs=50, early_stop_patience=4, seed=9))
    assert np.array_equal(frozen.weights, model.weights)
    assert frozen.bias == model.bias
    # no epoch can improve the stop metric, so patience bounds the epoch count
    assert frozen.trained_epochs == 4


def test_best_snapshot_includes_initial_parameters():
    ds = toy_dataset()
    model = train(ds, TrainHyper(max_epochs=0, seed=3))
    assert model.trained_epochs == 0
    assert model.history == []
    assert np.all(np.abs(model.weights) <= 1e-3)  # untouched init draw
    assert model.bias == 0.0


def test_full_batch_loss_descends_at_small_rate():
    # history holds the stop split's loss; the fit-split loss that full-batch
    # descent lowers comes from the oracle, whose run is checked equal first
    ds = toy_dataset()
    hyper = TrainHyper(learning_rate=1e-3, max_epochs=30, l2=0.0, full_batch=True, seed=4)
    model = train(ds, hyper)
    ref, _, fit_losses = reference_optimize(init_weights(ds, 4), 0.0, ds, hyper)
    assert model.weights.tobytes() == ref.weights.tobytes()
    assert model.bias == ref.bias
    assert model.best_epoch == ref.best_epoch
    assert model.history == ref.history
    assert len(fit_losses) == model.trained_epochs > 1
    assert all(b <= a + 1e-12 for a, b in zip(fit_losses, fit_losses[1:]))


def test_early_stopping_cannot_exceed_max_epochs():
    ds = toy_dataset()
    model = train(ds, TrainHyper(learning_rate=0.3, max_epochs=40, early_stop_patience=3, seed=6))
    assert model.trained_epochs <= 40
    assert len(model.history) == model.trained_epochs


def test_training_copies_only_the_stop_split():
    # Batches are gathered by row index; a copy of the 90% fit split would
    # alone peak near 0.9x the matrix's bytes.
    rng = np.random.default_rng(0)
    n, side = 1000, 64
    ds = Dataset.from_matrix(rng.integers(0, 256, (n, side * side), dtype=np.uint8), side, side,
                             [f"m{i}" for i in range(n)], [i % 2 for i in range(n)], [None] * n)
    tracemalloc.start()
    try:
        model = train(ds, TrainHyper(max_epochs=2, seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.trained_epochs == 2
    assert peak < 0.5 * ds.matrix().nbytes


SEPARABLE = TrainHyper(learning_rate=0.5, max_epochs=120, batch_size=8, l2=0.0, seed=2, val_fraction=0.25)


def init_weights(ds, seed):
    return make_rng(seed).uniform(-1e-3, 1e-3, size=ds.height * ds.width)


def ceiling_case(name):
    """(w0, b0, dataset, hyper) for one run compared with the pre-exit loop."""
    ds = toy_dataset()
    if name == "separable":
        return init_weights(ds, 2), 0.0, ds, SEPARABLE
    if name == "saturated_fine_tune":
        model = train(ds, SEPARABLE)
        assert accuracy_from_scores(predict_dataset(model, ds), ds.labels()) == 1.0
        return model.weights, model.bias, ds, TrainHyper(learning_rate=0.01, max_epochs=60, seed=7)
    if name == "min_delta":
        # best stop accuracy 0.8 on a 10-image stop split: 0.8 + 0.2 == 1.0
        noisy = toy_dataset(n=40, gap=0.15, sigma=0.1, seed=3)
        hyper = TrainHyper(
            learning_rate=0.05, max_epochs=80, batch_size=8, early_stop_min_delta=0.2, seed=4, val_fraction=0.25
        )
        return init_weights(noisy, 4), 0.0, noisy, hyper
    if name == "full_batch":
        hyper = TrainHyper(learning_rate=0.5, max_epochs=60, l2=0.0, full_batch=True, seed=4, val_fraction=0.25)
        return init_weights(ds, 4), 0.0, ds, hyper
    if name == "never_saturates":
        # labels carry no signal: stop accuracy stays below 1.0
        noise = toy_dataset(n=40, gap=0.0, sigma=0.1, seed=3)
        hyper = TrainHyper(learning_rate=0.3, max_epochs=80, batch_size=8, seed=5, val_fraction=0.25)
        return init_weights(noise, 5), 0.0, noise, hyper
    raise ValueError(name)


@pytest.mark.parametrize(
    "name", ["separable", "saturated_fine_tune", "min_delta", "full_batch", "never_saturates"]
)
def test_ceiling_exit_keeps_the_pre_exit_result(name):
    w0, b0, ds, hyper = ceiling_case(name)
    got = _optimize(w0, b0, ds, hyper)
    ref, ref_best_acc, _ = reference_optimize(w0, b0, ds, hyper)
    assert got.weights.tobytes() == ref.weights.tobytes()
    assert got.bias == ref.bias
    assert got.best_epoch == ref.best_epoch
    assert len(got.history) == got.trained_epochs
    assert got.history == ref.history[: got.trained_epochs]
    # the loop ends right after the epoch that lifted the best accuracy to
    # the ceiling; a run that never reaches it is unchanged
    saturated = ref_best_acc + hyper.early_stop_min_delta >= 1.0
    assert got.trained_epochs == (ref.best_epoch if saturated else ref.trained_epochs)
    assert saturated == (name != "never_saturates")
    if saturated:
        assert got.trained_epochs < ref.trained_epochs
    if name == "saturated_fine_tune":
        assert got.trained_epochs == 0 and got.history == []
    if name == "min_delta":
        assert ref_best_acc < 1.0
    if name == "never_saturates":
        assert got.history == ref.history


def finishes(fn, timeout=60.0):
    """fn()'s result, or its error re-raised, from a daemon thread: a call
    that deadlocks fails the test after `timeout` seconds instead of hanging."""
    out = {}

    def target():
        try:
            out["value"] = fn()
        except BaseException as exc:
            out["error"] = exc

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), f"no return within {timeout} s"
    if "error" in out:
        raise out["error"]
    return out["value"]


@pytest.fixture
def helper_starts(monkeypatch):
    """A list that gets one entry each time _optimize opens its helper
    thread's executor."""
    starts = []

    class Counted(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(classifier, "ThreadPoolExecutor", Counted)
    return starts


@pytest.mark.parametrize("full_batch", [False, True], ids=["mini_batch", "full_batch"])
def test_training_leaves_no_thread_running(helper_starts, full_batch):
    ds = toy_dataset(n=300, gap=0.0, sigma=0.1, seed=3)
    hyper = TrainHyper(learning_rate=0.3, max_epochs=6, full_batch=full_batch, seed=5)
    before = threading.active_count()
    model = finishes(lambda: train(ds, hyper))
    assert threading.active_count() == before
    finishes(lambda: fine_tune(model, ds, replace(hyper, seed=6)))
    assert threading.active_count() == before
    assert helper_starts == [1, 1]


def test_an_error_mid_epoch_propagates_and_leaves_no_thread_running(helper_starts, monkeypatch):
    # 270 fit rows make three blocks: the third step falls in the first
    # one, while the second is queued
    ds = toy_dataset(n=300, gap=0.0, sigma=0.1, seed=3)
    calls = []
    gradient = classifier.loss_gradient

    def third_call_fails(*args):
        calls.append(1)
        if len(calls) == 3:
            raise FloatingPointError("third step")
        return gradient(*args)

    monkeypatch.setattr(classifier, "loss_gradient", third_call_fails)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="third step"):
        finishes(lambda: train(ds, TrainHyper(max_epochs=5, seed=5)))
    assert threading.active_count() == before
    assert len(calls) == 3
    assert helper_starts == [1]


class ThirdGatherFails(np.ndarray):
    """Levels whose gather of rows by an index array records its thread,
    and raises on its third call; what it returns is a plain array."""

    def __getitem__(self, key):
        if isinstance(key, np.ndarray):
            self.gathers.append(threading.current_thread())
            if len(self.gathers) == 3:
                raise RuntimeError("third gather")
        return super().__getitem__(key).view(np.ndarray)


def test_an_error_in_a_helper_side_gather_propagates_and_leaves_no_thread_running():
    # the first gather is the stop split's, on the calling thread; the
    # second and third gather the first two blocks of 270 fit rows
    ds = toy_dataset(n=300, gap=0.0, sigma=0.1, seed=3)
    levels = ds.levels().copy().view(ThirdGatherFails)
    levels.gathers = []
    failing = Dataset.from_matrix(levels, ds.height, ds.width, ds.ids(), ds.labels(), ds.groups())
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="third gather"):
        finishes(lambda: train(failing, TrainHyper(max_epochs=5, seed=5)))
    assert threading.active_count() == before
    caller, _, helper = levels.gathers[:3]
    assert helper is not caller and not helper.is_alive()


@pytest.mark.parametrize("name", ["saturated_fine_tune", "max_epochs_0"])
def test_a_call_that_trains_no_epoch_starts_no_thread(helper_starts, name):
    if name == "saturated_fine_tune":
        w0, b0, ds, hyper = ceiling_case(name)
    else:
        ds = toy_dataset()
        w0, b0, hyper = init_weights(ds, 3), 0.0, TrainHyper(max_epochs=0, seed=3)
    helper_starts.clear()  # ceiling_case trains the model it fine-tunes
    before = threading.active_count()
    model = finishes(lambda: _optimize(w0, b0, ds, hyper))
    assert model.trained_epochs == 0 and model.history == []
    assert threading.active_count() == before
    assert helper_starts == []


def n_fit_of(n, hyper):
    return n - min(n - 1, max(1, int(round(hyper.val_fraction * n))))


NOISE_RUNS = {
    # name: (images, hyper); labels carry no signal, so stop accuracy never
    # reaches the ceiling and each run goes to patience or max_epochs
    "one_block": (60, TrainHyper(learning_rate=0.3, max_epochs=30, early_stop_patience=8, seed=5)),
    "one_block_full_batch": (60, TrainHyper(learning_rate=0.5, max_epochs=30, l2=0.0, full_batch=True, seed=4)),
    "full_batch_wider_than_a_default_block": (
        300, TrainHyper(learning_rate=0.5, max_epochs=12, full_batch=True, early_stop_patience=30, seed=4)
    ),
    "ragged_block_and_batch": (362, TrainHyper(learning_rate=0.3, max_epochs=20, early_stop_patience=6, seed=7)),
    "batch_wider_than_a_default_block": (
        1000, TrainHyper(learning_rate=0.2, max_epochs=8, batch_size=150, early_stop_patience=30, seed=8)
    ),
    "fit_split_below_one_batch": (20, TrainHyper(learning_rate=0.3, max_epochs=15, early_stop_patience=30, seed=9)),
    "ends_at_max_epochs": (300, TrainHyper(learning_rate=0.3, max_epochs=7, early_stop_patience=30, seed=5)),
    "patience_stop_with_blocks_queued": (
        700, TrainHyper(learning_rate=0.3, max_epochs=200, early_stop_patience=2, seed=6)
    ),
}


@pytest.mark.parametrize("name", list(NOISE_RUNS))
def test_block_stream_matches_the_reference_loop(name):
    n, hyper = NOISE_RUNS[name]
    # rows wide enough that a block's division runs outside the GIL while
    # the steps run, as on real images
    ds = toy_dataset(n=n, side=48, gap=0.0, sigma=0.1, seed=3)
    w0 = init_weights(ds, hyper.seed)
    got = finishes(lambda: _optimize(w0, 0.0, ds, hyper))
    ref, ref_best_acc, _ = reference_optimize(w0, 0.0, ds, hyper)
    assert ref_best_acc + hyper.early_stop_min_delta < 1.0
    assert got.weights.tobytes() == ref.weights.tobytes()
    assert got.bias == ref.bias
    assert got.best_epoch == ref.best_epoch
    assert got.history == ref.history
    assert got.trained_epochs == ref.trained_epochs
    # each case has the shape its name says
    n_fit = n_fit_of(n, hyper)
    block = BLOCK_BATCHES * (n_fit if hyper.full_batch else hyper.batch_size)
    shape = {
        "one_block": n_fit <= block,
        "one_block_full_batch": n_fit <= block,
        "full_batch_wider_than_a_default_block": n_fit > 128,
        "ragged_block_and_batch": n_fit > 2 * block and n_fit % block % hyper.batch_size != 0
        and n_fit % block > hyper.batch_size,
        "batch_wider_than_a_default_block": hyper.batch_size > 128 and n_fit > block,
        "fit_split_below_one_batch": n_fit < hyper.batch_size,
        "ends_at_max_epochs": got.trained_epochs == hyper.max_epochs and n_fit > block,
        "patience_stop_with_blocks_queued": got.trained_epochs < hyper.max_epochs and n_fit > 2 * block,
    }[name]
    assert shape


def test_concurrent_calls_under_fast_thread_switching_match_the_reference():
    # three calls at once, each with its helper thread: more threads than
    # cores, switching every microsecond, so a buffer refilled while its
    # block is still in use would change the parameters
    n, hyper = NOISE_RUNS["ragged_block_and_batch"]
    ds = toy_dataset(n=n, side=48, gap=0.0, sigma=0.1, seed=3)
    w0 = init_weights(ds, hyper.seed)
    ref, _, _ = reference_optimize(w0, 0.0, ds, hyper)

    def three_at_once():
        with ThreadPoolExecutor(max_workers=3) as pool:
            return list(pool.map(lambda _: _optimize(w0, 0.0, ds, hyper), range(3)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        models = finishes(three_at_once)
    finally:
        sys.setswitchinterval(interval)
    for got in models:
        assert got.weights.tobytes() == ref.weights.tobytes()
        assert got.history == ref.history


def test_train_rejects_single_label_data():
    recs = [ImageRecord(f"s{i}", np.full((4, 4), 0.5), 1) for i in range(6)]
    with pytest.raises(DataError, match="both labels"):
        train(Dataset.from_records(recs), TrainHyper())


def test_predict_dimension_mismatch():
    model = RefModel(weights=np.zeros(4), bias=0.0)
    with pytest.raises(DataError, match="9 pixels.*expects 4"):
        predict_dataset(model, toy_dataset(side=3))
    one_by_five = Dataset.from_matrix(np.zeros((2, 5), np.uint8), 1, 5, ["a", "b"], [0, 1], [None, None])
    with pytest.raises(DataError, match="5 pixels.*expects 4"):
        predict_dataset(model, one_by_five)


def test_fine_tune_dimension_mismatch():
    model = RefModel(weights=np.zeros(4), bias=0.0)
    with pytest.raises(DataError, match="dimension mismatch"):
        fine_tune(model, toy_dataset(side=8), TrainHyper())


def test_accuracy_threshold_maps_half_to_label_one():
    scores = np.array([0.5, 0.49999, 0.5])
    labels = np.array([1.0, 0.0, 0.0])
    assert accuracy_from_scores(scores, labels) == pytest.approx(2.0 / 3.0)


def test_hyper_validation_errors():
    cases = [
        {"learning_rate": -0.1},
        {"max_epochs": -1},
        {"batch_size": 0},
        {"l2": -1e-9},
        {"early_stop_patience": 0},
        {"early_stop_min_delta": -0.1},
        {"val_fraction": 0.0},
        {"val_fraction": 1.0},
    ]
    for bad in cases:
        with pytest.raises(DataError):
            replace(TrainHyper(), **bad).validate()


def test_model_round_trip_is_exact(tmp_path):
    model = RefModel(
        weights=make_rng(0).normal(size=5),
        bias=-0.123456789,
        trained_epochs=7,
        best_epoch=2,
        history=[(0.5, 0.75), (0.4, 0.875)],
    )
    save_model(model, tmp_path / "m.json")
    back = load_model(tmp_path / "m.json")
    assert np.array_equal(back.weights, model.weights)
    assert back.bias == model.bias
    assert back.trained_epochs == 7
    assert back.best_epoch == 2
    assert back.history == model.history


def test_load_model_defaults_best_epoch_for_older_files(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"format": "ref-model", "version": 1, "dim": 2, "weights": [1.0, 2.0], "bias": 0.5, "trained_epochs": 3, "history": []}')
    model = load_model(path)
    assert model.best_epoch == 0
    assert model.trained_epochs == 3


def test_load_model_rejects_bad_files(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"format": "ref-model", "version": 1, "dim": 3, "weights": [1.0], "bias": 0, "trained_epochs": 0, "history": []}')
    with pytest.raises(DataError, match="does not match declared dim"):
        load_model(path)
    path.write_text('{"format": "other", "version": 1}')
    with pytest.raises(DataError, match="ref-model"):
        load_model(path)


GOOD_MODEL = {"format": "ref-model", "version": 1, "dim": 2, "weights": [1.0, 2.0], "bias": 0.5,
              "trained_epochs": 3, "history": [[0.5, 0.75]]}


@pytest.mark.parametrize(
    "obj, message",
    [
        ([GOOD_MODEL], "not a version-1 ref-model file"),
        ({k: v for k, v in GOOD_MODEL.items() if k != "weights"}, "lacks key 'weights'"),
        ({k: v for k, v in GOOD_MODEL.items() if k != "history"}, "lacks key 'history'"),
        ({**GOOD_MODEL, "bias": "high"}, "malformed model file"),
        ({**GOOD_MODEL, "history": [[0.5]]}, "malformed model file"),
        ({**GOOD_MODEL, "dim": 1, "weights": [[1.0, 2.0]]}, "does not match declared dim"),
    ],
    ids=["top_level_list", "no_weights", "no_history", "text_bias", "short_history_row", "matrix_weights"],
)
def test_load_model_rejects_malformed_files(tmp_path, obj, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(DataError, match=message):
        load_model(path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("weights", [1.0, float("inf")]),
        ("weights", [float("-inf"), 2.0]),
        ("bias", float("nan")),
        ("history", [[0.5, 0.75], [float("nan"), 0.75]]),
    ],
    ids=["infinite_weight", "negative_infinite_weight", "nan_bias", "nan_history_loss"],
)
def test_load_model_rejects_a_non_finite_number(tmp_path, key, value):
    # json reads NaN and Infinity, and json.dumps writes them
    path = tmp_path / "m.json"
    path.write_text(json.dumps({**GOOD_MODEL, key: value}))
    with pytest.raises(DataError, match=r"m\.json: model file holds a non-finite number"):
        load_model(path)
    path.write_text(json.dumps(GOOD_MODEL))
    assert load_model(path).weights.tolist() == [1.0, 2.0]  # the unedited file is valid
