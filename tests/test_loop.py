"""Remediation loop mechanics on a small fast corpus."""

import json

import numpy as np
import pytest

import biasgrid.loop
import biasgrid.saliency
from biasgrid.classifier import TrainHyper, load_model
from biasgrid.dataset import Dataset
from biasgrid.errors import DataError
from biasgrid.loop import (
    LoopConfig,
    _run,
    default_lr_schedule,
    group_accuracy,
    run_loop,
    run_random_baseline,
)
from biasgrid.sampler import MatchSet
from biasgrid.synth import CorpusSpec, generate_corpus

SMALL_SPEC = CorpusSpec(
    n_train=80, n_val=36, n_pool=120, height=24, width=24, noise_sigma=0.05, master_seed=3
)
CHEAP_HYPER = TrainHyper(learning_rate=0.1, max_epochs=12, batch_size=16, early_stop_patience=4)


@pytest.fixture(scope="module")
def small_corpus():
    return generate_corpus(SMALL_SPEC)


def small_cfg(**overrides):
    kwargs = dict(max_iterations=2, k=4, m=3, seed=3, hyper=CHEAP_HYPER)
    kwargs.update(overrides)
    return LoopConfig(**kwargs)


def test_default_lr_schedule_is_a_geometric_ramp():
    sched = default_lr_schedule(7)
    assert len(sched) == 7
    assert sched[0] == pytest.approx(1e-4)
    assert sched[-1] == pytest.approx(1e-6)
    ratios = [b / a for a, b in zip(sched, sched[1:])]
    assert all(r == pytest.approx(ratios[0]) for r in ratios)
    assert default_lr_schedule(1) == (1e-4,)
    assert default_lr_schedule(0) == ()


def test_config_validation():
    with pytest.raises(DataError, match="lr_schedule has 1"):
        LoopConfig(max_iterations=3, lr_schedule=(1e-4,)).validate()
    with pytest.raises(DataError, match="positive"):
        LoopConfig(max_iterations=2, lr_schedule=(1e-4, 0.0)).validate()
    with pytest.raises(DataError, match="m must be"):
        LoopConfig(m=0).validate()
    with pytest.raises(DataError, match="k must be at least 1"):
        LoopConfig(k=0).validate()
    LoopConfig(k=None).validate()  # the default k is resolved from the validation set
    with pytest.raises(DataError, match="k must be"):
        LoopConfig(k=0).resolved_k(100)
    assert LoopConfig().resolved_k(36) == 4  # ceil(0.1 * 36)
    assert LoopConfig(k=9).resolved_k(36) == 9


@pytest.mark.parametrize("rate", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_a_non_finite_scheduled_rate_is_refused(rate):
    with pytest.raises(DataError, match="must be finite and positive"):
        LoopConfig(max_iterations=2, lr_schedule=(1e-4, rate)).validate()
    with pytest.raises(DataError, match="must be finite and positive"):
        LoopConfig(max_iterations=1, lr_schedule=(rate,)).resolved_schedule()


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "owner, name",
    [
        (TrainHyper, "learning_rate"),
        (TrainHyper, "l2"),
        (TrainHyper, "early_stop_min_delta"),
        (LoopConfig, "convergence_min_delta"),
        (CorpusSpec, "noise_sigma"),
    ],
    ids=lambda arg: arg if isinstance(arg, str) else arg.__name__,
)
def test_a_non_finite_setting_is_refused(owner, name, value):
    with pytest.raises(DataError, match=f"{name} must be finite and >= 0"):
        owner(**{name: value}).validate()


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"weight_mode": "bogus"}, "unknown weight mode 'bogus'"),
        ({"alpha": 2.0}, r"alpha must lie in \[0, 1\]"),
        ({"cell_px": 4}, "cell_px must be at least 8"),
    ],
    ids=["weight_mode", "alpha", "cell_px"],
)
def test_unknown_weight_mode_fails_before_any_output(small_corpus, tmp_path, setting, message):
    with pytest.raises(DataError, match=message):
        LoopConfig(**setting).validate()
    train_ds, val, pool = small_corpus
    with pytest.raises(DataError, match=message):
        run_loop(train_ds, val, pool, cfg=small_cfg(**setting), out_dir=tmp_path / "run")
    assert not list(tmp_path.glob("run/iter-*"))


def select_every_other(pool):
    """A selector that matches three pool images on even iterations and none on odd ones."""

    def select(t, failures, val_coords, project_pool):
        rows = pool.take(range(3) if t % 2 == 0 else [])
        return MatchSet(sampled_val_ids=[], matched_pool_ids=rows.ids(), matches=[], mode="alt", seed=t), rows

    return select


@pytest.mark.parametrize("arm", ["targeted", "random", "every_other"])
def test_each_trained_model_is_scored_once(small_corpus, monkeypatch, tmp_path, arm):
    calls = {"predict_dataset": 0, "fine_tune": 0}

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(biasgrid.saliency, "predict_dataset")
    counting(biasgrid.loop, "predict_dataset")
    counting(biasgrid.loop, "fine_tune")
    train_ds, val, pool = small_corpus
    cfg = small_cfg(max_iterations=4, convergence_patience=10)
    if arm == "targeted":
        states = run_loop(train_ds, val, pool, cfg=cfg, out_dir=tmp_path)
    elif arm == "random":
        states = run_random_baseline(train_ds, val, pool, cfg=cfg, out_dir=tmp_path)
    else:
        states = _run(train_ds, val, pool, None, cfg, tmp_path, select_every_other(pool))
        # a model that no fine-tune replaced keeps its scores
        assert [s.val_accuracy for s in states[1::2]] == [s.val_accuracy for s in states[0::2][:2]]
    assert len(states) == 5
    assert calls["fine_tune"] >= 2
    assert calls["predict_dataset"] == 1 + calls["fine_tune"]


@pytest.mark.parametrize("arm, projections", [("targeted", 2), ("random", 1)])
def test_pool_is_projected_only_for_a_selector_that_reads_it(small_corpus, monkeypatch, tmp_path, arm, projections):
    # the validation set is projected once per run; the pool once, on the
    # targeted selector's first request, and never for the random arm
    calls = []
    original = biasgrid.loop.project

    def counted(basis, data):
        calls.append(len(data))
        return original(basis, data)

    monkeypatch.setattr(biasgrid.loop, "project", counted)
    train_ds, val, pool = small_corpus
    runner = run_loop if arm == "targeted" else run_random_baseline
    states = runner(train_ds, val, pool, cfg=small_cfg(max_iterations=3, convergence_patience=10), out_dir=tmp_path)
    assert len(states) == 4
    assert calls == [len(val), len(pool)][:projections]


def test_group_accuracy_by_tag():
    from biasgrid.dataset import ImageRecord

    recs = [
        ImageRecord("a", np.full((4, 4), 0.5), 0, group="dark"),
        ImageRecord("b", np.full((4, 4), 0.5), 1, group="dark"),
        ImageRecord("c", np.full((4, 4), 0.5), 1, group="light"),
        ImageRecord("d", np.full((4, 4), 0.5), 0, group=None),
    ]
    ds = Dataset.from_records(recs)
    scores = np.array([0.2, 0.3, 0.9, 0.9])  # a right, b wrong, c right
    out = group_accuracy(ds, scores)
    assert out == {"dark": 0.5, "light": 1.0}


def test_loop_writes_the_full_artifact_tree(small_corpus, tmp_path):
    train_ds, val_ds, pool_ds = small_corpus
    states = run_loop(train_ds, val_ds, pool_ds, cfg=small_cfg(), out_dir=tmp_path)
    assert (tmp_path / "iter-0" / "model.json").exists()
    assert (tmp_path / "iter-0" / "metrics.json").exists()
    assert not (tmp_path / "iter-0" / "saliency.ppm").exists()
    for t in range(1, len(states)):
        for name in ("model.json", "metrics.json", "saliency.ppm", "matchset.json"):
            assert (tmp_path / f"iter-{t}" / name).exists(), f"iter-{t}/{name}"
    lines = (tmp_path / "summary.jsonl").read_text().splitlines()
    assert len(lines) == len(states)
    first = json.loads(lines[0])
    assert first["iteration"] == 0
    assert first["selection_mode"] is None
    assert first["model_path"] == "iter-0/model.json"
    second = json.loads(lines[1])
    assert second["selection_mode"] == "failure"
    assert second["saliency_path"] == "iter-1/saliency.ppm"
    assert second["train_size"] >= first["train_size"]


def test_metrics_record_schedule_and_counts(small_corpus, tmp_path):
    train_ds, val_ds, pool_ds = small_corpus
    cfg = small_cfg(lr_schedule=(5e-4, 2e-4))
    run_loop(train_ds, val_ds, pool_ds, cfg=cfg, out_dir=tmp_path)
    m0 = json.loads((tmp_path / "iter-0" / "metrics.json").read_text())
    m1 = json.loads((tmp_path / "iter-1" / "metrics.json").read_text())
    assert m0["learning_rate"] == CHEAP_HYPER.learning_rate
    assert m1["learning_rate"] == 5e-4
    assert m1["n_selected"] == 4
    assert m1["n_matched"] <= 4 * 3
    assert m1["selection_mode"] == "failure"
    for it_dir, metrics in (("iter-0", m0), ("iter-1", m1)):
        model = load_model(tmp_path / it_dir / "model.json")
        assert metrics["epochs_run"] == model.trained_epochs == len(model.history)
        assert metrics["best_epoch"] == model.best_epoch
        assert 0 <= model.best_epoch <= model.trained_epochs


def test_metrics_record_null_epochs_when_nothing_was_trained(small_corpus, tmp_path):
    train_ds, val_ds, pool_ds = small_corpus

    def select_nothing(t, failures, val_coords, pool_coords):
        return MatchSet(sampled_val_ids=[], matched_pool_ids=[], matches=[], mode="none", seed=t), pool_ds.take([])

    _run(train_ds, val_ds, pool_ds, None, small_cfg(max_iterations=1), tmp_path, select_nothing)
    m0 = json.loads((tmp_path / "iter-0" / "metrics.json").read_text())
    m1 = json.loads((tmp_path / "iter-1" / "metrics.json").read_text())
    assert isinstance(m0["epochs_run"], int) and isinstance(m0["best_epoch"], int)
    assert m1["epochs_run"] is None and m1["best_epoch"] is None


def test_rerun_into_the_same_directory_drops_stale_iterations(small_corpus, tmp_path):
    train_ds, val_ds, pool_ds = small_corpus
    run_loop(
        train_ds, val_ds, pool_ds,
        cfg=small_cfg(max_iterations=3, convergence_patience=10), out_dir=tmp_path,
    )
    assert (tmp_path / "iter-3").is_dir()
    run_loop(train_ds, val_ds, pool_ds, cfg=small_cfg(max_iterations=1), out_dir=tmp_path)
    lines = (tmp_path / "summary.jsonl").read_text().splitlines()
    named = {f"iter-{json.loads(line)['iteration']}" for line in lines}
    on_disk = {d.name for d in tmp_path.glob("iter-*")}
    assert on_disk == named == {"iter-0", "iter-1"}


def test_loop_is_deterministic(small_corpus, tmp_path):
    train_ds, val_ds, pool_ds = small_corpus
    a = run_loop(train_ds, val_ds, pool_ds, cfg=small_cfg(), out_dir=tmp_path / "a")
    b = run_loop(train_ds, val_ds, pool_ds, cfg=small_cfg(), out_dir=tmp_path / "b")
    assert [s.val_accuracy for s in a] == [s.val_accuracy for s in b]
    assert [s.matched_pool_ids for s in a] == [s.matched_pool_ids for s in b]
    assert [s.selected_val_ids for s in a] == [s.selected_val_ids for s in b]


def test_success_mode_is_recorded(small_corpus, tmp_path):
    train_ds, val_ds, pool_ds = small_corpus
    states = run_loop(train_ds, val_ds, pool_ds, cfg=small_cfg(weight_mode="success"), out_dir=tmp_path)
    assert states[1].selection_mode == "success"


def test_random_baseline_draws_budget_uniformly(small_corpus, tmp_path):
    train_ds, val_ds, pool_ds = small_corpus
    states = run_random_baseline(train_ds, val_ds, pool_ds, cfg=small_cfg(), out_dir=tmp_path)
    s1 = states[1]
    assert s1.selection_mode == "random"
    assert s1.selected_val_ids == []
    assert 1 <= len(s1.matched_pool_ids) <= 4 * 3  # k*m draws before dedup
    assert set(s1.matched_pool_ids) <= set(pool_ds.ids())


def test_plateau_stops_the_loop_early(small_corpus, tmp_path):
    train_ds, val_ds, pool_ds = small_corpus
    cfg = small_cfg(max_iterations=6, convergence_min_delta=2.0, convergence_patience=2)
    states = run_loop(train_ds, val_ds, pool_ds, cfg=cfg, out_dir=tmp_path)
    assert len(states) == 3  # iteration 0 plus two flat iterations


def test_validation_leak_is_refused(small_corpus, tmp_path):
    train_ds, val_ds, pool_ds = small_corpus
    poisoned = Dataset.from_records(list(train_ds.records) + [val_ds.records[0]])
    with pytest.raises(DataError, match="leaked"):
        run_loop(poisoned, val_ds, pool_ds, cfg=small_cfg(), out_dir=tmp_path)


def flipped(ds, n):
    """Left-right mirror images of the first n rows of ds, under new ids."""
    h, w = ds.height, ds.width
    mirrored = np.ascontiguousarray(ds.levels()[:n].reshape(n, h, w)[:, :, ::-1]).reshape(n, h * w)
    return Dataset.from_matrix(mirrored, h, w, [f"flip-{rec.id}" for rec in ds.records[:n]],
                               ds.labels()[:n].tolist(), ds.groups()[:n])


def test_a_selector_may_add_rows_that_are_not_in_the_pool(small_corpus, tmp_path):
    train_ds, val_ds, pool_ds = small_corpus
    mirrors = flipped(train_ds, 6)

    def select_mirrors(t, failures, val_coords, project_pool):
        rows = mirrors.take(range(3 * t))  # each iteration repeats the rows of the one before
        return MatchSet(sampled_val_ids=[], matched_pool_ids=[], matches=[], mode="mirror", seed=t), rows

    cfg = small_cfg(max_iterations=2, convergence_patience=10)
    states = _run(train_ds, val_ds, pool_ds, None, cfg, tmp_path, select_mirrors)
    assert [s.train_size for s in states] == [len(train_ds), len(train_ds) + 3, len(train_ds) + 6]

    def select_a_validation_row(t, failures, val_coords, project_pool):
        rows = val_ds.take([0])
        return MatchSet(sampled_val_ids=[], matched_pool_ids=rows.ids(), matches=[], mode="leak", seed=t), rows

    with pytest.raises(DataError, match=f"validation record '{val_ds.ids()[0]}' leaked"):
        _run(train_ds, val_ds, pool_ds, None, cfg, tmp_path, select_a_validation_row)


def test_split_dimensions_must_agree(small_corpus, tmp_path):
    train_ds, val_ds, pool_ds = small_corpus
    other = generate_corpus(
        CorpusSpec(n_train=10, n_val=10, n_pool=10, height=32, width=32, master_seed=1)
    )[1]
    with pytest.raises(DataError, match="dimensions do not match"):
        run_loop(train_ds, other, pool_ds, cfg=small_cfg(), out_dir=tmp_path)


def test_group_accuracies_cover_both_subgroups(small_corpus, tmp_path):
    train_ds, val_ds, pool_ds = small_corpus
    states = run_loop(train_ds, val_ds, pool_ds, cfg=small_cfg(max_iterations=1), out_dir=tmp_path)
    assert set(states[0].group_accuracies) == {"dark", "light"}
    assert all(0.0 <= v <= 1.0 for v in states[0].group_accuracies.values())
