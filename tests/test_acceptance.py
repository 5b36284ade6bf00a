"""Acceptance suite: one test per numbered criterion, at contractual tolerances.

Each test funnels its verdict through conftest.criterion(), which prints a
one-line PASS/FAIL per criterion at the end of the session. The expensive
shared artifacts (seeded corpus, base model, the three remediation runs)
come from session fixtures in conftest.
"""

import filecmp
import hashlib
import json
import time

import numpy as np
from scipy import stats

from biasgrid.classifier import (
    RefModel,
    TrainHyper,
    accuracy_from_scores,
    loss_gradient,
    loss_value,
    predict_dataset,
    save_model,
    train,
)
from biasgrid.cli import main as cli_main
from biasgrid.dataset import Dataset, ImageRecord, save_dataset
from biasgrid.grid import make_grid
from biasgrid.loop import group_accuracy
from biasgrid.pca import fit, project
from biasgrid.saliency import FailureScores, colormap
from biasgrid.sampler import make_weights, sample
from biasgrid.seeding import derive_seed, make_rng
from biasgrid.synth import CorpusSpec, generate_split
from conftest import criterion
from oracles import brute_force_grid, central_diff_grad, pca_oracle

# Frozen SHA-256 of the criterion-9 golden PPM (fixture corpus, seed 915).
GOLDEN_PPM_SHA256 = "fe855e9ad98e0d73cd66a711a5d377328a3b57e96ddb0892bd2c9c808301ab16"


def test_criterion_1_pca_matches_oracle():
    """fit vs a hand-rolled Jacobi SVD on 20 seeded matrices (N<=30, P<=60):
    basis entries within 1e-6 after sign normalization, singular values to
    1e-6 relative, projected variance = (s1^2 + s2^2)/N within 1e-8 relative,
    all inside 5 seconds."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_entry = worst_sval = worst_var = 0.0
    for _ in range(20):
        n = int(rng.integers(5, 31))
        p = int(rng.integers(3, 61))
        mat = rng.normal(size=(n, p)) + rng.normal(size=p)
        basis = fit(mat)
        _, oracle_svals, oracle_basis = pca_oracle(mat)
        worst_entry = max(worst_entry, float(np.max(np.abs(basis.components - oracle_basis))))
        worst_sval = max(
            worst_sval,
            float(np.max(np.abs(np.array(basis.singular_values) - oracle_svals) / oracle_svals)),
        )
        coords = project(basis, mat)
        s1, s2 = basis.singular_values
        expected = (s1**2 + s2**2) / n
        worst_var = max(worst_var, abs(float(np.sum(coords**2)) / n - expected) / expected)
    elapsed = time.perf_counter() - start
    criterion(
        1,
        worst_entry <= 1e-6 and worst_sval <= 1e-6 and worst_var <= 1e-8 and elapsed < 5.0,
        f"entry dev {worst_entry:.2e}, sval dev {worst_sval:.2e}, "
        f"variance dev {worst_var:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_grid_injective_and_greedy():
    """200 random instances: assignment is injective and replays the greedy
    rule exactly; instances with N <= 12 equal the brute-force reimplementation;
    all inside 5 seconds."""
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    ok = True
    n_small = 0
    for i in range(200):
        n = int(rng.integers(1, 13)) if i % 2 == 0 else int(rng.integers(13, 41))
        n_small += n <= 12
        rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        coords = rng.normal(size=(n, 2)) * float(rng.uniform(0.5, 10.0))
        ids = [f"g{j}" for j in range(n)]
        layout = make_grid(coords, rows, cols, ids=ids)
        assigned = layout.assigned_ids()
        injective = len(assigned) == len(set(assigned)) == min(n, rows * cols)
        replay = layout.cells == brute_force_grid(coords, rows, cols, ids)
        ok = ok and injective and replay
    elapsed = time.perf_counter() - start
    criterion(
        2,
        ok and n_small >= 100 and elapsed < 5.0,
        f"all instances consistent={ok}, {n_small} brute-force cases, {elapsed:.2f}s",
    )


def test_criterion_3_sampler_statistics():
    """1e5 seeded draws from weights [0.7, 0.2, 0.1]: frequencies within
    +-0.01, chi-square at significance 1e-3; success-mode weights for
    C=[0.1, 0.4, 0.5] equal [0.45, 0.30, 0.25] to 1e-12."""
    c = np.array([0.7, 0.2, 0.1])  # labels 0, so failure score = prediction
    weights = make_weights(FailureScores(ids=["a", "b", "c"], predictions=c, scores=c))
    n_draws = 100_000
    draws = sample(weights, n_draws, seed=derive_seed(0, "acceptance", "sampler"))
    counts = np.bincount(draws, minlength=3).astype(np.float64)
    freqs = counts / n_draws
    target = np.array([0.7, 0.2, 0.1])
    freq_ok = bool(np.all(np.abs(freqs - target) <= 0.01))
    pvalue = stats.chisquare(counts, f_exp=target * n_draws).pvalue
    chi_ok = pvalue > 1e-3

    c = np.array([0.1, 0.4, 0.5])
    flipped = make_weights(FailureScores(ids=["a", "b", "c"], predictions=c, scores=c), mode="success")
    example_ok = bool(np.all(np.abs(flipped - [0.45, 0.30, 0.25]) <= 1e-12))
    criterion(
        3,
        freq_ok and chi_ok and example_ok,
        f"freqs {freqs.round(4).tolist()}, chi-square p={pvalue:.4f}, "
        f"success-mode weights {flipped.tolist()}",
    )


def test_criterion_4_gradient_check_and_separable_toy():
    """Analytic vs central finite-difference gradients to 1e-5 relative over
    20 seeded configurations; a separable brightness toy reaches 100% train
    accuracy; all inside 10 seconds."""
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    l2_grid = (0.0, 1e-4, 1e-2, 0.3)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(3, 13))
        p = int(rng.integers(2, 21))
        l2 = l2_grid[trial % len(l2_grid)]
        mat = rng.normal(size=(n, p))
        labels = (rng.random(n) > 0.5).astype(np.float64)
        w = rng.normal(size=p)
        b = float(rng.normal())
        ga_w, ga_b = loss_gradient(w, b, mat, labels, l2)
        fd_w, fd_b = central_diff_grad(lambda wv, bv: loss_value(wv, bv, mat, labels, l2), w, b)
        analytic = np.append(ga_w, ga_b)
        numeric = np.append(fd_w, fd_b)
        worst = max(worst, float(np.linalg.norm(analytic - numeric) / np.linalg.norm(analytic)))

    records = []
    toy_rng = np.random.default_rng(405)
    for i in range(48):
        level = 0.75 - 0.5 * (i % 2)
        px = np.clip(level + toy_rng.normal(0.0, 0.02, size=(8, 8)), 0.0, 1.0)
        records.append(ImageRecord(f"t{i}", px, i % 2))
    toy = Dataset.from_records(records)
    hyper = TrainHyper(learning_rate=0.5, max_epochs=120, batch_size=8, l2=0.0, seed=2, val_fraction=0.25)
    toy_acc = accuracy_from_scores(predict_dataset(train(toy, hyper), toy), toy.labels())
    elapsed = time.perf_counter() - start
    criterion(
        4,
        worst <= 1e-5 and toy_acc == 1.0 and elapsed < 10.0,
        f"worst gradient deviation {worst:.2e}, toy accuracy {toy_acc:.3f}, {elapsed:.2f}s",
    )


def test_criterion_5_bias_emerges_on_the_skewed_corpus(default_corpus, base_model):
    """Training on the mix=0.95, n_train=1000 corpus leaves dark-group
    validation accuracy at least 10 points below light-group (seeded run)."""
    _, val_ds, _ = default_corpus
    groups = group_accuracy(val_ds, predict_dataset(base_model, val_ds))
    gap = groups["light"] - groups["dark"]
    criterion(
        5,
        gap >= 0.10,
        f"light {groups['light']:.4f}, dark {groups['dark']:.4f}, gap {gap * 100:.1f} points",
    )


def test_criterion_6_loop_remediates(targeted_run, random_run):
    """Within <=7 default iterations: (a) final overall accuracy gains >= 10
    points over iteration 0, (b) final dark-group accuracy beats the random
    baseline by >= 3 points, (c) accuracy never drops more than 1 point per
    step, inside a 2-minute budget for both runs."""
    states, seconds_t, _ = targeted_run
    rstates, seconds_r, _ = random_run
    acc0 = states[0].val_accuracy
    final = states[-1].val_accuracy
    gain_ok = final - acc0 >= 0.10
    dark_t = states[-1].group_accuracies["dark"]
    dark_r = rstates[-1].group_accuracies["dark"]
    margin_ok = dark_t - dark_r >= 0.03
    seq = [s.val_accuracy for s in states]
    monotone_ok = all(b >= a - 0.01 - 1e-12 for a, b in zip(seq, seq[1:]))
    runtime = seconds_t + seconds_r
    criterion(
        6,
        gain_ok and margin_ok and monotone_ok and len(states) <= 8 and runtime < 120.0,
        f"overall {acc0:.4f}->{final:.4f}, dark targeted {dark_t:.4f} vs random {dark_r:.4f}, "
        f"sequence {['%.3f' % a for a in seq]}, {runtime:.1f}s",
    )


def test_criterion_7_learning_rate_ordering():
    """From-scratch full-batch training on the seeded 128x128 task, early
    stopping enabled: final validation accuracy at lr=1e-4 >= lr=1e-3."""
    spec = CorpusSpec(n_train=300, n_val=200, n_pool=1, height=128, width=128)
    train_ds = generate_split(spec, "train", spec.n_train)
    val_ds = generate_split(spec, "val", spec.n_val)

    def final_acc(lr):
        hyper = TrainHyper(
            learning_rate=lr,
            max_epochs=500,
            full_batch=True,
            seed=derive_seed(0, "train", "0"),
        )
        return accuracy_from_scores(predict_dataset(train(train_ds, hyper), val_ds), val_ds.labels())

    acc_low = final_acc(1e-4)
    acc_high = final_acc(1e-3)
    criterion(
        7,
        acc_low >= acc_high,
        f"lr=1e-4 final {acc_low:.4f}, lr=1e-3 final {acc_high:.4f}",
    )


def test_criterion_8_failure_mode_beats_success_mode(targeted_run, success_run):
    """Under identical seeds, failure-weighted sampling ends with dark-group
    accuracy >= the success-weighted variant, and each run's summary records
    which mode ran."""
    t_states, _, t_dir = targeted_run
    s_states, _, s_dir = success_run
    dark_fail = t_states[-1].group_accuracies["dark"]
    dark_succ = s_states[-1].group_accuracies["dark"]

    def recorded_modes(run_dir):
        lines = (run_dir / "summary.jsonl").read_text().splitlines()
        return {json.loads(line)["selection_mode"] for line in lines[1:]}

    evidence_ok = recorded_modes(t_dir) == {"failure"} and recorded_modes(s_dir) == {"success"}
    criterion(
        8,
        dark_fail >= dark_succ and evidence_ok,
        f"dark accuracy: failure-mode {dark_fail:.4f} vs success-mode {dark_succ:.4f}, "
        f"modes recorded in summaries: {evidence_ok}",
    )


def test_criterion_9_visualize_golden_file(tmp_path):
    """cmd_visualize on the seeded fixture corpus is byte-identical across
    invocations and matches the frozen digest; colormap anchors are exact at
    correctness 0, 0.5, and 1."""
    spec = CorpusSpec(n_train=8, n_val=60, n_pool=1, height=32, width=32, master_seed=915)
    fixture = generate_split(spec, "val", 60)
    save_dataset(fixture, tmp_path / "fixture.jsonl")

    weights = make_rng(derive_seed(915, "golden-model")).uniform(-0.02, 0.02, size=32 * 32)
    save_model(RefModel(weights=weights, bias=0.0), tmp_path / "model.json")

    args = ["--out-dir", str(tmp_path)]
    assert cli_main(args + ["fit-pca", "--manifest", str(tmp_path / "fixture.jsonl"), "--out", "basis.json"]) == 0
    for name in ("golden-a.ppm", "golden-b.ppm"):
        code = cli_main(
            args
            + [
                "visualize",
                "--manifest",
                str(tmp_path / "fixture.jsonl"),
                "--basis",
                str(tmp_path / "basis.json"),
                "--model",
                str(tmp_path / "model.json"),
                "--out",
                name,
            ]
        )
        assert code == 0
    blob_a = (tmp_path / "golden-a.ppm").read_bytes()
    blob_b = (tmp_path / "golden-b.ppm").read_bytes()
    digest = hashlib.sha256(blob_a).hexdigest()

    anchors_ok = colormap(np.array([0.0, 0.5, 1.0])).tolist() == [
        [68, 1, 84],
        [33, 145, 140],
        [253, 231, 37],
    ]
    criterion(
        9,
        blob_a == blob_b and digest == GOLDEN_PPM_SHA256 and anchors_ok,
        f"reruns identical: {blob_a == blob_b}, digest {digest}, anchors exact: {anchors_ok}",
    )


def test_criterion_10_loop_runs_are_byte_identical(tmp_path):
    """Two cmd_loop invocations with the same config produce byte-identical
    summary.jsonl and identical bytes for every other artifact."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "corpus.n_train = 120\n"
        "corpus.n_val = 49\n"
        "corpus.n_pool = 160\n"
        "corpus.height = 32\n"
        "corpus.width = 32\n"
        "train.max_epochs = 30\n"
        "loop.max_iterations = 3\n"
    )
    run_dirs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        assert cli_main(["--config", str(cfg), "--out-dir", str(out), "loop"]) == 0
        run_dirs.append(out / "runs" / "run")

    rel_a = sorted(p.relative_to(run_dirs[0]) for p in run_dirs[0].rglob("*") if p.is_file())
    rel_b = sorted(p.relative_to(run_dirs[1]) for p in run_dirs[1].rglob("*") if p.is_file())
    same_tree = rel_a == rel_b
    diffs = [
        str(rel)
        for rel in rel_a
        if not filecmp.cmp(run_dirs[0] / rel, run_dirs[1] / rel, shallow=False)
    ] if same_tree else ["tree mismatch"]
    summary_ok = (run_dirs[0] / "summary.jsonl").read_bytes() == (
        run_dirs[1] / "summary.jsonl"
    ).read_bytes()
    criterion(
        10,
        same_tree and not diffs and summary_ok,
        f"{len(rel_a)} artifacts compared, differing: {diffs or 'none'}",
    )
