"""Shared fixtures and the acceptance-criteria result board.

The expensive artifacts (the seeded biased corpus, its base model, and the
three full remediation runs) are built once per session and shared between
the unit tests and the acceptance suite. Acceptance tests report into
RESULTS via criterion(); a terminal-summary hook prints one line per
criterion at the end of the run.
"""

import time
from dataclasses import replace

import pytest

from biasgrid.classifier import TrainHyper, train
from biasgrid.loop import LoopConfig, run_loop, run_random_baseline
from biasgrid.seeding import derive_seed
from biasgrid.synth import CorpusSpec, generate_corpus

CRITERIA = {
    1: "PCA basis matches the Jacobi oracle; projected variance identity",
    2: "grid injectivity, greedy replay, brute-force equality",
    3: "sampler frequencies, chi-square, success-mode weight example",
    4: "analytic gradients match finite differences; separable toy hits 100%",
    5: "bias emergence: dark-group accuracy >= 10 points below light",
    6: "loop remediation: overall gain, targeted beats random, monotone",
    7: "learning-rate ordering: final accuracy at 1e-4 >= 1e-3",
    8: "failure-mode weighting >= success-mode on dark group, recorded",
    9: "byte-identical visualize output; exact colormap anchors",
    10: "two identical loop invocations byte-identical",
}

RESULTS: dict[int, bool] = {}


def criterion(num: int, ok: bool, detail: str) -> None:
    """Record a criterion verdict (sticky failure), then assert it."""
    RESULTS[num] = bool(ok) and RESULTS.get(num, True)
    assert ok, f"criterion {num}: {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(CRITERIA):
        if num in RESULTS:
            word = "PASS" if RESULTS[num] else "FAIL"
        else:
            word = "NOT RUN"
        terminalreporter.write_line(f"criterion {num:2d}: {word:7s} {CRITERIA[num]}")


@pytest.fixture(scope="session")
def default_corpus():
    """The seeded biased corpus at package defaults: (train, val, pool)."""
    return generate_corpus(CorpusSpec())


@pytest.fixture(scope="session")
def base_model(default_corpus):
    """Iteration-0 model, trained exactly the way the loop trains it."""
    train_ds = default_corpus[0]
    hyper = replace(TrainHyper(), seed=derive_seed(0, "train", "0"))
    return train(train_ds, hyper)


@pytest.fixture(scope="session")
def run_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance-runs")


def _timed_run(runner, corpus, cfg, out_dir):
    train_ds, val_ds, pool_ds = corpus
    start = time.perf_counter()
    states = runner(train_ds, val_ds, pool_ds, cfg=cfg, out_dir=out_dir)
    return states, time.perf_counter() - start, out_dir


@pytest.fixture(scope="session")
def targeted_run(default_corpus, run_root):
    """Failure-weighted remediation at loop defaults: (states, seconds, dir)."""
    return _timed_run(run_loop, default_corpus, LoopConfig(), run_root / "targeted")


@pytest.fixture(scope="session")
def random_run(default_corpus, run_root):
    """Uniform-draw control arm under the same seeds and budget."""
    return _timed_run(run_random_baseline, default_corpus, LoopConfig(), run_root / "random")


@pytest.fixture(scope="session")
def success_run(default_corpus, run_root):
    """Same loop with the weights flipped toward already-correct images."""
    cfg = LoopConfig(weight_mode="success")
    return _timed_run(run_loop, default_corpus, cfg, run_root / "success")
