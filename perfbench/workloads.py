"""The two workloads: set-up, one round of timed operations, and checks.

A round is a fixed sequence of operations run one after another (a closed
loop with one client). Each round writes into its own directory, so the
harness can compare every later round's files with the first round's.
An operation is a thunk that looks its program function up on the module
at call time, so that a traced run sees the calls through its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

import checks
from biasgrid import classifier, cli, dataset, loop, seeding, synth

# Master seeds of the remediation panel. The loop's work (iterations,
# epochs) and the size of the paper's effect differ from seed to seed by up
# to 2x, so a panel drawn from the run seed would make both the times and
# the accuracies jump between runs; the panel is therefore fixed. Three
# seeds keep a round near 10 s, so that a run holds several rounds to take
# the median of (see README).
PANEL = (0, 1, 2)

# Large-grid sizes: P = 96*96 = 9216 pixels against N = 1024 images, a
# 32 x 32 grid with every image placed.
LARGE_N, LARGE_HW, LARGE_TRAIN = 1024, 96, 400


def timed(op: str, fn) -> tuple[str, float | None, float | None, str | None]:
    """Call fn(); (op, wall seconds, CPU seconds, error text). The times are
    None when the operation fails. A CLI call fails on a nonzero exit code."""
    start, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            result = fn()
    except Exception:  # a failed operation is counted, and the run goes on
        return op, None, None, traceback.format_exc(limit=3)
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    if isinstance(result, int) and result != 0:  # a CLI command's exit code
        return op, None, None, f"exit code {result}"
    return op, wall, cpu, None


def run_round(ops: list, between=None) -> list:
    """Run a round's (name, thunk) operations in order through timed(),
    calling between() after each one."""
    results = []
    for name, fn in ops:
        results.append(timed(name, fn))
        if between:
            between()
    return results


def run_checks(named: dict) -> dict[str, list[str]]:
    """Run each named check; an exception in a check is a problem it reports."""
    out = {}
    for name, fn in named.items():
        try:
            out[name] = fn()
        except Exception as exc:  # a missing or malformed output fails its check
            out[name] = [f"{type(exc).__name__}: {exc}"]
    return out


class Remediate:
    """run_loop and run_random_baseline at package defaults over the seed panel.

    The run seed is not used: the panel is fixed (see PANEL).
    """

    name = "remediate"

    def __init__(self, scratch: Path, seed: int, panel: tuple[int, ...] = PANEL):
        self.scratch = scratch
        self.figures = {}
        self.panel = panel
        self.corpora = {}
        self.cfgs = {s: loop.LoopConfig(seed=s) for s in panel}

    def setup(self) -> None:
        for s in self.panel:
            self.corpora[s] = synth.generate_corpus(synth.CorpusSpec(master_seed=s))

    def operations(self, out: Path) -> list:
        ops = []
        for s in self.panel:
            data, cfg, run = self.corpora[s], self.cfgs[s], out / f"seed-{s}"
            ops.append(("targeted", lambda d=data, c=cfg, o=run / "targeted": loop.run_loop(*d, cfg=c, out_dir=o)))
            ops.append(("random", lambda d=data, c=cfg, o=run / "random": loop.run_random_baseline(*d, cfg=c, out_dir=o)))
        return ops

    def _corpus(self, s: int) -> checks.Corpus:
        tr, va, po = self.corpora[s]
        stack = lambda ds: np.stack([r.pixels.ravel() for r in ds.records]).astype(np.float64)
        return checks.Corpus(
            train_ids=[r.id for r in tr.records],
            val_ids=[r.id for r in va.records], val_x=stack(va),
            val_y=np.array([r.label for r in va.records], np.float64),
            val_groups=[r.group for r in va.records],
            pool_ids=[r.id for r in po.records], pool_x=stack(po),
        )

    def check(self, out: Path) -> dict[str, list[str]]:
        results, finals = {}, {}
        for s in self.panel:
            corpus, cfg = self._corpus(s), self.cfgs[s]
            k = cfg.resolved_k(len(corpus.val_ids))
            for arm in ("targeted", "random"):
                its = checks.read_run(out / f"seed-{s}" / arm)
                named = {
                    "accuracies": lambda: checks.check_accuracies(its, corpus),
                    "growth": lambda: checks.check_growth(its, corpus),
                    "plateau": lambda: checks.check_plateau(its, cfg.max_iterations, cfg.convergence_min_delta,
                                                            cfg.convergence_patience),
                }
                if arm == "targeted":
                    named["matches"] = lambda: checks.check_matches(its, corpus, cfg.m)
                    named["failure_sampling"] = lambda: checks.check_failure_sampling(its, corpus)
                else:
                    named["random_draws"] = lambda: checks.check_random_draws(its, corpus, k * cfg.m)
                for name, problems in run_checks(named).items():
                    results.setdefault(name, []).extend(f"seed {s} {arm}: {p}" for p in problems)
                finals[(s, arm)] = checks.group_accuracies(corpus, its[-1]["model"])[1]["dark"]
        self.figures["dark_acc_final"] = statistics.fmean(finals[(s, "targeted")] for s in self.panel)
        self.figures["dark_margin"] = statistics.fmean(finals[(s, "targeted")] - finals[(s, "random")]
                                                       for s in self.panel)
        return results


class GridLarge:
    """fit-pca and visualize --sidecar through the CLI on a 1024-image 96x96
    manifest written in set-up, with a model trained in set-up on 400 further
    images that are not written out. Corpus seed = run seed."""

    name = "grid-large"

    def __init__(self, scratch: Path, seed: int):
        self.scratch = scratch
        self.seed = seed
        self.data = scratch / "data"
        self.figures = {}
        self.spec = synth.CorpusSpec(master_seed=seed, height=LARGE_HW, width=LARGE_HW)

    def _cli(self, out: Path, *args) -> list:
        return ["--seed", str(self.seed), "--out-dir", str(out), *map(str, args)]

    def setup(self) -> None:
        dataset.save_dataset(synth.generate_split(self.spec, "val", LARGE_N), self.data / "val.jsonl")
        hyper = classifier.TrainHyper(seed=seeding.derive_seed(self.seed, "train", "0"))
        model = classifier.train(synth.generate_split(self.spec, "train", LARGE_TRAIN), hyper)
        classifier.save_model(model, self.data / "model.json")

    def operations(self, out: Path) -> list:
        val = self.data / "val.jsonl"
        fit = self._cli(out, "fit-pca", "--manifest", val, "--out", "basis.json")
        show = self._cli(out, "visualize", "--manifest", val, "--basis", out / "basis.json",
                         "--model", self.data / "model.json", "--out", "grid.ppm", "--sidecar", "grid.json")
        return [("fit_pca", lambda: cli.main(fit)), ("visualize", lambda: cli.main(show))]

    def check(self, out: Path) -> dict[str, list[str]]:
        """Checks of the manifest, the model, and out's basis, grid and sidecar."""
        model = self.data / "model.json"
        val = checks.read_manifest(self.data / "val.jsonl", LARGE_HW, LARGE_HW)
        train = synth.generate_split(self.spec, "train", LARGE_TRAIN).records  # the set-up's input again
        x, y = np.stack([r.pixels.ravel() for r in train]), np.array([r.label for r in train], np.float64)
        sidecar = json.loads((out / "grid.json").read_text(encoding="utf-8"))
        return run_checks({
            "manifests": lambda: [f"val: {p}" for p in checks.check_manifest(val, LARGE_N)],
            "training_loss": lambda: checks.check_training_loss(model, x, y),
            "basis": lambda: checks.check_basis(out / "basis.json", val),
            "sidecar_ids": lambda: checks.check_sidecar_ids(sidecar, val),
            "sidecar_failures": lambda: checks.check_sidecar_failures(sidecar, model, val),
            "grid_greedy": lambda: checks.check_grid_greedy(sidecar, out / "basis.json", val),
            "ppm": lambda: checks.check_ppm(out / "grid.ppm", sidecar, val),
        })


WORKLOADS = {w.name: w for w in (Remediate, GridLarge)}
