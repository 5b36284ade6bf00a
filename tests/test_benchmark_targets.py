"""The benchmark's tracer (perfbench/tracing.py) still finds what it wraps.

The tracer wraps biasgrid functions by module and attribute name, and its
counters read some of their parameters by name. A rename or deletion in the
package would otherwise break only the benchmark run, not the tests.
"""

import importlib
import json
import importlib.util
import sys
from pathlib import Path

import pytest

import biasgrid  # noqa: F401  (the tracer patches every loaded biasgrid module)
import biasgrid.cli  # noqa: F401
from biasgrid.classifier import TrainHyper
from biasgrid.loop import LoopConfig
from biasgrid.synth import CorpusSpec, generate_corpus

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("biasgrid_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def resolve(mod_name, attr):
    obj = importlib.import_module(f"biasgrid.{mod_name}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return getattr(obj, "__func__", obj)  # a classmethod's function


def test_tracer_wraps_every_target_and_restores_it(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        unwrapped = [f"{m}.{a}" for m, a, _ in tracing.TARGETS if not hasattr(resolve(m, a), "__wrapped__")]
    finally:
        tracer.uninstall()
    assert unwrapped == []
    assert all(not hasattr(resolve(m, a), "__wrapped__") for m, a, _ in tracing.TARGETS)


def test_tracer_counters_read_live_parameters(tracing, tmp_path):
    # one short loop iteration calls train, fine_tune, render, make_grid and
    # match_pool; the first three counters read the parameters named
    # dataset, model and grid, the last two read their results
    spec = CorpusSpec(n_train=40, n_val=16, n_pool=30, height=16, width=16, master_seed=1)
    train_ds, val, pool = generate_corpus(spec)
    cfg = LoopConfig(max_iterations=1, k=3, m=3, hyper=TrainHyper(max_epochs=3))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        biasgrid.loop.run_loop(train_ds, val, pool, cfg=cfg, out_dir=tmp_path)
    finally:
        tracer.uninstall()
    counts = {span.name: span.counts for span in tracer.spans}
    assert "classifier.epochs" in counts["classifier.train"]
    assert "classifier.fine_tune.unchanged" in counts["classifier.fine_tune"]
    assert counts["saliency.render"] == {"saliency.render.cells": 16}
    assert counts["loop.run_loop"]["loop.iterations"] == 1
    assert counts["grid.make_grid"] == {"grid.make_grid.cells": 16}  # the default 4 x 4 grid
    matchset = json.loads((tmp_path / "iter-1" / "matchset.json").read_text())
    # k draws of m neighbours each, one of them repeated, so the two counters differ
    assert len(matchset["matched_pool_ids"]) < len(matchset["matches"]) == 3 * 3
    assert counts["sampler.match_pool"] == {
        "sampler.match_pool.neighbours": len(matchset["matches"]),
        "sampler.match_pool.distinct": len(matchset["matched_pool_ids"]),
    }
