"""Spans around calls into biasgrid's public functions, recorded from outside.

`Tracer.install` replaces each traced function with a wrapper, in its own
module and in every biasgrid module that imported it by name (the loop,
the CLI and the saliency module do), so calls between modules are seen as
well as the benchmark's own. Spans nest by call order in this
single-threaded process; a span's self time is its duration minus the
durations of its direct children. Spans are kept in memory and written out
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)


def _epochs(model, dataset) -> dict:
    return {"classifier.epochs": model.trained_epochs,
            "classifier.epoch_rows": model.trained_epochs * len(dataset)}


def _fine_tune(a, r) -> dict:
    same = r.weights.tobytes() == a["model"].weights.tobytes() and r.bias == a["model"].bias
    return {**_epochs(r, a["dataset"]), "classifier.fine_tune.unchanged": int(same)}


def _loop(arm):
    return lambda a, r: {"loop.iterations": len(r) - 1,
                         f"loop.images_added.{arm}": r[-1].train_size - r[0].train_size}


# (module, attribute, counter): a counter receives the call's bound
# arguments and its result, and returns counts to add to the span.
TARGETS = (
    ("synth", "generate_split", None),
    ("dataset", "Dataset.from_records", lambda a, r: {"dataset.from_records.records": len(r)}),
    ("dataset", "Dataset.matrix", lambda a, r: {"dataset.matrix.rows": r.shape[0]}),
    ("dataset", "save_dataset", None),
    ("dataset", "load_manifest", None),
    ("netpbm", "write_pgm", None),
    ("netpbm", "read_pgm", None),
    ("netpbm", "write_ppm", None),
    ("pca", "fit", None),
    ("pca", "project", lambda a, r: {"pca.project.rows": r.shape[0]}),
    ("pca", "save_basis", None),
    ("pca", "load_basis", None),
    ("grid", "make_grid", lambda a, r: {"grid.make_grid.cells": r.rows * r.cols}),
    ("classifier", "train", lambda a, r: _epochs(r, a["dataset"])),
    ("classifier", "fine_tune", _fine_tune),
    ("classifier", "predict_dataset", None),
    ("classifier", "save_model", None),
    ("classifier", "load_model", None),
    ("saliency", "compute_failures", None),
    ("saliency", "render", lambda a, r: {"saliency.render.cells": len(a["grid"].assigned_ids())}),
    ("saliency", "save_sidecar", None),
    ("sampler", "make_weights", None),
    ("sampler", "sample", None),
    ("sampler", "match_pool", lambda a, r: {"sampler.match_pool.neighbours": len(r.matches),
                                            "sampler.match_pool.distinct": len(r.matched_pool_ids)}),
    ("sampler", "save_matchset", None),
    ("loop", "run_loop", _loop("targeted")),
    ("loop", "run_random_baseline", _loop("random")),
    ("cli", "main", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def _wrap(self, name: str, fn, counter):
        sig = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, time.perf_counter(), self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent is not None:
                    self.spans[span.parent].child_s += span.end - span.start
            if counter is not None:
                span.counts = counter(sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target wherever a biasgrid module holds it (once)."""
        if self._patches:
            return
        modules = [m for n, m in sys.modules.items() if n == "biasgrid" or n.startswith("biasgrid.")]
        for mod_name, attr, counter in TARGETS:
            mod = importlib.import_module(f"biasgrid.{mod_name}")
            name = f"{mod_name}.{attr.split('.')[-1]}"
            if "." in attr:  # a method or classmethod of a class
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, counter))
                else:
                    new = self._wrap(name, raw, counter)
                setattr(cls, meth, new)
                self._patches.append((cls, meth, raw, new))
                continue
            orig = getattr(mod, attr)
            new = self._wrap(name, orig, counter)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, new)
                        self._patches.append((m, key, orig, new))

    def uninstall(self) -> None:
        for owner, key, orig, _ in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def totals(self, start: int, stop: int) -> dict[str, float]:
        """Self seconds, calls and counters summed over spans[start:stop]."""
        out: dict[str, float] = {}
        for span in self.spans[start:stop]:
            out[f"{span.name}.s"] = out.get(f"{span.name}.s", 0.0) + (span.end - span.start - span.child_s)
            out[f"{span.name}.calls"] = out.get(f"{span.name}.calls", 0) + 1
            for key, val in span.counts.items():
                out[key] = out.get(key, 0) + val
        return out

    def write(self, path, phases: list[tuple[str, int, int]]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for phase, start, stop in phases:
                for i in range(start, stop):
                    s = self.spans[i]
                    fh.write(json.dumps({"i": i, "phase": phase, "name": s.name, "parent": s.parent,
                                         "start": s.start, "end": s.end, "self_s": s.end - s.start - s.child_s,
                                         **s.counts}) + "\n")


def layer_metrics(setup: dict[str, float], rounds: list[dict[str, float]]) -> dict[str, float]:
    """Set-up totals plus the median traced round, per key, then the derived figures."""
    keys = set(setup).union(*rounds)
    out = {k: setup.get(k, 0) + statistics.median(r.get(k, 0) for r in rounds) for k in keys}
    out["loop.self.s"] = out.get("loop.run_loop.s", 0.0) + out.get("loop.run_random_baseline.s", 0.0)
    out["cli.self.s"] = out.get("cli.main.s", 0.0)
    train_s = out.get("classifier.train.s", 0.0) + out.get("classifier.fine_tune.s", 0.0)
    out["classifier.epoch_rows_per_s"] = out.get("classifier.epoch_rows", 0) / train_s if train_s else 0.0
    return out
