"""Output checks computed apart from the program.

Every check re-derives what an output must hold from the inputs, the file
formats and the method as documented, with its own readers and its own
arithmetic: a hand-written PGM/PPM parser, a logistic score, PCA as `eigh`
of the N x N Gram matrix, a replay of the greedy grid rule, the plateau
rule, and nearest-neighbour searches. None compares against a stored copy
of an earlier output. Each returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

# Documented render settings: the colormap anchors (correctness 0, 0.5, 1),
# the overlay opacity and the cell size that `visualize` uses by default.
ANCHORS = ((68.0, 1.0, 84.0), (33.0, 145.0, 140.0), (253.0, 231.0, 37.0))
ALPHA = 0.4
CELL_PX = 32

_HEADER = re.compile(rb"(P[56])\s+(\d+)\s+(\d+)\s+(\d+)\s")
_REL = 1e-9


def parse_netpbm(data: bytes, magic: bytes) -> tuple[int, int, int]:
    """(width, height, payload offset) of a binary netpbm file with maxval 255."""
    m = _HEADER.match(data)
    if m is None or m.group(1) != magic or m.group(4) != b"255":
        raise ValueError(f"not a {magic.decode()} file with maxval 255")
    return int(m.group(2)), int(m.group(3)), m.end()


@dataclass
class Images:
    """A manifest read back with this module's own parser."""

    ids: list[str]
    labels: np.ndarray  # (N,) float 0/1
    pixels: np.ndarray  # (N, H, W) uint8
    problems: list[str]  # malformed image files met while reading

    @cached_property
    def matrix(self) -> np.ndarray:
        return self.pixels.reshape(len(self.ids), -1).astype(np.float64) / 255.0


def read_manifest(path, height: int, width: int) -> Images:
    path = Path(path)
    ids, labels, images, problems = [], [], [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        data = (path.parent / obj["path"]).read_bytes()
        try:
            w, h, off = parse_netpbm(data, b"P5")
        except ValueError as exc:
            problems.append(f"{obj['path']}: {exc}")
            continue
        if (h, w) != (height, width) or len(data) != off + h * w:
            problems.append(f"{obj['path']}: {w}x{h}, {len(data) - off} payload bytes; "
                            f"want {width}x{height} and {width * height}")
            continue
        ids.append(obj["id"])
        labels.append(obj["label"])
        images.append(np.frombuffer(data, np.uint8, count=h * w, offset=off).reshape(h, w))
    pixels = np.stack(images) if images else np.zeros((0, height, width), np.uint8)
    return Images(ids, np.asarray(labels, np.float64), pixels, problems)


def logistic(z: np.ndarray) -> np.ndarray:
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def read_model(path) -> tuple[np.ndarray, float]:
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    return np.asarray(obj["weights"], np.float64), float(obj["bias"])


def gram_pca(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-2 PCA by the snapshot method: eigh of C Cᵀ, then V = Cᵀ U / s.

    Returns (mean, V as P x 2, s as (2,)); the signs of V are arbitrary.
    """
    mean = matrix.mean(axis=0)
    centred = matrix - mean
    evals, evecs = np.linalg.eigh(centred @ centred.T)
    top = np.argsort(evals)[::-1][:2]
    s = np.sqrt(np.maximum(evals[top], 0.0))
    return mean, centred.T @ evecs[:, top] / s, s


def _close(a, b, rel=_REL, abs_=0.0) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= abs_ + rel * np.abs(np.asarray(b))))


# ---------------------------------------------------------------- large grid


def check_manifest(images: Images, count: int) -> list[str]:
    """Configured record count, every PGM well formed, labels balanced, ids distinct."""
    out = list(images.problems)
    n = len(images.ids) + len(images.problems)
    if n != count:
        out.append(f"{n} records, want {count}")
    ones = int(images.labels.sum())
    if abs(2 * ones - len(images.ids)) > 1:
        out.append(f"labels unbalanced: {ones} of {len(images.ids)} are 1")
    if len(set(images.ids)) != len(images.ids):
        out.append("duplicate ids")
    return out


def check_training_loss(model_path, x: np.ndarray, y: np.ndarray) -> list[str]:
    """Mean cross-entropy on the training set (x, y) is below ln 2, its value at w = 0.

    The margin keeps a mean of ln 2 that rounds down by an ulp from passing.
    """
    w, b = read_model(model_path)
    z = x @ w + b
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
    return [] if loss < math.log(2.0) - 1e-9 else [f"training loss {loss:.6f} is not below ln 2"]


def check_basis(basis_path, val: Images) -> list[str]:
    """Mean, singular values and directions agree with the Gram-matrix PCA."""
    obj = json.loads(Path(basis_path).read_text(encoding="utf-8"))
    mean, comps = np.asarray(obj["mean"]), np.asarray(obj["components"])
    svals = np.asarray(obj["singular_values"])
    x = val.matrix
    own_mean, own_v, own_s = gram_pca(x)
    out = []
    if not _close(mean, own_mean, abs_=1e-12):
        out.append("mean image differs from the column means")
    if not _close(svals, own_s):
        out.append(f"singular values {svals.tolist()} != sqrt(eig(C Cᵀ)) {own_s.tolist()}")
    norms = np.linalg.norm((x - own_mean) @ comps, axis=0)
    if not _close(norms, svals):
        out.append(f"‖C·v‖ {norms.tolist()} != singular values {svals.tolist()}")
    if not _close(comps.T @ comps, np.eye(2), rel=0.0, abs_=1e-9):
        out.append("components are not orthonormal")
    if not _close(np.abs(np.sum(comps * own_v, axis=0)), np.ones(2), rel=0.0, abs_=1e-6):
        out.append("components are not ± the Gram-matrix eigenvectors")
    return out


def _cells(sidecar: dict) -> list[tuple[int, int, dict]]:
    cells = [(*map(int, key.split(",")), cell) for key, cell in sidecar["cells"].items()]
    return sorted(cells, key=lambda c: (c[0], c[1]))


def check_sidecar_ids(sidecar: dict, val: Images) -> list[str]:
    """min(N, rows·cols) distinct validation ids, filling cells in row-major order."""
    rows, cols = sidecar["rows"], sidecar["cols"]
    side = math.isqrt(len(val.ids))
    want = min(len(val.ids), rows * cols)
    cells = _cells(sidecar)
    ids = [cell["id"] for _, _, cell in cells]
    out = []
    if (rows, cols) != (side, side):
        out.append(f"grid {rows}x{cols}, want {side}x{side}")
    if len(ids) != want or len(set(ids)) != want:
        out.append(f"{len(set(ids))} distinct ids in {len(ids)} cells, want {want}")
    if not set(ids) <= set(val.ids):
        out.append("sidecar names ids outside the validation manifest")
    if [r * cols + c for r, c, _ in cells] != list(range(len(cells))):
        out.append("filled cells are not a row-major prefix of the grid")
    return out


def check_sidecar_failures(sidecar: dict, model_path, val: Images) -> list[str]:
    """Each failure is |σ(x·w + b) − label| and each prediction σ(x·w + b)."""
    w, b = read_model(model_path)
    row = {rec_id: i for i, rec_id in enumerate(val.ids)}
    idx = [row[cell["id"]] for _, _, cell in _cells(sidecar)]
    pred = logistic(val.matrix[idx] @ w + b)
    fail = np.abs(pred - val.labels[idx])
    got_pred = np.array([cell["prediction"] for _, _, cell in _cells(sidecar)])
    got_fail = np.array([cell["failure"] for _, _, cell in _cells(sidecar)])
    out = []
    if not _close(got_fail, fail, abs_=1e-12):
        bad = int(np.argmax(np.abs(got_fail - fail)))
        out.append(f"cell {bad}: failure {got_fail[bad]!r}, recomputed {fail[bad]!r}")
    if not _close(got_pred, pred, abs_=1e-12):
        out.append("predictions differ from σ(x·w + b)")
    return out


def check_grid_greedy(sidecar: dict, basis_path, val: Images) -> list[str]:
    """Each cell holds the nearest point not yet placed, for its lattice point.

    Lattice: cols x rows evenly spaced over the bounding box of the
    projections, top row at the largest y, visited in row-major order.
    """
    obj = json.loads(Path(basis_path).read_text(encoding="utf-8"))
    pts = (val.matrix - np.asarray(obj["mean"])) @ np.asarray(obj["components"])
    rows, cols = sidecar["rows"], sidecar["cols"]
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    tol = 1e-9 * float(np.sum((hi - lo) ** 2))
    row = {rec_id: i for i, rec_id in enumerate(val.ids)}
    free = np.ones(len(val.ids), dtype=bool)
    for r, c, cell in _cells(sidecar):
        x = lo[0] + (hi[0] - lo[0]) * (c / (cols - 1) if cols > 1 else 0.5)
        y = hi[1] - (hi[1] - lo[1]) * (r / (rows - 1) if rows > 1 else 0.5)
        d2 = (pts[:, 0] - x) ** 2 + (pts[:, 1] - y) ** 2
        pick = row[cell["id"]]
        if not free[pick] or d2[pick] > d2[free].min() + tol:
            return [f"cell {r},{c}: '{cell['id']}' is not the nearest unplaced point"]
        free[pick] = False
    return []


def colormap(correctness: np.ndarray) -> np.ndarray:
    """Piecewise-linear ramp through ANCHORS, rounded to nearest (ties to even)."""
    lo, mid, hi = (np.array(a) for a in ANCHORS)
    t = correctness[:, None]
    return np.rint(np.where(t <= 0.5, lo + (mid - lo) * (t / 0.5), mid + (hi - mid) * ((t - 0.5) / 0.5)))


def check_ppm(ppm_path, sidecar: dict, val: Images) -> list[str]:
    """Size rows·cell_px x cols·cell_px; every cell re-blended from its PGM matches."""
    data = Path(ppm_path).read_bytes()
    rows, cols = sidecar["rows"], sidecar["cols"]
    try:
        w, h, off = parse_netpbm(data, b"P6")
    except ValueError as exc:
        return [str(exc)]
    if (h, w) != (rows * CELL_PX, cols * CELL_PX) or len(data) != off + 3 * h * w:
        return [f"PPM is {w}x{h} with {len(data) - off} bytes, want {cols * CELL_PX}x{rows * CELL_PX}"]
    canvas = np.frombuffer(data, np.uint8, offset=off).reshape(h, w, 3)
    ih, iw = val.pixels.shape[1:]
    ri, ci = (np.arange(CELL_PX) * ih) // CELL_PX, (np.arange(CELL_PX) * iw) // CELL_PX
    row = {rec_id: i for i, rec_id in enumerate(val.ids)}
    cells = _cells(sidecar)
    tints = colormap(1.0 - np.array([cell["failure"] for _, _, cell in cells]))
    for (r, c, cell), tint in zip(cells, tints):
        gray = val.pixels[row[cell["id"]]][np.ix_(ri, ci)].astype(np.float64)
        want = np.clip(np.rint((1.0 - ALPHA) * gray[:, :, None] + ALPHA * tint), 0, 255)
        got = canvas[r * CELL_PX:(r + 1) * CELL_PX, c * CELL_PX:(c + 1) * CELL_PX]
        if not np.array_equal(got, want.astype(np.uint8)):
            return [f"cell {r},{c} differs from the blend of its image and tint"]
    return []


# ---------------------------------------------------------------- remediation runs


@dataclass
class Corpus:
    """One master seed's inputs as handed to the loop, as arrays."""

    train_ids: list[str]
    val_ids: list[str]
    val_x: np.ndarray
    val_y: np.ndarray
    val_groups: list[str]
    pool_ids: list[str]
    pool_x: np.ndarray


def read_run(run_dir) -> list[dict]:
    """Per iteration: the summary line plus its metrics, model and matchset files."""
    run_dir = Path(run_dir)
    lines = (run_dir / "summary.jsonl").read_text(encoding="utf-8").splitlines()
    its = []
    for line in lines:
        summ = json.loads(line)
        it_dir = run_dir / f"iter-{summ['iteration']}"
        match_path = it_dir / "matchset.json"
        its.append({
            "summary": summ,
            "metrics": json.loads((it_dir / "metrics.json").read_text(encoding="utf-8")),
            "model": read_model(it_dir / "model.json"),
            "matchset": json.loads(match_path.read_text(encoding="utf-8")) if match_path.exists() else None,
        })
    return its


def group_accuracies(corpus: Corpus, model) -> tuple[float, dict[str, float], dict[str, int]]:
    w, b = model
    hits = ((corpus.val_x @ w + b) >= 0) == (corpus.val_y == 1)
    groups = np.asarray(corpus.val_groups)
    names = sorted(set(corpus.val_groups))
    return (float(hits.mean()), {g: float(hits[groups == g].mean()) for g in names},
            {g: int(np.sum(groups == g)) for g in names})


def check_accuracies(its: list[dict], corpus: Corpus) -> list[str]:
    """Accuracies in metrics.json and summary.jsonl equal sign(X·w + b) vs labels,
    and overall accuracy is the size-weighted mean of the group accuracies."""
    out = []
    for it in its:
        t = it["summary"]["iteration"]
        acc, groups, sizes = group_accuracies(corpus, it["model"])
        for src in ("summary", "metrics"):
            rec = it[src]
            if not _close(rec["val_accuracy"], acc, abs_=1e-12) or rec["group_accuracies"].keys() != groups.keys() \
                    or not _close(list(rec["group_accuracies"].values()), list(groups.values()), abs_=1e-12):
                out.append(f"iter {t}: {src} accuracies {rec['val_accuracy']}, {rec['group_accuracies']} "
                           f"!= recomputed {acc}, {groups}")
        reported = it["metrics"]["group_accuracies"]
        weighted = sum(sizes[g] * reported.get(g, math.nan) for g in sizes) / len(corpus.val_ids)
        if not _close(it["metrics"]["val_accuracy"], weighted, abs_=1e-12):
            out.append(f"iter {t}: overall accuracy is not the size-weighted group mean")
    return out


def check_growth(its: list[dict], corpus: Corpus) -> list[str]:
    """No validation id is added; each step adds exactly the new matched pool ids."""
    out = []
    val, pool = set(corpus.val_ids), set(corpus.pool_ids)
    have = set(corpus.train_ids)
    if its[0]["summary"]["train_size"] != len(have):
        out.append(f"iter 0: train_size {its[0]['summary']['train_size']}, want {len(have)}")
    for prev, it in zip(its, its[1:]):
        t = it["summary"]["iteration"]
        matched = it["matchset"]["matched_pool_ids"]
        if val.intersection(matched) or not pool.issuperset(matched):
            out.append(f"iter {t}: matched ids outside the pool (validation leak)")
        new = set(matched) - have
        have |= new
        for src in ("summary", "metrics"):
            step = it[src]["train_size"] - prev[src]["train_size"]
            if step != len(new):
                out.append(f"iter {t}: {src} train_size grew by {step}, {len(new)} new pool ids matched")
    return out


def check_matches(its: list[dict], corpus: Corpus, m: int) -> list[str]:
    """Targeted matches are the m nearest pool points under the Gram-matrix PCA.

    Distances are sign-invariant, so the snapshot basis may differ in sign
    from the program's. Each triple's distance is reproduced, and no pool
    point is strictly closer than the m-th neighbour returned.
    """
    mean, v, _ = gram_pca(corpus.val_x)
    val_p = (corpus.val_x - mean) @ v
    pool_p = (corpus.pool_x - mean) @ v
    scale = float(np.ptp(pool_p, axis=0).max())
    tol = 1e-7 * scale
    vrow = {rec_id: i for i, rec_id in enumerate(corpus.val_ids)}
    prow = {rec_id: i for i, rec_id in enumerate(corpus.pool_ids)}
    out = []
    for it in its[1:]:
        ms, t = it["matchset"], it["summary"]["iteration"]
        triples = ms["matches"]
        if len(triples) != m * len(ms["sampled_val_ids"]):
            out.append(f"iter {t}: {len(triples)} triples for {len(ms['sampled_val_ids'])} draws")
            continue
        for i, vid in enumerate(ms["sampled_val_ids"]):
            chunk = triples[i * m:(i + 1) * m]
            if any(tv != vid or tp not in prow for tv, tp, _ in chunk):
                out.append(f"iter {t}: draw {i} ('{vid}') has a triple for another query or a non-pool id")
                break
            d = np.linalg.norm(pool_p - val_p[vrow[vid]], axis=1)
            got = np.array([td for _, _, td in chunk])
            mine = d[[prow[tp] for _, tp, _ in chunk]]
            others = np.delete(d, [prow[tp] for _, tp, _ in chunk])
            if not _close(got, mine, rel=1e-6, abs_=tol) or others.min() < got.max() - tol:
                out.append(f"iter {t}: draw {i} ('{vid}') is not matched to its {m} nearest pool points")
                break
        seen = list(dict.fromkeys(tp for _, tp, _ in triples))
        if ms["matched_pool_ids"] != seen:
            out.append(f"iter {t}: matched_pool_ids is not the first-seen union of the triples")
    return out


def check_failure_sampling(its: list[dict], corpus: Corpus) -> list[str]:
    """Failure mode samples only ids whose failure score under the previous model is above 0."""
    row = {rec_id: i for i, rec_id in enumerate(corpus.val_ids)}
    out = []
    for prev, it in zip(its, its[1:]):
        w, b = prev["model"]
        fail = np.abs(logistic(corpus.val_x @ w + b) - corpus.val_y)
        sampled = [row[v] for v in it["matchset"]["sampled_val_ids"]]
        if it["matchset"]["mode"] == "failure" and np.any(fail[sampled] <= 0.0):
            out.append(f"iter {it['summary']['iteration']}: sampled an id with failure score 0")
    return out


def check_plateau(its: list[dict], max_iterations: int, min_delta: float, patience: int) -> list[str]:
    """The run stops where the plateau rule on the summary accuracies stops it."""
    accs = [it["summary"]["val_accuracy"] for it in its]
    best, flat, stop = accs[0], 0, max_iterations
    for t in range(1, min(len(accs), max_iterations + 1)):
        flat = flat + 1 if accs[t] - best < min_delta else 0
        best = max(best, accs[t])
        if flat >= patience:
            stop = t
            break
    if len(accs) - 1 != stop:
        return [f"run stopped after {len(accs) - 1} iterations; the plateau rule stops at {stop}"]
    return []


def check_random_draws(its: list[dict], corpus: Corpus, budget: int) -> list[str]:
    """The control arm adds distinct pool ids, at most k·m per iteration, with no draws from validation."""
    out = []
    pool = set(corpus.pool_ids)
    for it in its[1:]:
        ids, t = it["matchset"]["matched_pool_ids"], it["summary"]["iteration"]
        if len(set(ids)) != len(ids) or len(ids) > budget or not pool.issuperset(ids) \
                or it["matchset"]["sampled_val_ids"]:
            out.append(f"iter {t}: {len(ids)} ids ({len(set(ids))} distinct, budget {budget})")
    return out
