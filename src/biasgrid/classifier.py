"""The reference classifier: training, fine-tuning, scoring, model files.

RefModel, logistic regression on raw pixels, is the one classifier: the
loop, the train subcommand and visualize all score, train and fine-tune
with it. Its score is a deterministic sigmoid in [0, 1] per image. It is
trained from scratch or fine-tuned from existing parameters by mini-batch
gradient descent on binary cross-entropy with an L2 penalty, with
accuracy-plateau early stopping on a stop split carved from
the training data (the bias-measurement validation set is never used for
stopping). A training call also ends as soon as the best stop-split
accuracy plus early_stop_min_delta reaches 1.0, because no later epoch
could then be kept.

Training reads the dataset's uint8 levels and sees the floats
levels / 255.0. It copies only the stop split out as floats. The fit rows
reach the gradient steps in blocks of BLOCK_BATCHES batches: one helper
thread gathers a block's levels by row index and divides them into one of
two reused float buffers, while the calling thread runs the steps on the
other buffer's block. The next block is always queued: when the steps
ask for block j + 1, block j + 2 is queued into block j's buffer, across
epoch boundaries, and an epoch's shuffle is drawn when its first block is
queued. The two overlap because numpy releases the GIL in BLAS products
and in ufunc loops over large arrays. Each batch is still a C-contiguous
row slice holding the same rows in the same order, so every parameter is
the one a step-by-step gather would give. The thread starts with the
first epoch and is joined before the call returns or raises. Each epoch
records the stop split's loss and accuracy; no pass over the whole fit
split is made beyond the gradient steps themselves.
"""

from __future__ import annotations

import json
import queue
import threading
from collections import deque
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import Dataset
from .errors import DataError
from .seeding import make_rng

# Batches per block handed between the helper thread and the gradient steps.
BLOCK_BATCHES = 4


@dataclass(frozen=True)
class TrainHyper:
    """Optimization settings for train/fine_tune.

    val_fraction is carved out of the *training* data as the early-stop
    signal. full_batch replaces mini-batches with one full gradient step
    per epoch (no shuffling), which makes the loss on the rest of the
    training data (the fit split) non-increasing per epoch at small enough
    learning rates.
    """

    learning_rate: float = 0.05
    max_epochs: int = 200
    batch_size: int = 32
    l2: float = 1e-4
    early_stop_patience: int = 25
    early_stop_min_delta: float = 0.0
    seed: int = 0
    val_fraction: float = 0.1
    full_batch: bool = False

    def validate(self) -> None:
        if self.learning_rate < 0.0:
            raise DataError("learning_rate must be >= 0")
        if self.max_epochs < 0:
            raise DataError("max_epochs must be >= 0")
        if self.batch_size < 1:
            raise DataError("batch_size must be >= 1")
        if self.l2 < 0.0:
            raise DataError("l2 must be >= 0")
        if self.early_stop_patience < 1:
            raise DataError("early_stop_patience must be >= 1")
        if self.early_stop_min_delta < 0.0:
            raise DataError("early_stop_min_delta must be >= 0")
        if not 0.0 < self.val_fraction < 1.0:
            raise DataError("val_fraction must be strictly inside (0, 1)")


@dataclass
class RefModel:
    """Logistic regression on flattened pixels: score = sigmoid(w . x + b)."""

    weights: np.ndarray  # (P,)
    bias: float
    trained_epochs: int = 0
    best_epoch: int = 0  # epoch whose parameters were kept; 0 = the starting ones
    history: list[tuple[float, float]] = field(default_factory=list)  # per epoch: (stop_loss, stop_acc)


def sigmoid(z):
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def predict_dataset(model: RefModel, dataset: Dataset) -> np.ndarray:
    """Scores aligned with dataset record order, computed one row block of
    levels / 255.0 at a time (Dataset.float_rows), so no N x P float array
    is built."""
    pixels = dataset.height * dataset.width
    if pixels != model.weights.shape[0]:
        raise DataError(f"dimension mismatch: data has {pixels} pixels, model expects {model.weights.shape[0]}")
    scores = np.empty(len(dataset))
    for start, rows in dataset.float_rows():
        scores[start : start + len(rows)] = sigmoid(rows @ model.weights + model.bias)
    return scores


def loss_value(weights: np.ndarray, bias: float, mat: np.ndarray, labels: np.ndarray, l2: float) -> float:
    """Mean binary cross-entropy plus l2 * ||w||^2 / 2 (bias unpenalized)."""
    return _loss_from_logits(mat @ weights + bias, labels, weights, l2)


def _loss_from_logits(z: np.ndarray, labels: np.ndarray, weights: np.ndarray, l2: float) -> float:
    """loss_value given the logits z = mat @ weights + bias."""
    # log(1 + e^z) - y*z, computed without overflow
    bce = np.mean(np.logaddexp(0.0, z) - labels * z)
    return float(bce + 0.5 * l2 * float(weights @ weights))


def loss_gradient(
    weights: np.ndarray, bias: float, mat: np.ndarray, labels: np.ndarray, l2: float
) -> tuple[np.ndarray, float]:
    """Analytic gradient of loss_value w.r.t. (weights, bias)."""
    resid = sigmoid(mat @ weights + bias) - labels
    grad_w = mat.T @ resid / mat.shape[0] + l2 * weights
    grad_b = float(np.mean(resid))
    return grad_w, grad_b


def accuracy_from_scores(scores: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of scores on the right side of 0.5 (score >= 0.5 predicts label 1)."""
    return float(np.mean((scores >= 0.5) == (labels == 1)))


def _blocks(fit_idx: np.ndarray, size: int, hyper: TrainHyper, rng):
    """Every epoch's fit rows in training order, as (rows, last in epoch)
    blocks of `size` rows. An epoch's shuffle is drawn from rng when its
    first block is asked for."""
    n_fit = fit_idx.shape[0]
    for _ in range(hyper.max_epochs):
        rows = fit_idx if hyper.full_batch else fit_idx[rng.permutation(n_fit)]
        for start in range(0, n_fit, size):
            yield rows[start : start + size], start + size >= n_fit


def _divide(levels: np.ndarray, requests: queue.SimpleQueue, done: queue.SimpleQueue) -> None:
    """Helper thread: divide each requested block's levels into its buffer,
    in request order, and report each as done (None) or its error, which
    the caller raises, until None is requested."""
    while (job := requests.get()) is not None:
        rows, buf = job
        try:
            np.divide(levels[rows], 255.0, out=buf[: len(rows)])
        except BaseException as exc:
            done.put(exc)
        else:
            done.put(None)


def _divided_blocks(levels: np.ndarray, labels: np.ndarray, blocks, size: int):
    """Yield (x, y, last in epoch) per block, x = levels[rows] / 255.0.

    The helper thread starts at the first next() and divides a block ahead
    into the other of two buffers; the buffer of a yielded block is queued
    for the block two further on when the next one is asked for. Closing
    the generator joins the thread.
    """
    buffers = np.empty((2, size, levels.shape[1]))
    requests: queue.SimpleQueue = queue.SimpleQueue()
    done: queue.SimpleQueue = queue.SimpleQueue()
    queued: deque = deque()

    def request(buf: np.ndarray) -> None:
        block = next(blocks, None)
        if block is not None:
            requests.put((block[0], buf))
            queued.append((*block, buf))

    helper = threading.Thread(target=_divide, args=(levels, requests, done), name="biasgrid-divide", daemon=True)
    helper.start()
    try:
        for buf in buffers:
            request(buf)
        while queued:
            rows, last, buf = queued.popleft()
            error = done.get()
            if error is not None:
                raise error
            yield buf[: len(rows)], labels[rows], last
            request(buf)
    finally:
        requests.put(None)
        helper.join()


def _optimize(w0: np.ndarray, b0: float, dataset: Dataset, hyper: TrainHyper) -> RefModel:
    hyper.validate()
    labels = dataset.labels()
    if len(np.unique(labels)) < 2:
        raise DataError("training data must contain both labels")
    levels = dataset.levels()
    n = levels.shape[0]

    rng = make_rng(hyper.seed)
    perm = rng.permutation(n)
    n_stop = min(n - 1, max(1, int(round(hyper.val_fraction * n))))
    stop_idx, fit_idx = perm[:n_stop], perm[n_stop:]
    stop_x, stop_y = levels[stop_idx] / 255.0, labels[stop_idx]
    n_fit = fit_idx.shape[0]
    step = n_fit if hyper.full_batch else hyper.batch_size
    # A block is BLOCK_BATCHES whole batches, or a whole epoch. Its rows are
    # gathered from the dataset's levels by index; no copy of the fit split
    # is kept across blocks or calls.
    size = min(BLOCK_BATCHES * step, n_fit)
    stream = _divided_blocks(levels, labels, _blocks(fit_idx, size, hyper, rng), size)

    w = w0.astype(np.float64).copy()
    b = float(b0)
    best_acc = accuracy_from_scores(sigmoid(stop_x @ w + b), stop_y)
    best_w, best_b, best_epoch = w.copy(), b, 0
    history: list[tuple[float, float]] = []
    bad_epochs = 0

    with closing(stream):
        for epoch in range(1, hyper.max_epochs + 1):
            # A stop accuracy never exceeds 1.0, so from here the improvement
            # test below cannot pass again. Valid only for that accuracy rule.
            if best_acc + hyper.early_stop_min_delta >= 1.0:
                break
            # breaking out of this loop leaves the stream open at the next epoch
            for x, y, last in stream:
                for i in range(0, len(y), step):
                    grad_w, grad_b = loss_gradient(w, b, x[i : i + step], y[i : i + step], hyper.l2)
                    w -= hyper.learning_rate * grad_w
                    b -= hyper.learning_rate * grad_b
                if last:
                    break
            stop_z = stop_x @ w + b
            stop_acc = accuracy_from_scores(sigmoid(stop_z), stop_y)
            history.append((_loss_from_logits(stop_z, stop_y, w, hyper.l2), stop_acc))
            if stop_acc > best_acc + hyper.early_stop_min_delta:
                best_acc = stop_acc
                best_w, best_b, best_epoch = w.copy(), b, epoch
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= hyper.early_stop_patience:
                    break
    return RefModel(
        weights=best_w, bias=best_b, trained_epochs=len(history), best_epoch=best_epoch, history=history
    )


def train(dataset: Dataset, hyper: TrainHyper) -> RefModel:
    """Train from scratch: zero bias, seeded uniform +-1e-3 weights.

    Stops when stop-split accuracy has not improved by more than
    early_stop_min_delta for early_stop_patience consecutive epochs, when
    the best accuracy plus early_stop_min_delta reaches 1.0 (no epoch could
    improve on it), or at max_epochs; returns the parameters from the best
    stop-split epoch seen (the initial parameters count as a candidate, as
    best_epoch 0).
    """
    p = dataset.height * dataset.width
    init_rng = make_rng(hyper.seed)
    w0 = init_rng.uniform(-1e-3, 1e-3, size=p)
    return _optimize(w0, 0.0, dataset, hyper)


def fine_tune(model: RefModel, dataset: Dataset, hyper: TrainHyper) -> RefModel:
    """Continue training from the given model's parameters."""
    p = dataset.height * dataset.width
    if model.weights.shape[0] != p:
        raise DataError(
            f"dimension mismatch: model expects {model.weights.shape[0]} pixels, data has {p}"
        )
    return _optimize(model.weights, model.bias, dataset, hyper)


def save_model(model: RefModel, path) -> None:
    obj = {
        "format": "ref-model",
        "version": 1,
        "dim": int(model.weights.shape[0]),
        "weights": model.weights.tolist(),
        "bias": model.bias,
        "trained_epochs": model.trained_epochs,
        "best_epoch": model.best_epoch,
        "history": [[loss, acc] for loss, acc in model.history],
    }
    Path(path).write_text(json.dumps(obj), encoding="utf-8")


def load_model(path) -> RefModel:
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read model {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not a valid model file: {exc.msg}") from exc
    if not isinstance(obj, dict) or obj.get("format") != "ref-model" or obj.get("version") != 1:
        raise DataError(f"{path}: not a version-1 ref-model file")
    missing = [key for key in ("dim", "weights", "bias", "trained_epochs", "history") if key not in obj]
    if missing:
        raise DataError(f"{path}: model file lacks key '{missing[0]}'")
    try:
        model = RefModel(
            weights=np.asarray(obj["weights"], dtype=np.float64),
            bias=float(obj["bias"]),
            trained_epochs=int(obj["trained_epochs"]),
            best_epoch=int(obj.get("best_epoch", 0)),
            history=[(float(l), float(a)) for l, a in obj["history"]],
        )
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed model file: {exc}") from exc
    if model.weights.ndim != 1 or model.weights.shape[0] != obj["dim"]:
        raise DataError(f"{path}: weight count does not match declared dim")
    if not all(np.isfinite(a).all() for a in (model.weights, model.bias, model.history)):
        raise DataError(f"{path}: model file holds a non-finite number")
    return model
