"""Independent reference implementations used to check the package.

Everything here is deliberately written a different way than the code under
test: the SVD is a hand-rolled one-sided Jacobi instead of LAPACK, the grid
assignment is literal python loops instead of vectorized argmin, neighbor
search sorts (distance, index) pairs, gradients come from central finite
differences of the loss value, and the grid render paints pixel by pixel in
python floats. There are three exceptions. reference_optimize is the training
loop as it was before the ceiling exit, on its own copy of the fit split,
kept so that the exit and the batches gathered by row index can be shown
to leave every kept parameter byte-equal. reference_from_records is
the per-record validation loop Dataset.from_records ran before a dataset
became one matrix, kept unchanged so that the whole-matrix checks can be
shown to raise the same error for the same first bad record.
reference_make_grid is make_grid's per-cell loop as it was before the
squared offsets were computed once per call, kept so that the same cells
can be shown to be filled.
"""

import math

import numpy as np

from biasgrid.classifier import RefModel, accuracy_from_scores, loss_gradient, loss_value, sigmoid
from biasgrid.errors import DataError
from biasgrid.seeding import make_rng


def sign_normalize(columns: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    out = np.array(columns, dtype=np.float64)
    for j in range(out.shape[1]):
        col = out[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            out[:, j] = -col
    return out


def jacobi_svd(mat, tol=1e-14, max_sweeps=60):
    """Singular values and right singular vectors by one-sided Jacobi.

    Column pairs of a working copy are rotated until all pairs are
    orthogonal; each rotation is accumulated into V. Column norms are then
    the singular values, returned in descending order with V's columns
    permuted to match. Converges to machine precision for any small dense
    matrix, independent of LAPACK.
    """
    a = np.array(mat, dtype=np.float64)
    p = a.shape[1]
    v = np.eye(p)
    for _ in range(max_sweeps):
        worst = 0.0
        for i in range(p - 1):
            for j in range(i + 1, p):
                aii = float(a[:, i] @ a[:, i])
                ajj = float(a[:, j] @ a[:, j])
                aij = float(a[:, i] @ a[:, j])
                # sqrt before multiplying: the product of two tiny norms can
                # underflow to zero on rank-deficient inputs
                denom = math.sqrt(aii) * math.sqrt(ajj)
                if denom == 0.0:
                    continue
                worst = max(worst, abs(aij) / denom)
                if abs(aij) <= tol * denom:
                    continue
                tau = (ajj - aii) / (2.0 * aij)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                rot = np.array([[c, s], [-s, c]])
                a[:, [i, j]] = a[:, [i, j]] @ rot
                v[:, [i, j]] = v[:, [i, j]] @ rot
        if worst <= tol:
            break
    norms = np.sqrt(np.sum(a * a, axis=0))
    order = np.argsort(-norms, kind="stable")
    return norms[order], v[:, order]


def pca_oracle(mat):
    """Top-2 PCA of an N x P matrix: (mean, singular values, P x 2 basis).

    Jacobi runs on whichever of the centred matrix C and its transpose has
    fewer columns. Centring leaves C with rank at most N - 1, so on a wide C
    (P > N) at least P - N + 1 columns shrink to rounding noise whose
    pairwise cosines never settle, and the sweeps over all P(P-1)/2 pairs
    keep going far past the point where the leading vectors have converged.
    On C^T the rotations accumulate the left singular vectors U instead, and
    the right ones follow from one product, V = C^T U / s.
    """
    mat = np.asarray(mat, dtype=np.float64)
    mean = mat.mean(axis=0)
    centred = mat - mean
    if centred.shape[1] <= centred.shape[0]:
        svals, v = jacobi_svd(centred)
    else:
        svals, u = jacobi_svd(centred.T)
        assert np.all(svals[:2] > 0.0), f"zero singular value in the top two: {svals[:2]}"
        v = centred.T @ u[:, :2] / svals[:2]
    return mean, svals[:2], sign_normalize(v[:, :2])


def brute_force_grid(coords, rows, cols, ids):
    """Literal greedy grid assignment with python loops.

    Lattice points are visited row-major with the top row at maximum y;
    each takes the closest image not yet used, squared-distance ties going
    to the lowest index.
    """
    pts = np.asarray(coords, dtype=np.float64)
    n = pts.shape[0]
    min_x, max_x = float(pts[:, 0].min()), float(pts[:, 0].max())
    min_y, max_y = float(pts[:, 1].min()), float(pts[:, 1].max())
    xs = np.linspace(min_x, max_x, cols) if cols > 1 else [(min_x + max_x) / 2.0]
    ys = np.linspace(max_y, min_y, rows) if rows > 1 else [(min_y + max_y) / 2.0]

    cells = [[None] * cols for _ in range(rows)]
    used = [False] * n
    remaining = n
    for r in range(rows):
        for c in range(cols):
            if remaining == 0:
                return cells
            best, best_d2 = None, None
            for idx in range(n):
                if used[idx]:
                    continue
                dx = pts[idx, 0] - xs[c]
                dy = pts[idx, 1] - ys[r]
                d2 = dx * dx + dy * dy
                if best_d2 is None or d2 < best_d2:
                    best, best_d2 = idx, d2
            cells[r][c] = ids[best]
            used[best] = True
            remaining -= 1
    return cells


def reference_make_grid(coords, rows, cols, ids):
    """make_grid's cells as its per-cell loop computed them: each cell
    subtracts its lattice point from every image and squares both offsets."""
    pts = np.asarray(coords, dtype=np.float64)
    n = pts.shape[0]
    min_x, max_x = float(pts[:, 0].min()), float(pts[:, 0].max())
    min_y, max_y = float(pts[:, 1].min()), float(pts[:, 1].max())
    xs = np.linspace(min_x, max_x, cols) if cols > 1 else np.array([(min_x + max_x) / 2.0])
    ys = np.linspace(max_y, min_y, rows) if rows > 1 else np.array([(min_y + max_y) / 2.0])

    cells = [[None] * cols for _ in range(rows)]
    taken = np.zeros(n, dtype=bool)
    n_assigned = 0
    for r in range(rows):
        if n_assigned == n:
            break
        for c in range(cols):
            if n_assigned == n:
                break
            diff = pts - (xs[c], ys[r])  # lattice point (r, c)
            dist2 = diff[:, 0] ** 2 + diff[:, 1] ** 2
            dist2[taken] = np.inf
            pick = int(np.argmin(dist2))  # first minimum = lowest index on ties
            cells[r][c] = ids[pick]
            taken[pick] = True
            n_assigned += 1
    return cells


def brute_force_neighbors(query, pool_coords, m):
    """Indices of the m nearest pool points, ties to the lower index."""
    ranked = []
    for idx, (x, y) in enumerate(np.asarray(pool_coords, dtype=np.float64)):
        dx, dy = x - query[0], y - query[1]
        ranked.append((math.sqrt(dx * dx + dy * dy), idx))
    ranked.sort()
    return [idx for _, idx in ranked[:m]]


def central_diff_grad(loss_fn, weights, bias, eps=1e-6):
    """Central finite differences of loss_fn(weights, bias) in every direction."""
    weights = np.asarray(weights, dtype=np.float64)
    grad_w = np.zeros_like(weights)
    for i in range(weights.shape[0]):
        up, down = weights.copy(), weights.copy()
        up[i] += eps
        down[i] -= eps
        grad_w[i] = (loss_fn(up, bias) - loss_fn(down, bias)) / (2.0 * eps)
    grad_b = (loss_fn(weights, bias + eps) - loss_fn(weights, bias - eps)) / (2.0 * eps)
    return grad_w, grad_b


def per_pixel_render(cells, images, failures, cell_px, alpha, anchors, empty_rgb):
    """Literal saliency render: rows*cell_px x cols*cell_px x 3 uint8.

    cells is rows x cols of image ids or None; images maps id -> H x W array
    in [0, 1]; failures maps id -> failure score; anchors are the three
    (position, rgb) stops of the correctness ramp at 0, 0.5 and 1. Each
    cell pixel takes its nearest-neighbor source pixel as gray =
    round(255 v), blends it with the cell's tint as (1 - alpha) gray +
    alpha tint, and rounds half to even.
    """
    (_, lo), (_, mid), (_, hi) = anchors
    rows, cols = len(cells), len(cells[0])
    out = np.zeros((rows * cell_px, cols * cell_px, 3), dtype=np.uint8)
    for r in range(rows):
        for c in range(cols):
            rec_id = cells[r][c]
            if rec_id is None:
                out[r * cell_px : (r + 1) * cell_px, c * cell_px : (c + 1) * cell_px] = empty_rgb
                continue
            t = 1.0 - float(failures[rec_id])
            if t <= 0.5:
                tint = [float(round(a + (b - a) * (t / 0.5))) for a, b in zip(lo, mid)]
            else:
                tint = [float(round(a + (b - a) * ((t - 0.5) / 0.5))) for a, b in zip(mid, hi)]
            img = images[rec_id]
            h, w = len(img), len(img[0])
            for y in range(cell_px):
                for x in range(cell_px):
                    gray = float(round(float(img[y * h // cell_px][x * w // cell_px]) * 255.0))
                    for ch in range(3):
                        value = round((1.0 - alpha) * gray + alpha * tint[ch])
                        out[r * cell_px + y, c * cell_px + x, ch] = min(max(value, 0), 255)
    return out


def reference_optimize(w0, b0, dataset, hyper):
    """The mini-batch training loop as it ran before the ceiling exit.

    `classifier._optimize` as it was before the exit that ends the loop
    once no epoch can beat the best stop-split accuracy, so it always runs
    until patience or max_epochs. It also records the epoch it keeps (0 =
    the starting parameters). It copies the fit split into its own matrix
    and takes each batch from that copy, where `_optimize` gathers batches
    from the dataset matrix by row index. Its history holds (stop-split
    loss, stop-split accuracy) per epoch, as `_optimize` records it.
    Returns (model, best stop-split accuracy, per-epoch fit-split losses).
    """
    hyper.validate()
    labels = dataset.labels()
    mat = dataset.matrix()
    n = mat.shape[0]

    rng = make_rng(hyper.seed)
    perm = rng.permutation(n)
    n_stop = min(n - 1, max(1, int(round(hyper.val_fraction * n))))
    stop_idx, fit_idx = perm[:n_stop], perm[n_stop:]
    stop_x, stop_y = mat[stop_idx], labels[stop_idx]
    fit_x, fit_y = mat[fit_idx], labels[fit_idx]
    n_fit = fit_x.shape[0]

    w = w0.astype(np.float64).copy()
    b = float(b0)
    best_acc = accuracy_from_scores(sigmoid(stop_x @ w + b), stop_y)
    best_w, best_b, best_epoch = w.copy(), b, 0
    history = []
    fit_losses = []
    bad_epochs = 0

    for epoch in range(1, hyper.max_epochs + 1):
        if hyper.full_batch:
            batches = [np.arange(n_fit)]
        else:
            order = rng.permutation(n_fit)
            batches = [order[i : i + hyper.batch_size] for i in range(0, n_fit, hyper.batch_size)]
        for batch in batches:
            grad_w, grad_b = loss_gradient(w, b, fit_x[batch], fit_y[batch], hyper.l2)
            w -= hyper.learning_rate * grad_w
            b -= hyper.learning_rate * grad_b
        fit_losses.append(loss_value(w, b, fit_x, fit_y, hyper.l2))
        stop_acc = accuracy_from_scores(sigmoid(stop_x @ w + b), stop_y)
        history.append((loss_value(w, b, stop_x, stop_y, hyper.l2), stop_acc))
        if stop_acc > best_acc + hyper.early_stop_min_delta:
            best_acc = stop_acc
            best_w, best_b, best_epoch = w.copy(), b, epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= hyper.early_stop_patience:
                break
    model = RefModel(
        weights=best_w, bias=best_b, trained_epochs=len(history), best_epoch=best_epoch, history=history
    )
    return model, best_acc, fit_losses


def reference_from_records(records):
    """Check records one at a time, in order; raise the first bad one's
    DataError. Returns None when every record passes."""
    if not records:
        raise DataError("dataset must be non-empty")
    h, w = records[0].pixels.shape
    by_id = {}
    for rec in records:
        if rec.pixels.shape != (h, w):
            raise DataError(
                f"dimension mismatch for id '{rec.id}': "
                f"{rec.pixels.shape[0]}x{rec.pixels.shape[1]} vs expected {h}x{w}"
            )
        if rec.id in by_id:
            raise DataError(f"duplicate id '{rec.id}'")
        if rec.label not in (0, 1):
            raise DataError(f"id '{rec.id}': label must be 0 or 1, got {rec.label!r}")
        if not np.all(np.isfinite(rec.pixels)):
            raise DataError(f"id '{rec.id}': non-finite pixel value")
        if rec.pixels.min() < 0.0 or rec.pixels.max() > 1.0:
            raise DataError(f"id '{rec.id}': pixel value outside [0, 1]")
        by_id[rec.id] = rec
