"""A fixed reference computation that measures how fast the machine runs now.

The measuring machine is a few cores of a shared host, and its speed
drifts by 20% and more over tens of seconds with the host's other load;
the drift shows in CPU time as much as in wall time. The benchmark runs
this computation after every operation of a round and reports the round's
wall time in units of it (see README). It uses numpy only, never the
program, so a change to the program does not change it.

It mixes the kinds of work the program does: mini-batch logistic-regression
steps over a matrix larger than the caches (row gathers, matrix-vector
products and Python-level loop overhead, like classifier training), and a
thin SVD (LAPACK, like pca.fit).
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(20240601)
_X = _RNG.random((1024, 4096))
_Y = (_RNG.random(1024) > 0.5).astype(np.float64)
_WIDE = _RNG.random((192, 3072))


def unit() -> float:
    """Run the reference computation once; its wall time in seconds."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    w, b = np.zeros(_X.shape[1]), 0.0
    for _ in range(16):
        order = rng.permutation(len(_X))
        for i in range(0, len(order), 32):
            idx = order[i:i + 32]
            xb = _X[idx]
            err = 1.0 / (1.0 + np.exp(-(xb @ w + b))) - _Y[idx]
            w -= 0.01 * (xb.T @ err) / len(idx)
            b -= 0.01 * float(err.mean())
    np.linalg.svd(_WIDE, full_matrices=False)
    return time.perf_counter() - start
