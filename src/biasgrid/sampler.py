"""Failure-driven sampling and pool matching in projection space.

make_weights turns per-image failure scores into a categorical
distribution over validation positions. Two modes exist: "failure" (the
default) weights images toward HIGH failure, w_i proportional to C_i, so
the hardest validation images are drawn most often; "success" weights
toward LOW failure, w_i proportional to 1 - C_i. Both are kept so the run
summary can record which one actually remediates; see the loop module.

sample draws validation positions by inverse-CDF with replacement over
the ordered weights. match_pool finds, for each sampled position, the m
nearest augmentation-pool images by Euclidean distance in the 2-D
projection space, then deduplicates the union preserving first-seen order.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError
from .saliency import FailureScores
from .seeding import make_rng

WEIGHT_MODES = ("failure", "success")


@dataclass
class MatchSet:
    """Audit record of one sampling round.

    matches holds one (val_id, pool_id, distance) triple per neighbor
    before deduplication; matched_pool_ids is the deduplicated union in
    first-seen order.
    """

    sampled_val_ids: list[str]
    matched_pool_ids: list[str]
    matches: list[tuple[str, str, float]] = field(default_factory=list)
    mode: str = "failure"
    seed: int = 0


def make_weights(failures: FailureScores, mode: str = "failure") -> np.ndarray:
    """Normalize failure scores into a categorical distribution, one weight
    per position of failures, summing to 1.

    When the normalizer is zero (all scores 0 in failure mode, all scores
    1 in success mode) the distribution falls back to uniform and a
    RuntimeWarning is emitted.
    """
    if mode not in WEIGHT_MODES:
        raise DataError(f"unknown weight mode '{mode}' (expected one of {WEIGHT_MODES})")
    scores = failures.scores
    if len(scores) == 0:
        raise DataError("cannot build sample weights from an empty score set")
    raw = scores if mode == "failure" else 1.0 - scores
    total = float(raw.sum())
    if total <= 0.0:
        warnings.warn(
            f"all {mode}-mode weights are zero; falling back to uniform sampling",
            RuntimeWarning,
            stacklevel=2,
        )
        return np.full(len(scores), 1.0 / len(scores))
    return raw / total


def sample(weights: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Draw k positions with replacement by inverse-CDF over the ordered
    weights. A zero-weight position is never drawn, and weights without a
    positive entry are refused."""
    if k < 1:
        raise DataError("k must be at least 1")
    positive = np.flatnonzero(weights > 0)
    if len(positive) == 0:
        raise DataError("sample weights hold no positive entry")
    cdf = np.cumsum(weights)
    # The cdf reaches 1 at the last positive weight, so a draw just below 1
    # lands there, never on a zero-weight position after it that round-off
    # at the top would otherwise open up.
    cdf[positive[-1] :] = 1.0
    return np.searchsorted(cdf, make_rng(seed).random(k), side="right")


def match_pool(
    positions: Sequence[int],
    val_ids: Sequence[str],
    val_coords: np.ndarray,
    pool_ids: Sequence[str],
    pool_coords: np.ndarray,
    m: int,
) -> MatchSet:
    """For each sampled validation position, the m nearest pool images.

    A position indexes val_ids and the rows of val_coords. Distances are
    Euclidean in the shared projection space; ties go to the lower pool
    index. The returned matched_pool_ids are deduplicated preserving the
    order in which they were first selected.
    """
    if m < 1:
        raise DataError("m must be at least 1")
    pool_coords = np.asarray(pool_coords, dtype=np.float64)
    val_coords = np.asarray(val_coords, dtype=np.float64)
    if pool_coords.shape[0] == 0:
        raise DataError("cannot match against an empty pool")
    if pool_coords.shape[0] != len(pool_ids) or val_coords.shape[0] != len(val_ids):
        raise DataError("coordinate rows must align with their id lists")
    outside = [p for p in positions if not 0 <= p < len(val_ids)]
    if outside:
        raise DataError(f"sampled position {outside[0]} is outside the validation set of {len(val_ids)}")
    n_take = min(m, pool_coords.shape[0])

    matches: list[tuple[str, str, float]] = []
    matched: list[str] = []
    seen: set[str] = set()
    sampled_ids = [val_ids[p] for p in positions]
    for rec_id, p in zip(sampled_ids, positions):
        d = np.sqrt(np.sum((pool_coords - val_coords[p]) ** 2, axis=1))
        order = np.argsort(d, kind="stable")[:n_take]
        for j in order:
            pool_id = pool_ids[int(j)]
            matches.append((rec_id, pool_id, float(d[j])))
            if pool_id not in seen:
                seen.add(pool_id)
                matched.append(pool_id)
    return MatchSet(
        sampled_val_ids=sampled_ids,
        matched_pool_ids=matched,
        matches=matches,
    )


def save_matchset(ms: MatchSet, path) -> None:
    obj = {
        "format": "matchset",
        "version": 1,
        "mode": ms.mode,
        "seed": ms.seed,
        "sampled_val_ids": ms.sampled_val_ids,
        "matched_pool_ids": ms.matched_pool_ids,
        "matches": [[v, p, d] for v, p, d in ms.matches],
    }
    Path(path).write_text(json.dumps(obj), encoding="utf-8")
