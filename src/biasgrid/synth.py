"""Procedural face-proxy corpus with a controllable complexion skew.

Stands in for real face datasets at desk scale: each image is a flat
"skin" field whose intensity encodes complexion, plus two eyes that are
either open (bright sclera ellipse with a dark pupil) or closed (a dark
horizontal bar). Feature contrast follows complexion, the way low-light
photography loses dark detail: pupils and bars fade out on dark skin while
the bright sclera fades out on light skin, so the two complexion bands are
told apart by geometrically different cues. A training split skewed toward
light complexions therefore yields a classifier that leans on the light-skin
cues and shows a measurable accuracy gap on dark-complexion faces, while a
balanced split supports both cues at once.

All geometry and intensity constants below are fixed so that generated
images are stable across releases (golden files depend on them).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DataError
from .seeding import derive_seed, make_rng

# Base skin intensity is BASE_OFFSET + BASE_SPAN * complexion.
BASE_OFFSET = 0.15
BASE_SPAN = 0.7

# Eye placement, as fractions of image height/width.
EYE_ROW = 0.35
EYE_COLS = (0.3, 0.7)

# Complexion bands used by the skewed training split.
LIGHT_BAND = (0.7, 1.0)
DARK_BAND = (0.0, 0.3)

# Eye-feature rendering follows a local-contrast visibility model: dark
# features (the pupil and the closed-eye bar) wash out against dark skin,
# while the bright sclera washes out against light skin. Each visibility
# ramps linearly across the mid band between the two complexion bands, so
# within the dark band the pupil and bar are not rendered at all, and within
# the light band the open eye's surround reads slightly darker than skin
# (iris shading) instead of brighter. At the extreme complexions the rendered
# intensities are exactly SCLERA_INTENSITY (c = 0) and PUPIL_INTENSITY
# (c = 1). The shading term means the "eye surround brighter when open" cue
# points opposite ways on the two complexion bands, which is what makes a
# skewed-training classifier misread dark faces instead of merely being
# uncertain about them.
SCLERA_INTENSITY = 0.95  # cap reached on the darkest complexions
PUPIL_INTENSITY = 0.05  # pupil/bar value on the lightest complexion
PUPIL_DROP = 0.80  # intensity drop below base at full visibility
SCLERA_LIFT = 0.82  # surround lift at full sclera visibility
IRIS_SHADE = 0.12  # surround drop at full pupil visibility

SPLIT_NAMES = ("train", "val", "pool")


@dataclass(frozen=True)
class FaceParams:
    """Everything that determines one rendered face, bit for bit."""

    complexion: float  # 0 = darkest base intensity, 1 = lightest
    eye_state: str  # "open" or "closed"
    jitter_seed: int


@dataclass(frozen=True)
class CorpusSpec:
    """Sizes, skew, and seed for one generated corpus."""

    n_train: int = 1000
    n_val: int = 300
    n_pool: int = 1200
    train_complexion_mix: float = 0.95  # probability of the light band in train
    noise_sigma: float = 0.10
    master_seed: int = 0
    height: int = 64
    width: int = 64

    def validate(self) -> None:
        if min(self.n_train, self.n_val, self.n_pool) < 1:
            raise DataError("corpus split sizes must be >= 1")
        if not 0.0 <= self.train_complexion_mix <= 1.0:
            raise DataError("train_complexion_mix must be in [0, 1]")
        if self.noise_sigma < 0.0:
            raise DataError("noise_sigma must be >= 0")
        if self.height < 16 or self.width < 16:
            raise DataError("image size must be at least 16x16")


def dark_feature_visibility(complexion: float) -> float:
    """How visible a dark feature (pupil, bar) is against the skin base."""
    lo, hi = DARK_BAND[1], LIGHT_BAND[1]
    return min(max((complexion - lo) / (hi - lo), 0.0), 1.0)


def bright_feature_visibility(complexion: float) -> float:
    """How visible the bright sclera is against the skin base."""
    lo, hi = DARK_BAND[0], LIGHT_BAND[0]
    return min(max((hi - complexion) / (hi - lo), 0.0), 1.0)


def feature_intensities(complexion: float) -> tuple[float, float]:
    """Rendered (sclera, pupil/bar) intensities for one complexion."""
    base = BASE_OFFSET + BASE_SPAN * complexion
    sclera = (base + SCLERA_LIFT * bright_feature_visibility(complexion)
              - IRIS_SHADE * dark_feature_visibility(complexion))
    pupil = base - PUPIL_DROP * dark_feature_visibility(complexion)
    return min(sclera, SCLERA_INTENSITY), max(pupil, PUPIL_INTENSITY)


@functools.cache
def _eye_layout(h: int, w: int, eye_state: str) -> np.ndarray:
    """Which value each pixel of an h x w face takes: 0 skin, 1 sclera, 2
    pupil or bar. Later features overwrite earlier ones, eye by eye. The
    array is shared by every face of this size and state, so it is read-only."""
    layout = np.zeros((h, w), dtype=np.intp)
    # Pixel-center coordinates against float feature centers.
    rr = np.arange(h, dtype=np.float64)[:, None] + 0.5
    cc = np.arange(w, dtype=np.float64)[None, :] + 0.5
    cy = EYE_ROW * h
    for col_frac in EYE_COLS:
        cx = col_frac * w
        if eye_state == "open":
            layout[((rr - cy) / (h / 10.0)) ** 2 + ((cc - cx) / (w / 8.0)) ** 2 <= 1.0] = 1
            layout[(rr - cy) ** 2 + (cc - cx) ** 2 <= (h / 20.0) ** 2] = 2
        else:
            layout[(np.abs(rr - cy) <= h / 48.0) & (np.abs(cc - cx) <= w / 12.0)] = 2
    layout.flags.writeable = False
    return layout


def render_face(params: FaceParams, height: int, width: int, noise_sigma: float) -> np.ndarray:
    """Render one face image; identical params always give identical pixels."""
    if height < 16 or width < 16:
        raise DataError("image size must be at least 16x16")
    if params.eye_state not in ("open", "closed"):
        raise DataError(f"unknown eye_state {params.eye_state!r}")
    h, w = height, width
    sclera_val, pupil_val = feature_intensities(params.complexion)
    values = np.array([BASE_OFFSET + BASE_SPAN * params.complexion, sclera_val, pupil_val])
    img = values[_eye_layout(h, w, params.eye_state)]

    if noise_sigma > 0.0:
        rng = make_rng(params.jitter_seed)
        img = img + rng.normal(0.0, noise_sigma, size=(h, w))
    return np.clip(img, 0.0, 1.0)


def _face(spec: CorpusSpec, split: str, index: int) -> tuple[np.ndarray, int, str]:
    """(pixels, label, group) of record `index` of a split."""
    rec_seed = derive_seed(spec.master_seed, "corpus", split, str(index))
    rng = make_rng(rec_seed)
    if split == "train":
        if rng.random() < spec.train_complexion_mix:
            lo, hi = LIGHT_BAND
        else:
            lo, hi = DARK_BAND
        complexion = lo + (hi - lo) * rng.random()
    else:
        complexion = rng.random()
    label = index % 2
    params = FaceParams(
        complexion=complexion,
        eye_state="closed" if label == 1 else "open",
        jitter_seed=derive_seed(spec.master_seed, "corpus", split, str(index), "noise"),
    )
    pixels = render_face(params, spec.height, spec.width, spec.noise_sigma)
    return pixels, label, "dark" if complexion < 0.5 else "light"


def generate_split(spec: CorpusSpec, split: str, n: int) -> Dataset:
    """Generate one named split; record i depends only on (master_seed, split, i).

    Each image is rendered straight into its row of the dataset's matrix.
    """
    h, w = spec.height, spec.width
    ids = [f"{split}-{i:05d}" for i in range(n)]
    mat = np.empty((len(ids), h * w))
    rows = mat.reshape(len(ids), h, w)
    labels: list[int] = []
    groups: list[str] = []
    for i in range(len(ids)):
        rows[i], label, group = _face(spec, split, i)
        labels.append(label)
        groups.append(group)
    return Dataset.from_matrix(mat, h, w, ids, labels, groups)


def generate_corpus(spec: CorpusSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Generate (train, val, pool).

    Train complexions come from the light band with probability
    train_complexion_mix and from the dark band otherwise; val and pool
    complexions are uniform on [0, 1]. Labels alternate, so every split is
    balanced to within one record. Group tags record which side of 0.5 the
    complexion fell on; they are evaluation-only metadata.
    """
    spec.validate()
    return (
        generate_split(spec, "train", spec.n_train),
        generate_split(spec, "val", spec.n_val),
        generate_split(spec, "pool", spec.n_pool),
    )
