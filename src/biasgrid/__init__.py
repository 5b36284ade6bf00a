"""biasgrid: find and fix subgroup failures of binary image classifiers.

The package projects a validation set onto a 2-D PCA similarity grid,
overlays per-image failure scores so systematic failure regions become
visible without any subgroup metadata, then remediates by sampling hard
validation images, matching them to an augmentation pool in projection
space, and iteratively fine-tuning the classifier.
"""

from .classifier import (
    RefModel,
    TrainHyper,
    accuracy,
    fine_tune,
    load_model,
    predict_dataset,
    save_model,
    sigmoid,
    train,
)
from .dataset import Dataset, ImageRecord, load_manifest, save_dataset
from .errors import BiasgridError, ConfigError, DataError, NumericalError
from .grid import GridLayout, default_dims, make_grid
from .loop import LoopConfig, LoopState, default_lr_schedule, run_loop, run_random_baseline
from .pca import PcaBasis, fit, load_basis, project, save_basis
from .saliency import (
    FailureScores,
    SaliencyImage,
    colormap,
    compute_failures,
    render,
    save_saliency,
)
from .sampler import MatchSet, SampleWeights, make_weights, match_pool, sample
from .seeding import derive_seed, make_rng
from .synth import CorpusSpec, FaceParams, generate_corpus, render_face

__version__ = "0.1.0"

__all__ = [
    "BiasgridError",
    "ConfigError",
    "CorpusSpec",
    "DataError",
    "Dataset",
    "FaceParams",
    "FailureScores",
    "GridLayout",
    "ImageRecord",
    "LoopConfig",
    "LoopState",
    "MatchSet",
    "NumericalError",
    "PcaBasis",
    "RefModel",
    "SaliencyImage",
    "SampleWeights",
    "TrainHyper",
    "accuracy",
    "colormap",
    "compute_failures",
    "default_dims",
    "default_lr_schedule",
    "derive_seed",
    "fine_tune",
    "fit",
    "generate_corpus",
    "load_basis",
    "load_manifest",
    "load_model",
    "make_grid",
    "make_rng",
    "make_weights",
    "match_pool",
    "predict_dataset",
    "project",
    "render",
    "render_face",
    "run_loop",
    "run_random_baseline",
    "sample",
    "save_basis",
    "save_dataset",
    "save_model",
    "save_saliency",
    "sigmoid",
    "train",
]
