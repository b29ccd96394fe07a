from ..config import ForestParams, HyperGrid
from .model import (
    ForestModel,
    accuracy,
    best_point,
    cv_scores,
    feature_importance,
    fold_masks,
    predict_batch,
    train_forest,
)
from . import kernels

__all__ = [
    "ForestModel", "ForestParams", "HyperGrid",
    "accuracy", "best_point", "cv_scores", "feature_importance",
    "fold_masks", "predict_batch", "train_forest", "kernels",
]
