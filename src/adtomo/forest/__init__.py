from ..config import ForestParams, HyperGrid
from .model import (
    ForestModel,
    accuracy,
    best_point,
    cross_validate_grid,
    cv_score,
    feature_importance,
    fold_masks,
    predict_batch,
    train_forest,
)
from . import kernels

__all__ = [
    "ForestModel", "ForestParams", "HyperGrid",
    "accuracy", "best_point", "cross_validate_grid", "cv_score", "feature_importance",
    "fold_masks", "predict_batch", "train_forest", "kernels",
]
