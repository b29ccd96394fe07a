from .model import (
    ForestModel,
    ForestParams,
    HyperGrid,
    Tree,
    accuracy,
    cross_validate_grid,
    feature_importance,
    predict_batch,
    train_forest,
)
from . import kernels

__all__ = [
    "ForestModel", "ForestParams", "HyperGrid", "Tree",
    "accuracy", "cross_validate_grid", "feature_importance", "predict_batch",
    "train_forest", "kernels",
]
