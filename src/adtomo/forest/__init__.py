from ..config import ForestParams, HyperGrid
from .model import best_point, cv_scores, feature_importance, fold_masks, holdout_fit
from . import kernels

__all__ = [
    "ForestParams", "HyperGrid",
    "best_point", "cv_scores", "feature_importance", "fold_masks", "holdout_fit", "kernels",
]
