"""The pipeline config: its parameter types and ``load_pipeline_config``.

A pipeline config is one JSON document:

    {"sim": {...}, "stats": {...}, "grid": {...}, "folds": F,
     "holdout_runs": H, "accuracy_threshold": A, "seed": S, "output_dir": D}

``sim`` is the simulation config (``ecosim.sim_config_from_dict``), ``stats``
a ``StatConfig``, ``grid`` a ``HyperGrid`` of ``ForestParams``.  Loading and
validating one needs no numpy, so a CLI command whose stage needs none
starts without it; ``stattest``, ``forest`` and ``pipeline`` import these
names from here.

The parameter types are ``NamedTuple``s and check nothing themselves:
``load_pipeline_config`` validates every value it builds one from, and
names the config section of a value it rejects.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .ecosim import SimConfig, sim_config_from_dict
from .errors import ConfigError, StatError, check_known_keys
from .jsonio import read_json


class StatConfig(NamedTuple):
    """alpha is the significance level, in (0, 1); min_expected the smallest
    column mass, positive and finite, a chi-squared column may carry without
    being folded into the residual."""

    alpha: float = 0.05
    min_expected: float = 5.0


class ForestParams(NamedTuple):
    n_trees: int = 100               # >= 1
    max_depth: int | None = None     # >= 1, or None
    features_per_split: str = "sqrt"  # "sqrt" or "all"
    min_leaf: int = 1                # >= 1


class HyperGrid(NamedTuple):
    """Candidate hyperparameter sets for the grid search: per dimension, a
    non-empty tuple of distinct ``ForestParams`` values."""

    n_trees: tuple[int, ...] = (50, 100, 200)
    max_depth: tuple[int | None, ...] = (3, 5, None)
    features_per_split: tuple[str, ...] = ("sqrt", "all")
    min_leaf: tuple[int, ...] = (1, 2)

    def points(self) -> list[ForestParams]:
        """Grid points in canonical (lexicographic-parameter) order."""
        depths = sorted(self.max_depth, key=lambda d: math.inf if d is None else d)
        combos = itertools.product(
            sorted(self.n_trees), depths, sorted(self.features_per_split), sorted(self.min_leaf))
        return [ForestParams(*c) for c in combos]


class PipelineConfig(NamedTuple):
    sim: SimConfig
    stats: StatConfig
    grid: HyperGrid
    folds: int
    holdout_runs: int
    accuracy_threshold: float
    seed: int
    output_dir: str
    resolved: dict  # the config document as loaded, with the effective seed

    def with_seed(self, seed: int) -> "PipelineConfig":
        resolved = dict(self.resolved)
        resolved["seed"] = seed
        return self._replace(seed=seed, resolved=resolved)


_CONFIG_KEYS = ("sim", "stats", "grid", "folds", "holdout_runs", "accuracy_threshold",
                "seed", "output_dir")


def _parse_stats(d) -> StatConfig:
    if not isinstance(d, dict):
        raise ConfigError("expected an object", "stats")
    check_known_keys(d, StatConfig._fields, "stats.")
    stats = StatConfig(**d)
    try:
        if not 0.0 < stats.alpha < 1.0:
            raise StatError(f"alpha must be in (0, 1), got {stats.alpha}")
        if isinstance(stats.min_expected, bool) or not (
                math.isfinite(stats.min_expected) and stats.min_expected > 0):
            raise StatError(f"min_expected must be positive and finite, got {stats.min_expected}")
    except (TypeError, StatError) as e:
        raise ConfigError(str(e), "stats") from None
    return stats


def _check_forest_param(name: str, value) -> None:
    """ConfigError naming ``grid`` unless ``value`` is a valid value of the
    ``ForestParams`` field ``name``."""
    if name == "features_per_split":
        if value not in ("sqrt", "all"):
            raise ConfigError(f"unknown features_per_split {value!r}", "grid")
        return
    if name == "max_depth" and value is None:
        return
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        alternative = " or None" if name == "max_depth" else ""
        raise ConfigError(f"{name} must be an integer >= 1{alternative}, got {value!r}", "grid")


def _parse_grid(d: dict) -> HyperGrid:
    if not isinstance(d, dict):
        raise ConfigError("expected an object", "grid")
    check_known_keys(d, HyperGrid._fields, "grid.")
    dims = {}
    for name, default in HyperGrid._field_defaults.items():
        values = d.get(name, default)
        if not isinstance(values, (list, tuple)):
            raise ConfigError(f"{name} must be a list, got {values!r}", "grid")
        dims[name] = tuple(values)
    for name, values in dims.items():
        if not values:
            raise ConfigError(f"grid dimension {name} is empty", "grid")
        # Each value alone, so points() never meets a value it cannot sort.
        for value in values:
            _check_forest_param(name, value)
        # A repeated value would grow and score the same grid point twice.
        if len(set(values)) != len(values):
            raise ConfigError(f"grid dimension {name} repeats a value: {list(values)}", "grid")
    return HyperGrid(**dims)


def _is_int(value) -> bool:
    """True for a JSON integer; a JSON bool is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_pipeline_config(source) -> PipelineConfig:
    """Build a validated PipelineConfig from a dict or a JSON file path."""
    doc = read_json(source) if not isinstance(source, dict) else source
    if not isinstance(doc, dict):
        raise ConfigError("expected a JSON object", str(source))
    check_known_keys(doc, _CONFIG_KEYS)
    if "sim" not in doc:
        raise ConfigError("missing required field", "sim")
    sim = sim_config_from_dict(doc["sim"])
    stats = _parse_stats(doc.get("stats", {}))
    grid = _parse_grid(doc.get("grid", {}))
    folds = doc.get("folds", 4)
    holdout_runs = doc.get("holdout_runs", 2)
    threshold = doc.get("accuracy_threshold", 0.6)
    seed = doc.get("seed", 0)
    if not _is_int(seed):
        raise ConfigError("seed must be an integer", "seed")
    if not _is_int(holdout_runs) or not 1 <= holdout_runs < sim.runs:
        raise ConfigError(
            f"holdout_runs must be in [1, runs={sim.runs}), got {holdout_runs}",
            "holdout_runs")
    cv_runs = sim.runs - holdout_runs
    if not _is_int(folds) or folds < 2:
        raise ConfigError(f"folds must be an integer >= 2, got {folds}", "folds")
    if cv_runs % folds != 0:
        raise ConfigError(
            f"folds must divide runs - holdout_runs = {cv_runs}, got {folds}", "folds")
    if (isinstance(threshold, bool) or not isinstance(threshold, (int, float))
            or not 0 < threshold <= 1):
        raise ConfigError(f"accuracy_threshold must be in (0, 1], got {threshold}",
                          "accuracy_threshold")
    output_dir = doc.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError(f"must be a string, got {output_dir!r}", "output_dir")
    resolved = dict(doc)
    resolved["seed"] = seed
    return PipelineConfig(
        sim=sim, stats=stats, grid=grid, folds=folds, holdout_runs=holdout_runs,
        accuracy_threshold=float(threshold), seed=seed,
        output_dir=output_dir, resolved=resolved)
