"""Paper-shape recovery beyond the acceptance criteria.

The full ``desk`` world, the only shipped world with advertisers fed by two
trackers (dsp-01 and dsp-06), at one grid point; the limit of the mean + 1
sigma rule when half the trackers share with an advertiser; and the grid
search on ``small``, whose every point infers the planted set.
"""

import json

import numpy as np
import pytest

from adtomo.forest import ForestParams, accuracy, feature_importance, train_forest
from adtomo.pipeline import (load_pipeline_config, run_pipeline, stage_flag, stage_infer,
                             stage_simulate)
from adtomo.rng import substream_key
from adtomo.tomography import holdout_mask, infer_relationships

from conftest import load_config
from oracles import FlaggedRecord, design_by_records


@pytest.mark.parametrize("k", [4, 6, 8, 10, 12, 20])
def test_rule_infers_no_supplier_once_half_the_trackers_supply(k):
    """m of k trackers each carry gain 1/m.  The cutoff mean + sigma is
    1/k + sqrt(1/(mk) - 1/k^2), which 1/m exceeds exactly when m < k/2: at
    m = k/2 the rule infers nothing, at m = k/2 - 1 every supplier."""
    trackers = [f"t{i:02d}" for i in range(k)]
    for m, expected in ((k // 2, ()), (k // 2 - 1, tuple(trackers[:k // 2 - 1]))):
        gains = [1 / m] * m + [0.0] * (k - m)
        cutoff = float(np.mean(gains)) + float(np.std(gains, ddof=0))
        assert cutoff == pytest.approx(1 / k + np.sqrt(1 / (m * k) - 1 / k ** 2), abs=1e-12)
        assert infer_relationships(gains, 1.0, 0.6, trackers) == expected, (k, m)


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_desk_at_one_grid_point_recovers_every_edge(tmp_path, seed):
    """Full ``desk`` (10 trackers, 1,024 + 100 personas, 9 advertisers,
    11 planted edges, two of them into dsp-01 and two into dsp-06) with the
    grid cut to (50 trees, depth 3, all, min_leaf 1): every planted edge is
    inferred, and nothing else."""
    doc = load_config("desk", seed=seed)
    doc["grid"] = {"n_trees": [50], "max_depth": [3], "features_per_split": ["all"],
                   "min_leaf": [1]}
    cfg = load_pipeline_config(doc)
    run_pipeline(cfg, tmp_path)
    ev = json.loads((tmp_path / "evaluation.json").read_text())
    assert len(ev["true_edges"]) == 11
    assert sorted(ev["inferred_edges"]) == sorted(ev["true_edges"])
    assert (ev["precision"], ev["recall"]) == (1.0, 1.0)


@pytest.mark.parametrize("seed", [1, 2])
def test_every_small_grid_point_infers_the_planted_set(tmp_path, seed):
    """For every advertiser and every point of ``small``'s grid, the final
    forest that ``run_inference`` would fit at that point (CV runs, the
    advertiser's seed, gated on the holdout runs) infers exactly the
    planted suppliers.  At the chosen point it is the report's forest."""
    cfg = load_pipeline_config(load_config("small", seed=seed))
    for stage in (stage_simulate, stage_flag, stage_infer):
        stage(cfg, tmp_path)
    records = [FlaggedRecord(r["advertiser"], r["persona"], r["run"],
                             r["is_different_from_control"])
               for r in map(json.loads, (tmp_path / "records.jsonl").read_text().splitlines())]
    holdout = holdout_mask(cfg.sim.runs, cfg.holdout_runs, seed)
    trackers = sorted(cfg.sim.world.tracker_ids)
    blocking = {p.id: p.blocked for p in cfg.sim.personas}
    points = cfg.grid.points()
    assert len(points) == 8
    report = json.loads((tmp_path / "report.json").read_text())
    for row in report["advertisers"]:
        advertiser = row["advertiser"]
        mine = [rec for rec in records if rec.advertiser == advertiser]
        X, y, _ = design_by_records([r for r in mine if not holdout[r.run]], trackers, blocking)
        X_h, y_h, _ = design_by_records([r for r in mine if holdout[r.run]], trackers, blocking)
        adv_seed = substream_key(seed, "infer", advertiser)
        planted = tuple(e.tracker for e in cfg.sim.world.graph.edges_into(advertiser))
        chosen = ForestParams(**row["params"])
        assert chosen in points
        for params in points:
            model = train_forest(X, y, params, adv_seed)
            holdout_acc, gains = accuracy(model, X_h, y_h), feature_importance(model)
            inferred = infer_relationships(gains, holdout_acc, cfg.accuracy_threshold, trackers)
            assert inferred == planted, (advertiser, params)
            if params == chosen:
                assert holdout_acc == row["holdout_accuracy"]
                assert gains.tolist() == [row["gains"][t] for t in trackers]
