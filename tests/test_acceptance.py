"""Acceptance suite.

One test per acceptance criterion, each asserting its stated tolerance and
printing a PASS line with the measured values (run with ``pytest -s`` to see
them inline).  End-to-end criteria drive the real pipeline through the same
stage functions the CLI uses; the byte-identity criterion invokes the
installed CLI itself.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from adtomo.ecosim import enumerate_personas, sim_config_from_dict
from adtomo.forest import ForestParams, feature_importance, kernels
from adtomo.pipeline import load_pipeline_config, run_pipeline, stage_h1, stage_simulate
from adtomo.stattest import StatConfig, flags_against, welch_t_test
from adtomo.tomography import infer_relationships

import oracles
from oracles import (accuracy, chi_square_independence, forest_dict, right_children,
                     train_forest)
from conftest import load_config, syncdetect_world


def report(name, detail):
    print(f"\nACCEPTANCE {name}: PASS ({detail})")


def test_criterion_1_statistical_oracle_equivalence():
    """Welch t and chi-squared match the quadrature oracle to 1e-9 on 100
    random inputs each, plus the fixed cases; under 10 s.  Each chi-squared
    table is also flagged as a one-record ``flags_against`` group, the call
    flagging makes, at alpha 0.05 and 0.01."""
    t0 = time.monotonic()
    rng = np.random.default_rng(20240801)

    worst_t = 0.0
    for _ in range(100):
        a = rng.normal(rng.uniform(-2, 2), rng.uniform(0.3, 3),
                       size=rng.integers(2, 25)).tolist()
        b = rng.normal(rng.uniform(-2, 2), rng.uniform(0.3, 3),
                       size=rng.integers(2, 25)).tolist()
        r = welch_t_test(a, b)
        t_ref, df_ref = oracles.welch_statistic(a, b)
        p_ref = oracles.t_two_sided_p(t_ref, df_ref)
        assert abs(r.statistic - t_ref) <= 1e-9
        assert abs(r.df - df_ref) <= 1e-9
        assert abs(r.p_value - p_ref) <= 1e-9
        worst_t = max(worst_t, abs(r.p_value - p_ref))

    worst_c = 0.0
    n_checked = 0
    while n_checked < 100:
        v = int(rng.integers(2, 12))
        table = rng.integers(0, 60, size=(2, v)).astype(float)
        if (table.sum(axis=0) >= 5).sum() + 1 < 2:
            continue
        stat_ref, df_ref = oracles.chi2_statistic_collapsed(table.tolist(), 5)
        r = chi_square_independence(table)
        p_ref = oracles.chi2_sf(stat_ref, df_ref)
        assert abs(r.statistic - stat_ref) <= 1e-9
        assert r.df == df_ref
        assert abs(r.p_value - p_ref) <= 1e-9
        worst_c = max(worst_c, abs(r.p_value - p_ref))
        control, vector = ({j: int(c) for j, c in enumerate(row) if c} for row in table)
        for alpha in (0.05, 0.01):
            assert flags_against(control, [vector], StatConfig(alpha=alpha)) == [
                r.p_value < alpha]
        n_checked += 1

    fixed = chi_square_independence([[50, 10], [10, 50]])
    assert abs(fixed.statistic - 53.33) <= 0.01
    assert fixed.p_value < 1e-10
    identical = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert identical.p_value == 1.0

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report("criterion 1 (stat oracle equivalence)",
           f"max |dp| welch {worst_t:.2e}, chi2 {worst_c:.2e}, {elapsed:.1f}s")


def test_criterion_2_inference_rule_fixture():
    """Gains [0.90, 9 x 0.0111...] at 60% accuracy with a 60% threshold infer
    exactly one tracker; cutoff is 11/30 to 1e-9."""
    gains = [0.90] + [0.1 / 9] * 9
    trackers = [f"org-{i}" for i in range(10)]
    mean = float(np.mean(gains))
    cutoff = mean + float(np.std(gains, ddof=0))
    assert abs(mean - 0.1) <= 1e-9
    assert abs(cutoff - 11.0 / 30.0) <= 1e-9
    inferred = infer_relationships(gains, 0.60, 0.60, trackers)
    assert inferred == ("org-0",)
    # Just below the accuracy gate, the same gains infer nothing.
    assert infer_relationships(gains, 0.59, 0.60, trackers) == ()
    report("criterion 2 (inference-rule fixture)",
           f"cutoff {cutoff:.9f} = 11/30, inferred exactly {inferred}")


def _pipeline_evaluation(profile, seed, tmp_path):
    cfg = load_pipeline_config(load_config(profile, seed=seed))
    out = tmp_path / f"{profile}_{seed}"
    run_pipeline(cfg, out)
    return json.loads((out / "evaluation.json").read_text())


def test_criterion_3_planted_graph_recovery(tmp_path):
    """Small profile (6 trackers, 64 + 20 personas, 5 advertisers, 4 planted
    edges at reliability 0.95, 10 runs): precision >= 0.9 and recall >= 0.75
    averaged over 5 seeds, under 10 minutes."""
    t0 = time.monotonic()
    precisions, recalls = [], []
    for seed in (1, 2, 3, 4, 5):
        ev = _pipeline_evaluation("small", seed, tmp_path)
        precisions.append(ev["precision"])
        recalls.append(ev["recall"])
    mean_p = sum(precisions) / len(precisions)
    mean_r = sum(recalls) / len(recalls)
    elapsed = time.monotonic() - t0
    assert mean_p >= 0.9, precisions
    assert mean_r >= 0.75, recalls
    assert elapsed < 600.0
    report("criterion 3 (planted-graph recovery)",
           f"precision {mean_p:.3f}, recall {mean_r:.3f} over 5 seeds, {elapsed:.0f}s")


def test_criterion_4_empty_graph_false_positive_control(tmp_path):
    """No planted edges: mean inferred edges per run <= 1 over 20 seeds,
    under 10 minutes."""
    t0 = time.monotonic()
    counts = []
    for seed in range(1, 21):
        ev = _pipeline_evaluation("empty", seed, tmp_path)
        counts.append(len(ev["inferred_edges"]))
    mean_edges = sum(counts) / len(counts)
    elapsed = time.monotonic() - t0
    assert mean_edges <= 1.0, counts
    assert elapsed < 600.0
    report("criterion 4 (empty-graph false positives)",
           f"mean inferred/run {mean_edges:.2f} over 20 seeds, {elapsed:.0f}s")


def test_criterion_5_h1_replication(tmp_path):
    """Three groups with partial vocabulary overlap, nine runs: every
    within-group mean exceeds every across-group mean in its row and every
    within-vs-across Welch test has p < .05; under 2 minutes."""
    import csv

    t0 = time.monotonic()
    cfg = load_pipeline_config(load_config("h1", seed=3))
    out = tmp_path / "h1"
    stage_simulate(cfg, out)
    stage_h1(cfg, out)
    with (out / "h1_matrix.csv").open() as fh:
        rows = {(r["group_a"], r["group_b"]): r for r in csv.DictReader(fh)}
    groups = sorted({a for a, _ in rows})
    assert len(groups) == 3
    worst_margin = 1.0
    for g1 in groups:
        within = float(rows[(g1, g1)]["mean_similarity"])
        for g2 in groups:
            if g1 == g2:
                continue
            across = float(rows[(g1, g2)]["mean_similarity"])
            p = float(rows[(g1, g2)]["welch_p"])
            assert within > across, (g1, g2, within, across)
            assert p < 0.05, (g1, g2, p)
            worst_margin = min(worst_margin, within - across)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report("criterion 5 (H1 replication)",
           f"min within-minus-across margin {worst_margin:.3f}, {elapsed:.1f}s")


def test_criterion_6_forest_correctness():
    """Deterministic retraining; separable holdout accuracy 1.0; XOR at depth
    >= 2; importances sum to 1 +/- 1e-9; the discriminative feature tops the
    importances on all 20 seeds."""
    rng = np.random.default_rng(99)

    def separable(n, seed):
        r = np.random.default_rng(seed)
        X = r.integers(0, 2, size=(n, 6))
        return X, X[:, 2]

    params = ForestParams(n_trees=30, max_depth=None, features_per_split="sqrt")
    m1 = train_forest(*separable(64, 0), params, seed=5)
    m2 = train_forest(*separable(64, 0), params, seed=5)
    assert json.dumps(forest_dict(m1)) == json.dumps(forest_dict(m2))

    assert accuracy(m1, *separable(48, 1)) == 1.0

    # One tree grown on the XOR rows as given (no bootstrap), all features.
    X_xor = np.array([(0, 0), (0, 1), (1, 0), (1, 1)], dtype=np.uint8)
    y_xor = np.array([0, 1, 1, 0], dtype=np.uint8)
    patterns, cells = kernels.pattern_cells(X_xor, y_xor)
    nodes = kernels.build_forest(patterns, [(cells, np.array([1], dtype=np.uint64))], 2, 2, 1,
                                 bootstrap=False)
    feature, left, right, label = (a[0] for a in (
        nodes.feature, nodes.left, right_children(nodes), nodes.label))
    count = nodes.count[0]
    depth = {0: 0}
    for node in range(int(count)):
        if feature[node] >= 0:
            depth[int(left[node])] = depth[int(right[node])] = depth[node] + 1
    assert max(depth.values()) == 2
    for row, want in zip(X_xor, y_xor):
        node = 0
        while feature[node] >= 0:
            node = left[node] if row[feature[node]] == 0 else right[node]
        assert label[node] == want

    tops = 0
    for seed in range(20):
        model = train_forest(*separable(64, 200 + seed), ForestParams(n_trees=25), seed=seed)
        imp = feature_importance(model.nodes, model.n_features)
        assert abs(imp.sum() - 1.0) <= 1e-9
        tops += imp[2] > max(np.delete(imp, 2))
    assert tops == 20
    report("criterion 6 (forest correctness)",
           "retrain equality, separable holdout 1.0, XOR depth 2, "
           "importance sums 1e-9, 20/20 top-feature")


def test_criterion_7_cookie_sync_oracle(tmp_path):
    """The pairs ``stage_syncdetect`` writes to ``sync_pairs.json`` equal
    the configured sync_pairs exactly on 10 random worlds, and the file
    equals the oracle's report over the same request log."""
    rng = np.random.default_rng(1234)
    trackers = [f"t{i}" for i in range(1, 7)]
    for seed in range(10):
        n_pairs = int(rng.integers(0, 6))
        pairs = set()
        while len(pairs) < n_pairs:
            a, b = rng.choice(trackers, size=2, replace=False)
            pairs.add((str(a), str(b)))
        sim_doc = {
            "world": {
                "generic_pool": [f"gen{i}" for i in range(30)],
                "groups": [{"id": "g1", "vocabulary": ["v1", "v2", "v3"]}],
                "websites": [{"id": "site1", "group": "g1"},
                             {"id": "collect1", "group": None}],
                "trackers": [{"id": t, "site_coverage": ["site1"]} for t in trackers],
                "advertisers": [{"id": "a1", "base_bid": 1.0, "creative_length": 4}],
                "edges": [],
                "slots": [{"id": "s1", "website": "collect1", "floor_price": 0.1,
                           "mechanism": "hb_client"}],
                "sync_pairs": [list(p) for p in sorted(pairs)],
            },
            "run": {"personas": [{"id": "p1", "group": "g1"},
                                 {"id": "p2", "group": "g1"}],
                    "runs": 3},
        }
        sync_pairs, requests = syncdetect_world(sim_doc, seed, tmp_path / str(seed))
        detected = {(p["initiator"], p["receiver"]) for p in sync_pairs["pairs"]}
        assert detected == pairs, f"seed {seed}: {detected} != {pairs}"
        oracle = oracles.detect_cookie_sync(
            [oracles.RequestLogEntry(**row) for row in requests])
        assert sync_pairs == oracles.sync_pairs_document(oracle), f"seed {seed}"
    report("criterion 7 (cookie-sync oracle)", "exact recovery on 10 random worlds")


def test_criterion_8_combinatorics_and_byte_identical_runs(tmp_path):
    """1,024 distinct blocking configs for k=10; two CLI `run` invocations on
    one config produce byte-identical artifacts."""
    desk = sim_config_from_dict(load_config("desk")["sim"])  # a 10-tracker world
    assert len(desk.world.trackers) == 10
    personas = enumerate_personas(desk.world, "g1", controls=0)
    assert len(personas) == 1024
    # The id's bits are the blocked trackers: bit i is the i-th in id order.
    assert [int(p.id[2:], 2) for p in personas] == list(range(1024))
    assert all(p.blocked == tuple(t for i, t in enumerate(desk.world.tracker_ids)
                                  if p.id[-1 - i] == "1") for p in personas)
    assert len({p.blocked for p in personas}) == 1024

    doc = load_config("small", seed=42)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc), encoding="utf-8")
    outs = []
    for attempt in ("first", "second"):
        out = tmp_path / attempt
        proc = subprocess.run(
            [sys.executable, "-m", "adtomo.cli", "run", "--config", str(cfg_path),
             "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, f"{name} differs between invocations"
    report("criterion 8 (combinatorics + determinism)",
           f"1024 configs; {len(names)} artifacts byte-identical across runs")
