import json

import numpy as np
import pytest

from adtomo.errors import ConfigError
from adtomo.pipeline import load_pipeline_config, stage_simulate
from adtomo.syncdetect import _hop_kind, stage_syncdetect

from conftest import load_config, syncdetect_world
from oracles import RequestLogEntry, detect_cookie_sync, pair_keys, sync_pairs_document


def hop(pos, src, dst, cookie=None, uid=None, run=0, persona="p1"):
    return RequestLogEntry(run, persona, pos, src, dst, cookie, uid)


class TestDetection:
    def test_full_handshake_detected(self):
        report = detect_cookie_sync([hop(0, "t1", "t2", cookie="c:t2", uid="uid:t1")])
        assert pair_keys(report) == {("t1", "t2")}
        assert report.pairs[0].evidence == ((0, "p1", 0),)

    def test_bare_hop_ignored(self):
        report = detect_cookie_sync([hop(0, "t1", "t2")])
        assert pair_keys(report) == set()
        assert report.weak_candidates == ()

    def test_chain_of_two_syncs(self):
        log = [hop(0, "t1", "t2", cookie="c:t2", uid="uid:t1"),
               hop(1, "t2", "t3", cookie="c:t3", uid="uid:t2")]
        assert pair_keys(detect_cookie_sync(log)) == {("t1", "t2"), ("t2", "t3")}

    def test_cookie_only_is_weak_candidate(self):
        report = detect_cookie_sync([hop(0, "site", "t2", cookie="c:t2")])
        assert pair_keys(report) == set()
        assert {(p.initiator, p.receiver) for p in report.weak_candidates} == {("site", "t2")}

    def test_foreign_cookie_not_counted(self):
        # A cookie owned by neither endpoint is not a delivery to its owner.
        report = detect_cookie_sync([hop(0, "t1", "t2", cookie="c:t9", uid="uid:t1")])
        assert pair_keys(report) == set()

    def test_unstructured_identifiers_use_http_semantics(self):
        report = detect_cookie_sync([hop(0, "t1", "t2", cookie="opaque123",
                                         uid="u-abc")])
        assert pair_keys(report) == {("t1", "t2")}

    def test_evidence_accumulates_across_chains(self):
        log = [hop(0, "t1", "t2", cookie="c:t2", uid="uid:t1", run=0),
               hop(0, "t1", "t2", cookie="c:t2", uid="uid:t1", run=1)]
        report = detect_cookie_sync(log)
        assert len(report.pairs) == 1
        assert report.pairs[0].evidence == ((0, "p1", 0), (1, "p1", 0))

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        log = [hop(i, f"t{i}", f"t{i+1}", cookie=f"c:t{i+1}", uid=f"uid:t{i}")
               for i in range(6)]
        base = detect_cookie_sync(log)
        for _ in range(5):
            shuffled = [log[i] for i in rng.permutation(len(log))]
            assert detect_cookie_sync(shuffled) == base

    def test_position_gap_rejected(self):
        log = [hop(0, "a", "b"), hop(2, "b", "c")]
        with pytest.raises(ConfigError, match="^requestlog.jsonl: position gaps in chain"):
            detect_cookie_sync(log)

    def test_gap_detection_is_per_chain(self):
        log = [hop(0, "a", "b", run=0), hop(0, "a", "b", run=1), hop(1, "b", "c", run=1)]
        detect_cookie_sync(log)  # distinct (run, persona) chains, each contiguous


@pytest.mark.parametrize("hop, kind", [
    pytest.param(("t1", "t2", "c:t2", "uid:t1"), "pairs", id="full_handshake"),
    pytest.param(("t1", "t2", None, None), None, id="bare_hop"),
    pytest.param(("site", "t2", "c:t2", None), "weak_candidates", id="cookie_only"),
    pytest.param(("t1", "t2", "c:t9", "uid:t1"), None, id="foreign_cookie"),
    pytest.param(("t1", "t2", "opaque123", "u-abc"), "pairs", id="unstructured_identifiers"),
    pytest.param(("t1", "t2", "c:t2", "uid:t9"), "weak_candidates", id="foreign_uid"),
    pytest.param(("t1", "t1", "c:t1", "uid:t1"), None, id="self_hop"),
])
def test_hop_kind(hop, kind):
    assert _hop_kind(*hop) == kind
    assert pair_keys(detect_cookie_sync([RequestLogEntry(0, "p1", 0, *hop)])) == (
        {hop[:2]} if kind == "pairs" else set())


@pytest.mark.parametrize("name", ["mini", "small"])
def test_stage_matches_oracle_on_shipped_configs(tmp_path, name):
    cfg = load_pipeline_config(load_config(name, seed=7))
    stage_simulate(cfg, tmp_path)
    stage_syncdetect(cfg, tmp_path)
    lines = (tmp_path / "requestlog.jsonl").read_text(encoding="utf-8").splitlines()
    report = detect_cookie_sync(RequestLogEntry(**json.loads(line)) for line in lines)
    assert report.pairs
    sync_pairs = json.loads((tmp_path / "sync_pairs.json").read_text(encoding="utf-8"))
    assert sync_pairs == sync_pairs_document(report)


class TestSimulatorRecovery:
    def _world(self, sync_pairs):
        return {
            "world": {
                "generic_pool": [f"gen{i}" for i in range(20)],
                "groups": [{"id": "g1", "vocabulary": ["v1", "v2"]}],
                "websites": [{"id": "site1", "group": "g1"},
                             {"id": "collect1", "group": None}],
                "trackers": [{"id": f"t{i}", "site_coverage": ["site1"]}
                             for i in range(1, 6)],
                "advertisers": [{"id": "a1", "base_bid": 1.0, "creative_length": 3}],
                "edges": [],
                "slots": [{"id": "s1", "website": "collect1", "floor_price": 0.1,
                           "mechanism": "rtb_waterfall"}],
                "sync_pairs": sync_pairs,
            },
            "run": {"personas": [{"id": "p1", "group": "g1"},
                                 {"id": "p2", "group": "g1"}],
                    "runs": 2},
        }

    def test_exact_recovery_on_random_worlds(self, tmp_path):
        """The stage's pairs are the configured ones, and its
        ``sync_pairs.json`` is the oracle's report over the same log."""
        rng = np.random.default_rng(123)
        trackers = [f"t{i}" for i in range(1, 6)]
        for seed in range(10):
            n_pairs = int(rng.integers(0, 5))
            pairs = set()
            while len(pairs) < n_pairs:
                a, b = rng.choice(trackers, size=2, replace=False)
                pairs.add((str(a), str(b)))
            sync_pairs, requests = syncdetect_world(
                self._world([list(p) for p in sorted(pairs)]), seed, tmp_path / str(seed))
            detected = {(p["initiator"], p["receiver"]) for p in sync_pairs["pairs"]}
            assert detected == pairs, f"seed {seed}"
            report = detect_cookie_sync(RequestLogEntry(**row) for row in requests)
            assert sync_pairs == sync_pairs_document(report), f"seed {seed}"
