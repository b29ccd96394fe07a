import json
import random

import pytest

from adtomo.ecosim import Persona, sim_config_from_dict
from adtomo.errors import ConfigError
from adtomo.pipeline import load_pipeline_config, stage_simulate
from adtomo.rng import substream
from conftest import load_config, simulate_logs, simulate_texts
from oracles import generate_creative, jsonl_lines, knowledge_state, simulate_by_scalar_draws


def world_dict(*, groups=None, trackers=None, advertisers=None, edges=None,
               slots=None, pool=None, websites=None, sync_pairs=None):
    return {
        "generic_pool": pool if pool is not None else [f"gen{i}" for i in range(30)],
        "groups": groups or [{"id": "g1", "vocabulary": [f"v{i}" for i in range(10)]}],
        "websites": websites or [{"id": "site1", "group": "g1"},
                                 {"id": "collect1", "group": None}],
        "trackers": trackers or [{"id": "t1", "site_coverage": ["site1"],
                                  "observe_prob": 1.0}],
        "advertisers": advertisers or [{"id": "a1", "base_bid": 1.0,
                                        "knowledge_boost": 0.5, "bid_noise_sd": 0.0,
                                        "creative_length": 4}],
        "edges": edges if edges is not None else [],
        "slots": slots or [{"id": "s1", "website": "collect1", "floor_price": 0.1,
                            "mechanism": "hb_client"}],
        "sync_pairs": sync_pairs or [],
    }


def make_config(personas=None, runs=2, **kw):
    return sim_config_from_dict({
        "world": world_dict(**kw),
        "run": {"personas": personas or [{"id": "p1", "group": "g1", "blocked": []}],
                "runs": runs},
    })


def assert_texts_match_scalar_oracle(world, personas, runs, seed):
    """The simulator's log texts are the lines ``jsonl_lines`` encodes from
    the rows of the scalar-draw oracle: the same rows, floats and keys in
    field order, and the same bytes.  Returns the texts."""
    texts = simulate_texts(world, personas, runs, seed)
    expected = simulate_by_scalar_draws(world, personas, runs, seed)
    assert texts == tuple("".join(jsonl_lines(rows)) for rows in expected), seed
    return texts


def persona(pid="p1", blocked=(), control=False):
    return Persona(pid, "g1", tuple(sorted(blocked)), control)


class TestConfigValidation:
    def test_minimal_config_empty_graph(self):
        cfg = make_config()
        assert cfg.world.graph.edges == ()

    def test_ten_org_deployment_scale(self):
        trackers = [{"id": f"org{i:02d}", "site_coverage": ["site1"]} for i in range(10)]
        advertisers = [{"id": f"dsp{i}", "base_bid": 1.0, "creative_length": 4}
                       for i in range(9)]
        cfg = make_config(trackers=trackers, advertisers=advertisers)
        assert len(cfg.world.trackers) == 10
        assert len(cfg.world.advertisers) == 9

    def test_world_serialization_independent_of_seed(self, tmp_path):
        worlds = []
        for seed in (1, 2):
            out = tmp_path / str(seed)
            stage_simulate(load_pipeline_config(load_config("mini", seed=seed)), out)
            worlds.append((out / "world.json").read_bytes())
            adlog = (out / "adlog.jsonl").read_bytes()
        assert worlds[0] == worlds[1]
        assert adlog != (tmp_path / "1" / "adlog.jsonl").read_bytes()  # the seeds differ

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            make_config(trackers=[{"id": "t1", "site_coverage": []},
                                  {"id": "t1", "site_coverage": []}])

    def test_dangling_reference_rejected(self):
        with pytest.raises(ConfigError, match="dangling"):
            make_config(trackers=[{"id": "t1", "site_coverage": ["nope"]}])

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="probability"):
            make_config(trackers=[{"id": "t1", "site_coverage": [],
                                   "observe_prob": 1.5}])

    def test_edge_reliability_validated(self):
        with pytest.raises(ConfigError, match="probability"):
            make_config(edges=[{"tracker": "t1", "advertiser": "a1",
                                "reliability": -0.2}])

    def test_disjoint_id_spaces_enforced(self):
        with pytest.raises(ConfigError, match="disjoint"):
            make_config(trackers=[{"id": "zz", "site_coverage": []}],
                        advertisers=[{"id": "zz", "base_bid": 1.0,
                                      "creative_length": 4}])

    def test_control_with_blocking_rejected(self):
        with pytest.raises(ConfigError, match="control"):
            make_config(personas=[{"id": "c1", "group": "g1", "blocked": ["t1"],
                                   "is_control": True}])

    def test_error_carries_field_path(self):
        with pytest.raises(ConfigError) as err:
            make_config(trackers=[{"id": "t1", "site_coverage": [],
                                   "observe_prob": 2.0}])
        assert "sim.world.trackers[0].observe_prob" in str(err.value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("section, field", [
        ("advertisers", "base_bid"), ("advertisers", "knowledge_boost"),
        ("advertisers", "bid_noise_sd"), ("slots", "floor_price"), ("slots", "timeout")])
    def test_non_finite_number_rejected(self, section, field, value):
        # json.load accepts NaN and Infinity; neither may reach a bid or an
        # auction, and the error names the field.
        entry = world_dict()[section][0]
        with pytest.raises(ConfigError, match="finite") as err:
            make_config(**{section: [{**entry, field: value}]})
        assert f"sim.world.{section}[0].{field}" in str(err.value)


class TestKnowledgeState:
    def test_full_blockade_never_knows(self):
        cfg = make_config(edges=[{"tracker": "t1", "advertiser": "a1",
                                  "reliability": 1.0}])
        world = cfg.world
        p = persona(blocked=("t1",))
        rng = substream(1, "k")
        assert all(not knowledge_state("a1", p, world, rng) for _ in range(200))

    def test_deterministic_edge_always_knows(self):
        cfg = make_config(edges=[{"tracker": "t1", "advertiser": "a1",
                                  "reliability": 1.0}])
        world = cfg.world
        p = persona()
        rng = substream(2, "k")
        assert all(knowledge_state("a1", p, world, rng) for _ in range(200))

    def test_reliability_rate_matches_bernoulli(self):
        cfg = make_config(edges=[{"tracker": "t1", "advertiser": "a1",
                                  "reliability": 0.8}])
        world = cfg.world
        p = persona()
        rng = substream(3, "k")
        hits = sum(knowledge_state("a1", p, world, rng) for _ in range(10_000))
        assert hits / 10_000 == pytest.approx(0.8, abs=0.02)

    def test_no_coverage_never_knows(self):
        cfg = make_config(trackers=[{"id": "t1", "site_coverage": ["collect1"]}],
                          edges=[{"tracker": "t1", "advertiser": "a1",
                                  "reliability": 1.0}])
        world = cfg.world
        # collect1 has no group, so g1 personas never visit it during training.
        assert not knowledge_state("a1", persona(), world, substream(4, "k"))

    def test_monotone_in_added_edges(self):
        # Adding an edge can only raise the expected knowledge rate.
        trackers = [{"id": "t1", "site_coverage": ["site1"], "observe_prob": 0.7},
                    {"id": "t2", "site_coverage": ["site1"], "observe_prob": 0.7}]
        one = make_config(trackers=trackers,
                          edges=[{"tracker": "t1", "advertiser": "a1",
                                  "reliability": 0.5}])
        two = make_config(trackers=trackers,
                          edges=[{"tracker": "t1", "advertiser": "a1",
                                  "reliability": 0.5},
                                 {"tracker": "t2", "advertiser": "a1",
                                  "reliability": 0.5}])
        p = persona()
        n = 10_000
        rate1 = sum(knowledge_state("a1", p, one.world, substream(5, "k", i))
                    for i in range(n)) / n
        rate2 = sum(knowledge_state("a1", p, two.world, substream(5, "k", i))
                    for i in range(n)) / n
        assert rate2 >= rate1 - 0.02

    def test_unknown_advertiser_rejected(self):
        world = make_config().world
        with pytest.raises(ConfigError):
            knowledge_state("ghost", persona(), world, substream(6, "k"))


class TestGenerateCreative:
    def test_known_draws_only_vocabulary(self):
        cfg = make_config(pool=[f"gen{i}" for i in range(30)])
        world = cfg.world
        group = world.group_by_id["g1"]
        rng = substream(7, "c")
        for _ in range(50):
            creative = generate_creative("a1", True, group, world, rng)
            assert set(creative.tokens) <= set(group.vocabulary)

    def test_unknown_draws_only_pool(self):
        cfg = make_config()
        world = cfg.world
        group = world.group_by_id["g1"]
        rng = substream(8, "c")
        for _ in range(50):
            creative = generate_creative("a1", False, group, world, rng)
            assert set(creative.tokens) <= set(world.generic_pool)
            assert not set(creative.tokens) & set(group.vocabulary)

    def test_creative_length_invariant(self):
        world = make_config().world
        creative = generate_creative("a1", True, world.group_by_id["g1"], world,
                                     substream(9, "c"))
        assert len(creative.tokens) == world.advertiser_by_id["a1"].creative_length

    def test_overlap_fraction_matches_binomial_oracle(self):
        # Half the vocabulary is shared with the pool; under uniform sampling
        # the shared fraction of drawn tokens is Binomial(n, 0.5)/n.
        vocab = [f"v{i}" for i in range(10)] + [f"shared{i}" for i in range(10)]
        pool = [f"shared{i}" for i in range(10)] + [f"gen{i}" for i in range(20)]
        cfg = make_config(groups=[{"id": "g1", "vocabulary": vocab}], pool=pool,
                          advertisers=[{"id": "a1", "base_bid": 1.0,
                                        "creative_length": 10_000}])
        world = cfg.world
        group = world.group_by_id["g1"]
        assert group.generic_overlap == 0.5
        creative = generate_creative("a1", True, group, world, substream(10, "c"))
        shared = sum(t.startswith("shared") for t in creative.tokens)
        assert shared / 10_000 == pytest.approx(0.5, abs=0.02)


class TestRunSimulation:
    def test_empty_graph_all_generic(self):
        cfg = make_config(runs=3)
        world = cfg.world
        ads, _, _ = simulate_logs(world, cfg.personas, cfg.runs, seed=2)
        vocab = set(world.group_by_id["g1"].vocabulary)
        assert ads  # the sole advertiser clears the floor
        for ad in ads:
            assert not set(ad["tokens"]) & vocab

    def test_deterministic_single_edge_targets_vocabulary(self):
        cfg = make_config(edges=[{"tracker": "t1", "advertiser": "a1",
                                  "reliability": 1.0}], runs=3)
        world = cfg.world
        ads, _, _ = simulate_logs(world, cfg.personas, cfg.runs, seed=3)
        vocab = set(world.group_by_id["g1"].vocabulary)
        for ad in ads:
            assert set(ad["tokens"]) <= vocab

    def test_blockade_soundness(self):
        # A persona blocking every tracker into a1 never sees a1's targeted ads.
        vocab_only = [f"v{i}" for i in range(10)]
        cfg = sim_config_from_dict({
            "world": world_dict(edges=[{"tracker": "t1", "advertiser": "a1",
                                        "reliability": 1.0}]),
            "run": {"personas": [{"id": "pb", "group": "g1", "blocked": ["t1"]}],
                    "runs": 5},
        })
        world = cfg.world
        ads, _, _ = simulate_logs(world, cfg.personas, cfg.runs, seed=4)
        for ad in ads:
            assert not set(ad["tokens"]) & set(vocab_only)

    def test_persona_order_does_not_change_logs(self):
        personas = [{"id": f"p{i}", "group": "g1", "blocked": []} for i in range(6)]
        cfg = make_config(personas=personas, runs=2)
        world = cfg.world
        logs1 = simulate_logs(world, cfg.personas, cfg.runs, seed=6)
        logs2 = simulate_logs(world, tuple(reversed(cfg.personas)), cfg.runs, seed=6)
        assert logs1 == logs2

    def test_same_seed_identical_different_seed_differs(self):
        cfg = make_config(runs=2, advertisers=[
            {"id": "a1", "base_bid": 1.0, "bid_noise_sd": 0.5, "creative_length": 4},
            {"id": "a2", "base_bid": 1.0, "bid_noise_sd": 0.5, "creative_length": 4}])
        world = cfg.world
        ads1, _, _ = simulate_logs(world, cfg.personas, cfg.runs, seed=7)
        ads2, _, _ = simulate_logs(world, cfg.personas, cfg.runs, seed=7)
        ads3, _, _ = simulate_logs(world, cfg.personas, cfg.runs, seed=8)
        assert ads1 == ads2
        assert ads1 != ads3

    def test_one_outcome_per_slot(self):
        personas = [{"id": f"p{i}", "group": "g1", "blocked": []} for i in range(4)]
        slots = [{"id": f"s{i}", "website": "collect1", "floor_price": 0.1,
                  "mechanism": m}
                 for i, m in enumerate(["rtb_waterfall", "hb_client", "hb_server"])]
        cfg = make_config(personas=personas, runs=3, slots=slots, advertisers=[
            {"id": "a1", "base_bid": 1.0, "bid_noise_sd": 0.3, "creative_length": 4},
            {"id": "a2", "base_bid": 1.0, "bid_noise_sd": 0.3, "creative_length": 4}])
        world = cfg.world
        ads, _, _ = simulate_logs(world, cfg.personas, cfg.runs, seed=8)
        keys = [(a["run"], a["persona"], a["slot"]) for a in ads]
        assert len(keys) == len(set(keys))
        assert len(keys) <= 3 * 4 * 3

    def test_hb_server_suppresses_bidlog(self):
        slots = [{"id": "s1", "website": "collect1", "floor_price": 0.1,
                  "mechanism": "hb_server"}]
        cfg = make_config(slots=slots)
        world = cfg.world
        ads, _, bids = simulate_logs(world, cfg.personas, cfg.runs, seed=9)
        assert bids == []
        assert ads  # delivery still happens

    def test_hb_client_logs_all_bids(self):
        cfg = make_config(advertisers=[
            {"id": "a1", "base_bid": 1.0, "creative_length": 4},
            {"id": "a2", "base_bid": 0.9, "creative_length": 4}])
        world = cfg.world
        _, _, bids = simulate_logs(world, cfg.personas, 1, seed=10)
        assert {b["advertiser"] for b in bids} == {"a1", "a2"}

    def test_zero_slots_rejected(self):
        cfg = sim_config_from_dict({
            "world": {**world_dict(), "slots": []},
            "run": {"personas": [{"id": "p1", "group": "g1"}], "runs": 1},
        })
        world = cfg.world
        with pytest.raises(ConfigError, match="slot"):
            simulate_logs(world, cfg.personas, 1, seed=1)

    def test_batched_draws_match_scalar_oracle(self):
        # Random worlds with every mechanism, RTB tiers (including none),
        # zero and non-zero noise, partial observation and blocking: the
        # simulator's batched draws give the logs of one scalar draw at a
        # time, float for float.
        rand = random.Random(3)
        for case in range(40):
            groups = [{"id": f"g{i}", "vocabulary": [f"v{i}-{j}" for j in range(rand.randint(1, 9))]}
                      for i in range(rand.randint(1, 2))]
            sites = [{"id": f"s{i}", "group": rand.choice([None, *(g["id"] for g in groups)])}
                     for i in range(5)]
            trackers = [{"id": f"t{i}", "observe_prob": rand.choice([0.0, 0.6, 1.0]),
                         "site_coverage": rand.sample([s["id"] for s in sites], rand.randint(0, 3))}
                        for i in range(rand.randint(1, 4))]
            advertisers = [{"id": f"a{i}", "base_bid": rand.choice([0.0, 0.6, 1.0]),
                            "knowledge_boost": rand.choice([0.0, 0.4]),
                            "bid_noise_sd": rand.choice([0.0, 0.5, 2.0]),
                            "creative_length": rand.randint(1, 9)}
                           for i in range(rand.randint(1, 5))]
            ids = [a["id"] for a in advertisers]
            slots = []
            for i in range(rand.randint(1, 5)):
                mechanism = rand.choice(["rtb_waterfall", "hb_client", "hb_server"])
                slot = {"id": f"slot{i}", "website": rand.choice(sites)["id"],
                        "floor_price": rand.choice([0.0, 0.5, 1.2]), "mechanism": mechanism}
                if mechanism == "rtb_waterfall" and rand.random() < 0.5:
                    slot["tiers"] = [rand.sample(ids, rand.randint(1, len(ids)))
                                     for _ in range(rand.randint(0, 3))]
                slots.append(slot)
            cfg = sim_config_from_dict({
                "world": world_dict(
                    groups=groups, websites=sites, trackers=trackers,
                    advertisers=advertisers, slots=slots,
                    pool=[f"gen{j}" for j in range(rand.choice([1, 7, 300]))],
                    edges=[{"tracker": t["id"], "advertiser": aid,
                            "reliability": rand.choice([0.5, 1.0])}
                           for t in trackers for aid in ids if rand.random() < 0.5],
                    sync_pairs=[[trackers[0]["id"], ids[0]]] if rand.random() < 0.5 else None),
                "run": {"personas": [{"id": f"p{j}", "group": rand.choice(groups)["id"],
                                      "blocked": rand.sample([t["id"] for t in trackers],
                                                             rand.randint(0, len(trackers)))}
                                     for j in range(rand.randint(1, 4))],
                        "runs": rand.randint(1, 3)}})
            assert_texts_match_scalar_oracle(cfg.world, cfg.personas,
                                             cfg.runs, case)

    @pytest.mark.parametrize("seed", [0, 1, 2, 5])
    def test_ties_and_floor_boundaries_match_scalar_oracle(self, seed):
        # Zero noise, so bids tie exactly: a1, a2 and a3 always bid 1.0, a4
        # 1.0 when it knows the persona (0.5 + 0.5) and 0.5 otherwise, a0
        # 0.0.  Ties go to the lowest id, and a bid equal to the floor
        # sells.
        advertisers = [{"id": aid, "base_bid": 1.0, "creative_length": 3}
                       for aid in ("a1", "a2", "a3")]
        advertisers += [{"id": "a4", "base_bid": 0.5, "knowledge_boost": 0.5,
                         "creative_length": 2},
                        {"id": "a0", "base_bid": 0.0, "creative_length": 1}]
        slots = [
            # tier in reverse id order: a1 wins the four-way tie at the floor
            {"id": "s1", "website": "collect1", "floor_price": 1.0,
             "mechanism": "rtb_waterfall", "tiers": [["a4", "a3", "a2", "a1"]]},
            # a4 in two tiers: it sells in the first when it knows the
            # persona, else a2 wins the second tier's tie
            {"id": "s2", "website": "collect1", "floor_price": 1.0,
             "mechanism": "rtb_waterfall", "tiers": [["a4"], ["a3", "a4", "a2"]]},
            # no tiers: never sold
            {"id": "s3", "website": "collect1", "floor_price": 0.0,
             "mechanism": "rtb_waterfall", "tiers": []},
            # an empty tier, then a zero bid at a zero floor
            {"id": "s4", "website": "collect1", "floor_price": 0.0,
             "mechanism": "rtb_waterfall", "tiers": [[], ["a0"]]},
            {"id": "s5", "website": "collect1", "floor_price": 1.0, "mechanism": "hb_client"},
            # a floor one ulp above every bid: never sold
            {"id": "s6", "website": "collect1", "floor_price": 1.0000000000000002,
             "mechanism": "hb_server"},
            {"id": "s7", "website": "collect1", "floor_price": 1.0,
             "mechanism": "rtb_waterfall"},
        ]
        cfg = make_config(
            personas=[{"id": f"p{i}", "group": "g1", "blocked": blocked}
                      for i, blocked in enumerate([[], ["t1"], [], []])],
            runs=3, advertisers=advertisers, slots=slots,
            edges=[{"tracker": "t1", "advertiser": "a4", "reliability": 0.5}])
        ads, _, bids = assert_texts_match_scalar_oracle(cfg.world, cfg.personas, cfg.runs, seed)
        winners: dict[str, set[str]] = {}
        for ad in map(json.loads, ads.splitlines()):
            winners.setdefault(ad["slot"], set()).add(ad["advertiser"])
        assert winners["s1"] == winners["s5"] == winners["s7"] == {"a1"}
        assert winners["s4"] == {"a0"}
        assert winners["s2"] == {"a2", "a4"}
        assert "s3" not in winners and "s6" not in winners
        assert len(ads.splitlines()) == 5 * 4 * 3  # five slots sell to every (persona, run)
        assert '"bid":1.0}' in bids and '"bid":0.0}' in bids

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_small_matches_scalar_oracle(self, seed):
        cfg = load_pipeline_config(load_config("small", seed=seed))
        assert_texts_match_scalar_oracle(cfg.sim.world, cfg.sim.personas, 2, seed)

    def test_escaped_ids_and_tokens_match_scalar_oracle(self):
        # Every id and token that reaches a log holds a character the
        # encoder escapes, most also one it writes raw; config loading
        # accepts them all.
        esc = ['"', "\\", "\x01", "\x1f"]
        raw = ["\u2028", "é", "\U0001f600"]
        groups = [{"id": 'g"1', "vocabulary": [f"v{c}{i}" for i, c in enumerate(esc + raw)]}]
        websites = [{"id": "site\\1", "group": 'g"1'}, {"id": 'collect"é', "group": None}]
        trackers = [{"id": 't"1', "site_coverage": ["site\\1", 'collect"é'], "observe_prob": 1.0},
                    {"id": "t\x01\u20282", "site_coverage": ['collect"é'], "observe_prob": 0.5}]
        advertisers = [{"id": f"a{e}{i}", "base_bid": 1.0, "knowledge_boost": 0.4,
                        "bid_noise_sd": 0.5, "creative_length": 5}
                       for i, e in enumerate(esc[:3])]
        slots = [{"id": f"s{e}{r}{i}", "website": 'collect"é', "floor_price": 0.5, "mechanism": m}
                 for i, (e, r, m) in enumerate(zip(esc, raw, ["hb_client", "rtb_waterfall",
                                                               "hb_server"]))]
        cfg = sim_config_from_dict({
            "world": world_dict(
                groups=groups, websites=websites, trackers=trackers, advertisers=advertisers,
                slots=slots, pool=[f"gen{c}{i}" for i, c in enumerate(raw + esc)],
                edges=[{"tracker": 't"1', "advertiser": 'a"0', "reliability": 1.0}],
                sync_pairs=[['t"1', "t\x01\u20282"], ["t\x01\u20282", "a\\1"]]),
            "run": {"personas": [{"id": 'p"0', "group": 'g"1', "blocked": []},
                                 {"id": "p\\\U0001f6001", "group": 'g"1', "blocked": ['t"1']},
                                 {"id": "pé\x002", "group": 'g"1', "is_control": True}],
                    "runs": 3}})
        texts = assert_texts_match_scalar_oracle(cfg.world, cfg.personas,
                                                 cfg.runs, 1)
        for text in texts:  # each log holds escaped and raw characters
            assert all(c in text for c in ('\\"', "\\u0000", "\u2028", "é")), text

    def test_winner_bid_clears_floor(self):
        # With hb_client slots the winning bid is visible in the bid log.
        slots = [{"id": "s1", "website": "collect1", "floor_price": 1.2,
                  "mechanism": "hb_client"}]
        cfg = make_config(slots=slots, advertisers=[
            {"id": "a1", "base_bid": 1.0, "bid_noise_sd": 0.4, "creative_length": 4}],
            runs=30)
        world = cfg.world
        ads, _, bid_rows = simulate_logs(world, cfg.personas, cfg.runs, seed=11)
        key = ("run", "persona", "slot", "advertiser")
        bids = {tuple(b[k] for k in key): b["bid"] for b in bid_rows}
        assert ads
        assert len(ads) < 30  # some rounds must go unfilled at this floor
        for ad in ads:
            assert bids[tuple(ad[k] for k in key)] >= 1.2
