import hashlib
import json
import re

import numpy as np
import pytest

from adtomo import pipeline, tomography
from adtomo.ecosim import enumerate_personas, sim_config_from_dict
from adtomo.errors import ConfigError
from adtomo.forest import HyperGrid
from adtomo.pipeline import load_pipeline_config
from adtomo.rng import substream
from adtomo.stattest import StatConfig
from adtomo.evaluation import evaluate
from adtomo.tomography import (
    Flags,
    corpus_columns,
    flag_records,
    group_run_vectors,
    h1_similarity_matrix,
    holdout_mask,
    infer_relationships,
    run_inference,
)

from conftest import ad_log, load_config, simulate_logs
from oracles import (DeliveredAd, VectorRecord, build_corpus, chi2_by_dense_tables,
                     chi2_by_union_tables, vectorize_tokens)
from oracles import collate as collate_by_ads


def enumerated(trackers):
    """The non-control personas ``enumerate_personas`` builds over a world
    holding ``trackers``."""
    world = sim_config_from_dict({"world": {
        "generic_pool": ["gen0"], "groups": [{"id": "g1", "vocabulary": ["v0"]}],
        "websites": [{"id": "site1", "group": "g1"}, {"id": "collect1", "group": None}],
        "trackers": [{"id": t, "site_coverage": []} for t in trackers],
        "advertisers": [{"id": "a1", "base_bid": 1.0, "creative_length": 4}],
        "edges": [], "sync_pairs": [],
        "slots": [{"id": "s1", "website": "collect1", "floor_price": 0.1,
                   "mechanism": "hb_client"}],
    }, "run": {"personas": [{"id": "p1", "group": "g1"}], "runs": 1}}).world
    return enumerate_personas(world, "g1", controls=0)


class TestEnumerate:
    def test_zero_trackers(self):
        personas = enumerated([])
        assert [p.id for p in personas] == ["p-0"]
        assert personas[0].blocked == ()

    def test_two_trackers_power_set(self):
        personas = enumerated(["t1", "t2"])
        assert [p.blocked for p in personas] == [(), ("t1",), ("t2",), ("t1", "t2")]
        assert [p.id for p in personas] == ["p-00", "p-01", "p-10", "p-11"]

    def test_ten_trackers_full_combinatorics(self):
        personas = enumerated([f"t{i:02d}" for i in range(10)])
        assert len(personas) == 1024
        assert [int(p.id[2:], 2) for p in personas] == list(range(1024))
        assert len({p.blocked for p in personas}) == 1024

    def test_bit_order_is_lexicographic(self):
        personas = enumerated(["zeta", "alpha"])
        assert personas[1].blocked == ("alpha",)  # bit 0 = lexicographically first
        assert personas[1].id == "p-01"


def corpus_of(*tokens):
    return {t: i for i, t in enumerate(sorted(tokens))}


def flag_log(log, column, personas, runs, config=StatConfig()):
    """``flag_records`` of every advertiser of ``log``, advertisers sorted,
    as (advertiser, persona, run, vector, flag) rows over the non-control
    ``personas`` and runs ``0 .. runs - 1``; every other persona of the log
    is a control."""
    return [(advertiser, *row) for advertiser in sorted(log.advertisers)
            for row in flag_records(log, advertiser, column, personas, runs, config)]


def log_grid(log, controls=()):
    """(personas, runs) of the grid ``log`` spans: its personas outside
    ``controls``, sorted, and its runs up to its last."""
    return sorted(set(log.personas) - set(controls)), int(log.run.max(initial=-1)) + 1


def summed_vectors(records, advertiser, run):
    """The elementwise sum of the vectors of the (advertiser, run) records."""
    summed: dict[int, int] = {}
    for r in records:
        if (r.advertiser, r.run) == (advertiser, run):
            for i, c in r.vector.items():
                summed[i] = summed.get(i, 0) + c
    return summed


def collate_observed(ads, corpus, controls=()):
    """The vector records of ``flag_log`` over the ads ``ads`` and the
    columns of ``corpus``."""
    log = ad_log(ads)
    column = np.array([corpus[t] for t in log.tokens], dtype=np.int64)
    return [VectorRecord(a, p, r, v)
            for a, p, r, v, _ in flag_log(log, column, *log_grid(log, controls))]


class TestCollate:
    def test_merges_per_advertiser_persona_run(self):
        corpus = corpus_of("a", "b")
        ads = [DeliveredAd(1, "p1", "s1", "adv", ("a", "b")),
               DeliveredAd(1, "p1", "s2", "adv", ("a",))]
        records = collate_observed(ads, corpus)
        # Run 0 is a cell of the grid too, with no ad.
        assert [(r.run, r.vector) for r in records] == [
            (0, {}), (1, {corpus["a"]: 2, corpus["b"]: 1})]

    def test_empty_log(self):
        assert collate_observed([], corpus_of("a")) == []

    def test_grid_cells_without_ads_are_empty_and_unflagged(self):
        # The grid, not the log, names the records: a persona, a run and an
        # advertiser without ads each get empty vectors, flagged False.
        log = ad_log([DeliveredAd(0, "p1", "s1", "adv", ("a",) * 30),
                      DeliveredAd(0, "ctrl", "s1", "adv", ("b",) * 30)],
                     advertisers=["adv", "ghost"])
        column = np.arange(len(log.tokens))
        assert flag_records(log, "adv", column, ["p0", "p1"], 2) == [
            ("p0", 0, {}, False), ("p0", 1, {}, False),
            ("p1", 0, {0: 30}, True), ("p1", 1, {}, False)]
        assert flag_records(log, "ghost", column, ["p0", "p1"], 2) == [
            (p, r, {}, False) for p in ("p0", "p1") for r in (0, 1)]

    def test_cross_product_includes_zero_vectors(self):
        corpus = corpus_of("a")
        ads = [DeliveredAd(0, "p1", "s1", "adv1", ("a",)),
               DeliveredAd(0, "p2", "s1", "adv2", ("a",))]
        records = collate_observed(ads, corpus)
        assert len(records) == 4
        zero = [r for r in records if r.advertiser == "adv1" and r.persona == "p2"]
        assert zero[0].vector == {}

    def test_mass_preserved_against_groupby_oracle(self):
        rng = np.random.default_rng(0)
        tokens = [f"w{i}" for i in range(40)]
        corpus = corpus_of(*tokens)
        ads = []
        for _ in range(1000):
            ads.append(DeliveredAd(
                int(rng.integers(3)), f"p{rng.integers(4)}", f"s{rng.integers(2)}",
                f"adv{rng.integers(3)}",
                tuple(tokens[i] for i in rng.integers(0, 40, size=6))))
        records = collate_observed(ads, corpus)
        oracle = {}
        for ad in ads:
            key = (ad.advertiser, ad.persona, ad.run)
            oracle[key] = oracle.get(key, 0) + len(ad.tokens)
        for rec in records:
            key = (rec.advertiser, rec.persona, rec.run)
            assert sum(rec.vector.values()) == oracle.get(key, 0)

    def test_collation_conservation_per_persona_run(self):
        rng = np.random.default_rng(1)
        tokens = [f"w{i}" for i in range(10)]
        corpus = corpus_of(*tokens)
        ads = [DeliveredAd(int(rng.integers(2)), f"p{rng.integers(3)}", "s1",
                           f"adv{rng.integers(2)}",
                           tuple(tokens[i] for i in rng.integers(0, 10, size=5)))
               for _ in range(200)]
        records = collate_observed(ads, corpus)
        for persona in {a.persona for a in ads}:
            for run in {a.run for a in ads}:
                log_mass = sum(len(a.tokens) for a in ads
                               if a.persona == persona and a.run == run)
                rec_mass = sum(sum(r.vector.values()) for r in records
                               if r.persona == persona and r.run == run)
                assert rec_mass == log_mass


# (advertisers, personas, runs, ads, vocabulary, string prefix) per case: a
# few ads per (advertiser, persona, run) cell, so many cells hold none, and
# creatives of up to 8 tokens from a small vocabulary, so most repeat one.
# The odd prefix is the quote, U+2028, backslash, non-ASCII and emoji of
# ``test_pipeline._odd_tokens_and_advertisers``.
COLLATE_CASES = {
    "random": (4, 7, 3, 60, 6, ""),
    "one_advertiser": (1, 5, 4, 25, 5, ""),
    "odd_strings": (3, 4, 3, 40, 6, 'w"\u2028\\é\U0001f600-'),
}


@pytest.mark.parametrize("case", sorted(COLLATE_CASES))
def test_columnar_collation_equals_per_ad_oracle(tmp_path, case):
    n_adv, n_personas, n_runs, n_ads, n_vocab, prefix = COLLATE_CASES[case]
    rng = np.random.default_rng(sorted(COLLATE_CASES).index(case))
    vocab = [f"{prefix}t{i}" for i in range(n_vocab)]
    # Even runs only, and below a persona without ads: the grid holds every
    # run 0 .. runs - 1 and every persona it is given, whether it won ads or not.
    ads = [DeliveredAd(2 * int(rng.integers(n_runs)), f"p{rng.integers(n_personas)}", "s1",
                       f"{prefix}adv{rng.integers(n_adv)}",
                       tuple(vocab[i] for i in rng.integers(0, n_vocab,
                                                            size=rng.integers(0, 9))))
           for _ in range(n_ads)]
    assert any(len(set(a.tokens)) < len(a.tokens) for a in ads)
    with (tmp_path / "adlog.jsonl").open("w", encoding="utf-8") as fh:
        for a in ads:
            fh.write(json.dumps(vars(a), ensure_ascii=False) + "\n")
    personas, runs = sorted({a.persona for a in ads}), list(range(2 * n_runs))
    # The names of the log: every advertiser and token of the case, held or not.
    names = personas, sorted(f"{prefix}adv{i}" for i in range(n_adv)), sorted(vocab)
    log = pipeline._read_ad_columns(tmp_path, 2 * n_runs, names)
    assert all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
               for a, b in zip(log, ad_log(ads, *names)))
    corpus = build_corpus(a.tokens for a in ads)
    tokens, column = corpus_columns(log)
    assert tokens == list(corpus)
    controls = set(personas[:2])
    grid = sorted({*personas, "p-none"} - controls)
    pooled = []
    real = tomography.flags_against

    def spy(control, vectors, cfg):
        pooled.append(control)
        return real(control, vectors, cfg)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tomography, "flags_against", spy)
        records = [VectorRecord(a, p, r, v)
                   for a, p, r, v, _ in flag_log(log, column, grid, len(runs))]
    oracle = collate_by_ads(ads, corpus, sorted({*personas, "p-none"}), runs)
    assert records == [r for r in oracle if r.persona not in controls]
    assert all(not r.vector for r in records if r.persona == "p-none" or r.run % 2)
    assert any(r.vector for r in records)
    # One flags_against call per (advertiser, run), advertisers sorted and
    # runs ascending, against the elementwise sum of its control records.
    keys = [(a, r) for a in sorted(log.advertisers) for r in runs]
    assert len(pooled) == len(keys)
    oracle_controls = [r for r in oracle if r.persona in controls]
    for (advertiser, run), control in zip(keys, pooled):
        assert control == summed_vectors(oracle_controls, advertiser, run)
    assert any(pooled)

    group_of = {p: f"g{int(p[1:]) % 3}" for p in personas}
    grouped: dict[tuple[str, int], list[str]] = {}
    for a in ads:
        grouped.setdefault((group_of[a.persona], a.run), []).extend(a.tokens)
    expected = {key: {tokens[i]: c for i, c in vectorize_tokens(toks, corpus).items()}
                for key, toks in grouped.items()}
    vectors = group_run_vectors(log, group_of)
    assert {key: {log.tokens[i]: c for i, c in v.items()}
            for key, v in vectors.items()} == expected


def vector_log(records):
    """(log, column): an ad log holding one ad per record, its tokens the
    record's vector spelled out (``c<i>`` ``count`` times per column i; an
    empty vector gives an ad without tokens), and the corpus columns that
    send ``c<i>`` to column i."""
    log = ad_log([DeliveredAd(r.run, r.persona, "s1", r.advertiser,
                              tuple(f"c{i}" for i, c in sorted(r.vector.items())
                                    for _ in range(c)))
                  for r in records])
    used = [int(t[1:]) for t in log.tokens]
    width = max(used, default=-1) + 1
    # The unused columns go to token ids no ad holds: each column is one id's.
    column = np.array(used + sorted(set(range(width)) - set(used)), dtype=np.int64)
    return log, column


def flag_with_results(records, control, config=StatConfig()):
    """(flags, results): the flag ``flag_records`` gives each of ``records``
    against its (advertiser, run)'s pooled ``control`` records, and the
    chi-squared TestResult (None where the table is degenerate) of each,
    in record order.  The records must fill the log's (advertiser,
    non-control persona, run) grid.  flag_records must make one
    flags_against call per (advertiser, run), advertisers sorted and runs
    ascending, over the elementwise sum of that run's control records and
    the vectors of its records, personas sorted, and return the vectors it
    passed; each call's results are the per-record oracle's over the same
    arguments."""
    calls = []
    real = tomography.flags_against

    def spy(pooled, vectors, cfg):
        calls.append((pooled, list(vectors), chi2_by_union_tables(pooled, vectors, cfg)))
        return real(pooled, vectors, cfg)

    log, column = vector_log([*records, *control])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tomography, "flags_against", spy)
        out = flag_log(log, column, *log_grid(log, {r.persona for r in control}), config)
    assert len(out) == len(records)
    index = {(r.advertiser, r.persona, r.run): i for i, r in enumerate(records)}
    groups: dict[tuple[str, int], list] = {}
    for row in out:
        groups.setdefault((row[0], row[2]), []).append(row)
    assert len(calls) == len(groups)
    flags, seen = [None] * len(records), [None] * len(records)
    for ((advertiser, run), rows), (pooled, vectors, results) in zip(sorted(groups.items()),
                                                                      calls):
        assert pooled == summed_vectors(control, advertiser, run)
        assert len(vectors) == len(results) == len(rows)
        for (a, p, r, vector, flag), passed, result in zip(rows, vectors, results):
            i = index[(a, p, r)]
            assert passed is vector and vector == records[i].vector
            flags[i], seen[i] = flag, result
    return flags, seen


def assert_matches_dense(records, control, config=StatConfig(), size=6):
    flags, seen = flag_with_results(records, control, config)
    expected = chi2_by_dense_tables(records, control, size, config)
    assert seen == expected
    assert flags == [e is not None and e.p_value < config.alpha for e in expected]
    return flags


class TestFlagChanges:
    def test_proportional_to_control_not_flagged(self):
        control = [VectorRecord("adv", "ctrl", 0, {0: 30, 1: 60})]
        records = [VectorRecord("adv", "p1", 0, {0: 10, 1: 20})]
        assert flag_with_results(records, control)[0] == [False]

    def test_identical_to_control_not_flagged(self):
        control = [VectorRecord("adv", "ctrl", 0, {0: 20, 1: 20})]
        records = [VectorRecord("adv", "p1", 0, {0: 20, 1: 20})]
        assert flag_with_results(records, control)[0] == [False]

    def test_disjoint_vocabulary_flagged(self):
        # Hand check: columns {0,1} control-only, {2,3} persona-only, all mass
        # >= min_expected; chi-squared is far beyond the df=3 critical value.
        control = [VectorRecord("adv", "ctrl", 0, {0: 30, 1: 30})]
        records = [VectorRecord("adv", "p1", 0, {2: 20, 3: 20})]
        assert flag_with_results(records, control)[0] == [True]

    def test_degenerate_table_flags_false(self):
        control = [VectorRecord("adv", "ctrl", 0, {})]
        records = [VectorRecord("adv", "p1", 0, {0: 1})]
        assert flag_with_results(records, control)[0] == [False]

    def test_zero_ad_advertiser_flags_false(self):
        control = [VectorRecord("adv", "ctrl", 0, {0: 50, 1: 50})]
        records = [VectorRecord("adv", "p1", 0, {})]
        assert flag_with_results(records, control)[0] == [False]

    def test_controls_pooled_across_personas(self):
        # Two thin controls pool into one row with enough mass to test.
        control = [VectorRecord("adv", "c1", 0, {0: 15, 1: 2}),
                   VectorRecord("adv", "c2", 0, {0: 15, 1: 3})]
        records = [VectorRecord("adv", "p1", 0, {1: 25})]
        assert flag_with_results(records, control, StatConfig(min_expected=5))[0] == [True]

    @pytest.mark.parametrize("controls, record, min_expected", [
        pytest.param([{0: 30, 1: 30}], {}, 5, id="empty_record"),
        pytest.param([{}, {}], {0: 9, 1: 9}, 5, id="empty_pooled_control"),
        pytest.param([{}], {}, 5, id="both_empty"),
        pytest.param([{0: 1, 1: 2, 2: 1}], {1: 1, 3: 1}, 5, id="all_low_mass"),
        pytest.param([{0: 20, 1: 1}], {0: 10, 2: 2}, 5, id="single_column_plus_residual"),
        pytest.param([{0: 20}], {0: 10}, 5, id="single_surviving_column"),
        pytest.param([{0: 30, 1: 30}], {4: 20, 5: 20}, 5, id="disjoint_supports"),
        pytest.param([{0: 3, 5: 7}, {2: 4}], {1: 2, 5: 1}, 1, id="interleaved_supports"),
    ])
    def test_edge_cases_match_dense_reference(self, controls, record, min_expected):
        control = [VectorRecord("adv", f"c{i}", 0, c) for i, c in enumerate(controls)]
        records = [VectorRecord("adv", "p1", 0, record)]
        assert_matches_dense(records, control, StatConfig(min_expected=min_expected))

    def test_randomized_records_match_dense_reference(self):
        rng = np.random.default_rng(21)
        size = 30

        def draw():
            support = rng.choice(size, size=int(rng.integers(0, 9)), replace=False)
            return {int(i): int(rng.integers(1, 16)) for i in support}

        for trial in range(40):
            control = [VectorRecord(f"a{a}", f"c{c}", r, draw())
                       for a in range(2) for c in range(2) for r in range(2)]
            records = [VectorRecord(f"a{a}", f"p{p}", r, draw())
                       for a in range(2) for p in range(3) for r in range(2)]
            config = StatConfig(alpha=0.05, min_expected=float([1, 5, 12][trial % 3]))
            assert_matches_dense(records, control, config, size)

    def test_controls_pooled_by_elementwise_sum(self):
        rng = np.random.default_rng(8)
        parts = [{int(i): int(c) for i, c in enumerate(rng.integers(0, 5, size=6)) if c}
                 for _ in range(10)]
        summed = {}
        for part in parts:
            for i, c in part.items():
                summed[i] = summed.get(i, 0) + c
        records = [VectorRecord("adv", "p1", 0, {0: 12, 3: 9, 5: 1})]
        _, split = flag_with_results(
            records, [VectorRecord("adv", f"c{i}", 0, p) for i, p in enumerate(parts)])
        _, pooled = flag_with_results(records, [VectorRecord("adv", "c", 0, summed)])
        assert split == pooled
        assert parts[0] != summed  # pooling built new vectors, the inputs are untouched

    def test_empty_control_is_pooling_identity(self):
        control = {1: 4, 2: 7}
        records = [VectorRecord("adv", "p1", 0, {1: 12, 2: 2, 4: 6})]
        _, alone = flag_with_results(records, [VectorRecord("adv", "c0", 0, control)])
        _, padded = flag_with_results(records, [VectorRecord("adv", "c0", 0, control),
                                                VectorRecord("adv", "c1", 0, {})])
        assert alone == padded
        assert control == {1: 4, 2: 7}

    def test_control_pooling_order_invariant(self):
        rng = np.random.default_rng(9)
        control = [VectorRecord("adv", f"c{i}", 0,
                                {int(j): int(c) for j, c in
                                 zip(rng.integers(0, 6, 5), rng.integers(1, 9, 5))})
                   for i in range(10)]
        records = [VectorRecord("adv", "p1", 0, {1: 20, 2: 4})]
        assert (flag_with_results(records, control)[1]
                == flag_with_results(records, control[::-1])[1])


@pytest.mark.parametrize("seed, digest", [
    (0, "aae2b901eae167277b5e99bb8523060ba41ad01003c970ea0d95644096bc3671"),
    (3, "28e90f440170994947751f7407d9356c7646f3b82fbecf7035403df75ab54c98"),
])
def test_flag_changes_golden_digest_on_small(seed, digest):
    # Digests of the records flag_records gives on the simulated small
    # profile, captured from the dense-table flagging code.
    cfg = load_pipeline_config(load_config("small", seed=seed))
    rows, _, _ = simulate_logs(cfg.sim.world, cfg.sim.personas,
                               cfg.sim.runs, cfg.seed)
    ads = [DeliveredAd(**row) for row in rows]
    corpus = build_corpus(a.tokens for a in ads)
    log = ad_log(ads)
    column = np.array([corpus[t] for t in log.tokens], dtype=np.int64)
    personas = sorted(p.id for p in cfg.sim.personas if not p.is_control)
    payload = json.dumps([[a, p, r, sorted(v.items()), flag] for a, p, r, v, flag
                          in flag_log(log, column, personas, cfg.sim.runs, cfg.stats)])
    assert hashlib.sha256(payload.encode()).hexdigest() == digest


class TestSegment:
    """The split of the runs into cross-validation and holdout runs, and
    the grid of flags it splits."""

    def test_default_eight_two_split(self):
        mask = holdout_mask(10, 2, seed=1)
        assert mask.dtype == bool and mask.shape == (10,)
        assert (mask.sum(), (~mask).sum()) == (2, 8)

    def test_deterministic(self):
        assert np.array_equal(holdout_mask(10, 2, seed=4), holdout_mask(10, 2, seed=4))
        assert len({tuple(holdout_mask(10, 2, seed)) for seed in range(20)}) > 1

    @pytest.mark.parametrize("seed", [0, 3, 7, 11, 12345])
    def test_equals_segment_permutation_draw(self, seed):
        # Records were once split by the runs of this draw: the first
        # holdout_runs of a permutation from the "segment" substream.
        held = substream(seed, "segment").permutation(10)[:2]
        assert np.flatnonzero(holdout_mask(10, 2, seed)).tolist() == sorted(held.tolist())

    def test_missing_run_rejected(self, tmp_path):
        rng = np.random.default_rng(5)
        cells = [(f"a{a}", f"p{p}", r, bool(rng.random() < 0.5))
                 for a in range(2) for p in range(3) for r in range(10)]

        def read(kept):
            lines = [json.dumps({"advertiser": a, "persona": p, "run": r, "counts": {},
                                 "is_different_from_control": f}) for a, p, r, f in kept]
            (tmp_path / "records.jsonl").write_text("\n".join(lines[::-1]) + "\n")
            return pipeline._read_records(tmp_path, {}, ["a0", "a1"], ["p0", "p1", "p2"], 10)

        flags = read(cells)
        assert (flags.advertisers, flags.personas) == (["a0", "a1"], ["p0", "p1", "p2"])
        assert flags.flag.dtype == np.uint8
        assert flags.flag.ravel().tolist() == [f for *_, f in cells]
        # A missing run of a pair, a persona missing for one advertiser, and
        # two missing cells, of which the first in (advertiser, persona, run)
        # order is named.
        for missing, named in [({("a0", "p1", 3)}, ("a0", "p1", 3)),
                               ({("a1", "p2", r) for r in range(10)}, ("a1", "p2", 0)),
                               ({("a1", "p0", 1), ("a0", "p2", 9)}, ("a0", "p2", 9))]:
            with pytest.raises(ConfigError, match=re.escape(
                    f"records.jsonl: no record for (advertiser, persona, run) {named}")):
                read([c for c in cells if c[:3] not in missing])


class TestInferenceRule:
    def test_below_threshold_empty(self):
        gains = [0.9] + [0.1 / 9] * 9
        assert infer_relationships(gains, 0.55, 0.60, [f"t{i}" for i in range(10)]) == ()

    def test_uniform_gains_empty(self):
        assert infer_relationships([0.1] * 10, 0.99, 0.6,
                                   [f"t{i}" for i in range(10)]) == ()

    def test_dominant_gain_fixture_exact_arithmetic(self):
        # gains [0.90, 9 x 0.0111...]: mean 0.1, population sigma 0.2666...,
        # cutoff 0.3666... < 0.90, so exactly the first tracker is inferred
        # at holdout accuracy 0.60 with threshold 0.60.
        gains = [0.90] + [0.1 / 9] * 9
        trackers = [f"t{i}" for i in range(10)]
        mean = float(np.mean(gains))
        sigma = float(np.std(gains))
        assert mean == pytest.approx(0.1, abs=1e-12)
        assert mean + sigma == pytest.approx(11.0 / 30.0, abs=1e-9)
        inferred = infer_relationships(gains, 0.60, 0.60, trackers)
        assert inferred == ("t0",)

    def test_at_threshold_passes_gate(self):
        gains = [0.9, 0.05, 0.05]
        assert infer_relationships(gains, 0.60, 0.60, ["a", "b", "c"]) == ("a",)

    def test_zero_gain_vector_empty(self):
        assert infer_relationships([0.0] * 5, 1.0, 0.6, list("abcde")) == ()


class TestEvaluate:
    def test_perfect(self):
        truth = {("t1", "a1"), ("t2", "a2"), ("t3", "a3")}
        assert evaluate(truth, truth) == (1.0, 1.0)

    def test_half_recall_full_precision(self):
        truth = {("t1", "a1"), ("t2", "a2")}
        assert evaluate({("t1", "a1")}, truth) == (1.0, 0.5)

    def test_hand_computed_mixed(self):
        truth = {("t1", "a1"), ("t2", "a2"), ("t3", "a3"), ("t4", "a4")}
        inferred = {("t1", "a1"), ("t2", "a2"), ("t9", "a1")}
        p, r = evaluate(inferred, truth)
        assert p == pytest.approx(2 / 3, abs=1e-3)
        assert r == 0.5

    def test_empty_empty_convention(self):
        assert evaluate(set(), set()) == (1.0, 1.0)

    def test_empty_inferred_nonempty_truth(self):
        assert evaluate(set(), {("t", "a")}) == (1.0, 0.0)


def _planted_flags(edge_trackers, trackers, runs=10, seed=0):
    """Synthetic flags of one advertiser, one persona per blocking mask:
    flag = every edge tracker blocked (the advertiser lost all its data
    suppliers), plus a little label noise."""
    rng = np.random.default_rng(seed)
    k = len(trackers)
    flag = []
    for mask in range(1 << k):
        blocked = {trackers[i] for i in range(k) if mask >> i & 1}
        cut_off = all(t in blocked for t in edge_trackers)
        flag.append([cut_off if rng.random() > 0.05 else not cut_off for _ in range(runs)])
    return Flags(["adv"], list(_blocking_map(trackers)), np.array([flag], dtype=np.uint8))


def _blocking_map(trackers):
    k = len(trackers)
    return {f"p-{mask:0{k}b}": tuple(t for i, t in enumerate(trackers) if mask >> i & 1)
            for mask in range(1 << k)}


GRID = HyperGrid(n_trees=(20,), max_depth=(3, None), features_per_split=("all",),
                 min_leaf=(1,))
HOLDOUT = np.arange(10) >= 8  # runs 8 and 9


class TestRunInference:
    def test_constant_false_flags_infer_nothing(self):
        trackers = ["t1", "t2", "t3"]
        flags = Flags(["adv"], list(_blocking_map(trackers)), np.zeros((1, 8, 10), np.uint8))
        reports = run_inference(flags, HOLDOUT, GRID, 4, 1, trackers,
                                _blocking_map(trackers))
        assert reports[0].holdout_accuracy == 1.0
        assert reports[0].inferred == ()
        assert all(g == 0.0 for g in reports[0].gains.values())

    def test_single_edge_recovered(self):
        trackers = ["t1", "t2", "t3", "t4"]
        flags = _planted_flags(["t2"], trackers, seed=1)
        reports = run_inference(flags, HOLDOUT, GRID, 4, 2, trackers,
                                _blocking_map(trackers))
        assert reports[0].inferred == ("t2",)
        assert reports[0].holdout_accuracy >= 0.85

    def test_two_edge_inferred_subset_nonempty(self):
        # Needs a tracker universe wider than the edge set: the mean + 1 sigma
        # cutoff cannot single out two 0.5 gains among only three features.
        trackers = [f"t{i}" for i in range(1, 7)]
        hits = 0
        for seed in range(5):
            flags = _planted_flags(["t1", "t3"], trackers, seed=10 + seed)
            reports = run_inference(flags, HOLDOUT, GRID, 4, seed, trackers,
                                    _blocking_map(trackers))
            inferred = set(reports[0].inferred)
            assert inferred <= {"t1", "t3"}
            hits += bool(inferred)
        assert hits == 5

    def test_gate_soundness_on_every_report(self):
        trackers = ["t1", "t2"]
        flags = _planted_flags(["t1"], trackers, seed=3)
        reports = run_inference(flags, HOLDOUT, GRID, 4, 3, trackers,
                                _blocking_map(trackers), accuracy_threshold=0.999)
        for rep in reports:
            if rep.holdout_accuracy < 0.999:
                assert rep.inferred == ()


class TestH1Matrix:
    def test_disjoint_groups_zero_off_diagonal(self):
        vectors = {}
        for run in range(3):
            vectors[("g1", run)] = {0: 5, 1: run + 1}
            vectors[("g2", run)] = {4: 3, 5: run + 2}
        result = h1_similarity_matrix(vectors)
        assert result.means[("g1", "g2")] == 0.0
        assert result.means[("g2", "g1")] == 0.0
        assert result.tests[("g1", "g2")].p_value < 0.05

    def test_identical_documents_diagonal_one(self):
        vectors = {("g1", r): {0: 3, 2: 7} for r in range(4)}
        vectors.update({("g2", r): {1: 2, 3: int(2 + r)} for r in range(4)})
        result = h1_similarity_matrix(vectors)
        assert result.means[("g1", "g1")] == pytest.approx(1.0, abs=1e-12)

    def test_requires_two_runs(self):
        with pytest.raises(ConfigError, match="fewer than 2"):
            h1_similarity_matrix({("g1", 0): {0: 1},
                                  ("g2", 0): {1: 1},
                                  ("g2", 1): {1: 2}})

    def test_within_distribution_excludes_self_pairs(self):
        # Two identical + one orthogonal run: mean over the 3 cross-run pairs
        # is 1/3; self-pairs would pull it toward 1.
        vectors = {("g", 0): {0: 1}, ("g", 1): {0: 1},
                   ("g", 2): {1: 1},
                   ("h", 0): {2: 1}, ("h", 1): {2: 1},
                   ("h", 2): {2: 2}}
        result = h1_similarity_matrix(vectors)
        assert result.means[("g", "g")] == pytest.approx(1 / 3, abs=1e-12)
