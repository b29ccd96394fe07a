import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest

from adtomo import cli, parallel, pipeline
from adtomo.errors import ConfigError
from adtomo.pipeline import load_pipeline_config, run_pipeline
from adtomo.tomography import corpus_columns, flag_records

from conftest import ad_log, load_config, simulate_texts
from oracles import DeliveredAd, build_corpus, jsonl_lines


def run_to_dir(doc, tmp_path, name):
    cfg = load_pipeline_config(doc)
    out = tmp_path / name
    run_pipeline(cfg, out)
    return out


# SHA-256 of the simulate artifacts at seed 7, captured from the simulator
# that drew one scalar from numpy per knowledge draw, bid and creative.
SIMULATE_DIGESTS = {
    "small": {
        "adlog.jsonl": "f53828ffb73e9d69d8640d4bf4f4a8984f6067363fada1a993b82ad5bd086d10",
        "requestlog.jsonl": "44522dc4cd2e3d895de9bfc6f47c4bf2c80969d4072f09fd62f7203e0a5a3646",
        "bidlog.jsonl": "a663290178d856acc90531d03c08be4d38e2f4cb73975d039e453b9fcff5ade5",
        "world.json": "249f3c5c0c4fd70c8736431d918376c04dcdcccde1e61b4f7d654833faf4657e",
    },
    "mini": {
        "adlog.jsonl": "f7a52837ef761c90bc17273dac7c5202f58ad4e330347c2d05da282bdbfe4931",
        "requestlog.jsonl": "0fd80d77bbfddf87a383d0cbfca5f96144639a8ea3f0aa57e4975bfb67cabd9c",
        "bidlog.jsonl": "ad32909c8bd960766cfa76ff55bdc9af5688ddeed663a6d065196e6e67aee47b",
        "world.json": "752477a69d81b7b2dd1a0b135bcca0c496106903d3273d2f079dbf41ed8f0cf0",
    },
}


@pytest.mark.parametrize("profile, seed, report_json, report_csv", [
    ("small", 7, "dac58ca6957e8a925b95be61ce72ccb9e6373bb2683f9de3db85c7fe2fcb0819",
     "5d759b9b468c91190b6186c62f2ffd9e0fe316fbdf57eb4eb7c48d715d8986bc"),
    ("mini", 7, "a3e4aeafb48827d003ade3bb53249110abd5643268a17fb0523564812bfd21d6",
     "6d786536707329127b202edd4f730275733ad6353070fb2f8a5065847ea91844"),
])
def test_report_golden_digest(tmp_path, profile, seed, report_json, report_csv):
    # SHA-256 of the inference report, captured from the code that grew the
    # forest on canonicalized per-fold sample lists, and of the simulate
    # artifacts (SIMULATE_DIGESTS).
    out = run_to_dir(load_config(profile, seed=seed), tmp_path, profile)
    expected = {"report.json": report_json, "report.csv": report_csv,
                **SIMULATE_DIGESTS[profile]}
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in expected}
    assert digests == expected


def test_single_edge_world_recovers_exactly_that_edge(tmp_path):
    # Deterministic sharing (reliability 1.0): the advertiser's inferred set
    # must be exactly its one supplying tracker.
    doc = load_config("mini", seed=13)
    doc["sim"]["world"]["edges"] = [
        {"tracker": "t1", "advertiser": "dsp-1", "reliability": 1.0}]
    out = run_to_dir(doc, tmp_path, "single")
    ev = json.loads((out / "evaluation.json").read_text())
    assert ev["inferred_edges"] == [["t1", "dsp-1"]]
    assert (ev["precision"], ev["recall"]) == (1.0, 1.0)


def test_two_edge_world_inferred_subset_nonempty_over_seeds(tmp_path):
    # dsp-2 is fed by both t2 and t5: inferences stay inside the true supplier
    # set and never come back empty.
    hits = 0
    for seed in (1, 2, 3, 4, 5):
        doc = load_config("small", seed=seed)
        doc["sim"]["world"]["edges"] = [
            {"tracker": "t2", "advertiser": "dsp-2", "reliability": 1.0},
            {"tracker": "t5", "advertiser": "dsp-2", "reliability": 1.0}]
        out = run_to_dir(doc, tmp_path, f"two_{seed}")
        report = json.loads((out / "report.json").read_text())
        row = {r["advertiser"]: r for r in report["advertisers"]}["dsp-2"]
        assert set(row["inferred"]) <= {"t2", "t5"}, row
        hits += bool(row["inferred"])
    assert hits == 5


def test_records_artifact_round_trips(tmp_path):
    out = run_to_dir(load_config("mini", seed=4), tmp_path, "roundtrip")
    lines = (out / "records.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert records
    corpus_tokens = set(json.loads((out / "corpus.json").read_text())["tokens"])
    personas = {p["id"] for p in json.loads((out / "personas.json").read_text())}
    for rec in records:
        assert set(rec) == {"advertiser", "persona", "run", "counts",
                            "is_different_from_control"}
        assert rec["persona"] in personas
        assert isinstance(rec["is_different_from_control"], bool)
        assert set(rec["counts"]) <= corpus_tokens
        assert all(c >= 1 for c in rec["counts"].values())


def _odd_tokens_and_advertisers(doc: dict) -> dict:
    """``doc`` with a quote, a backslash, non-ASCII, U+2028 or an emoji in
    every token and advertiser id."""
    text = json.dumps(doc)
    for plain, odd in (("w-", 'w\\"\u2028-'), ("gen-", "gen\\\\é-"),
                       ("dsp-", 'dsp\\"\U0001f600-')):
        text = text.replace(plain, odd)
    return json.loads(text)


@pytest.mark.parametrize("odd", [False, True], ids=["small", "small_odd_strings"])
def test_records_lines_equal_dict_encoded_records(tmp_path, odd):
    # records.jsonl is built from pre-encoded fragments; it must hold the
    # lines jsonl_lines encodes from each flagged record as a dict.
    doc = load_config("small", seed=7)
    cfg = load_pipeline_config(_odd_tokens_and_advertisers(doc) if odd else doc)
    out = tmp_path / "out"
    pipeline.stage_simulate(cfg, out)
    pipeline.stage_flag(cfg, out)
    ads = [DeliveredAd(**json.loads(line))
           for line in (out / "adlog.jsonl").read_text(encoding="utf-8").split("\n")[:-1]]
    tokens = list(build_corpus(a.tokens for a in ads))
    if odd:
        assert all('"' in t or "\\" in t for t in tokens)
    log = ad_log(ads, *pipeline._ad_names(cfg))
    log_tokens, column = corpus_columns(log)
    assert log_tokens == tokens
    personas = sorted(p.id for p in cfg.sim.personas if not p.is_control)
    expected = "".join(jsonl_lines(
        {"advertiser": advertiser, "persona": persona, "run": run,
         "counts": {tokens[i]: vector[i] for i in sorted(vector)},
         "is_different_from_control": flag}
        for advertiser in sorted(a.id for a in cfg.sim.world.advertisers)
        for persona, run, vector, flag in flag_records(log, advertiser, column, personas,
                                                       cfg.sim.runs, cfg.stats)))
    assert (out / "records.jsonl").read_bytes() == expected.encode("utf-8")


def test_control_records_feed_flags_but_not_inference(tmp_path):
    out = run_to_dir(load_config("mini", seed=4), tmp_path, "controls")
    records = [json.loads(line)
               for line in (out / "records.jsonl").read_text().splitlines()]
    controls = {p["id"] for p in json.loads((out / "personas.json").read_text())
                if p["is_control"]}
    assert controls
    assert not any(rec["persona"] in controls for rec in records)


def test_report_csv_mirrors_report_json(tmp_path):
    import csv

    out = run_to_dir(load_config("mini", seed=6), tmp_path, "csv")
    report = json.loads((out / "report.json").read_text())
    with (out / "report.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    by_adv = {r["advertiser"]: r for r in report["advertisers"]}
    trackers = report["trackers"]
    assert len(rows) == len(by_adv) * len(trackers)
    for row in rows:
        adv = by_adv[row["advertiser"]]
        assert float(row["gain"]) == pytest.approx(adv["gains"][row["tracker"]])
        assert (row["inferred"] == "True") == (row["tracker"] in adv["inferred"])
        assert float(row["holdout_accuracy"]) == pytest.approx(adv["holdout_accuracy"])


def test_profiles_all_load_and_validate():
    for name in ("small", "empty", "h1", "mini", "desk"):
        cfg = load_pipeline_config(load_config(name))
        assert cfg.sim.runs >= 1
    desk = load_pipeline_config(load_config("desk"))
    assert len(desk.sim.world.trackers) == 10
    assert len([p for p in desk.sim.personas if not p.is_control]) == 1024
    assert len([p for p in desk.sim.personas if p.is_control]) == 100


def test_cross_field_validation_paths():
    doc = load_config("mini")
    doc["holdout_runs"] = 6  # == runs
    with pytest.raises(ConfigError, match="holdout_runs"):
        load_pipeline_config(doc)
    doc["holdout_runs"] = 0  # infer would find no holdout records
    with pytest.raises(ConfigError, match=r"holdout_runs must be in \[1, runs=6\), got 0"):
        load_pipeline_config(doc)
    doc = load_config("mini")
    doc["accuracy_threshold"] = 1.5
    with pytest.raises(ConfigError, match="accuracy_threshold"):
        load_pipeline_config(doc)


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_write_pooled_writes_the_joined_pieces(tmp_path, monkeypatch, n_cpus):
    # Per item and artifact, pieces as lists and as a lazy iterator; empty
    # pieces, an item with none, CR and CRLF (written untranslated), and
    # characters of two, three and four UTF-8 bytes.
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: set(range(n_cpus)))
    items = [(["a\n", "", "é\r\n"], iter(["x\u2028", "\U0001f600\n"])),
             ([], ["\r", ""]),
             (["tail"], iter([]))]
    expected = ["a\né\r\n" + "tail", "x\u2028\U0001f600\n" + "\r"]  # item by item
    pipeline._write_pooled(tmp_path, ("a.jsonl", "b.jsonl"), lambda item: item, items)
    assert [(tmp_path / name).read_bytes() for name in ("a.jsonl", "b.jsonl")] == [
        text.encode("utf-8") for text in expected]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.jsonl", "b.jsonl"]


# --------------------------------------------------------------------------
# adlog.jsonl read in runs of lines
# --------------------------------------------------------------------------

@pytest.fixture(params=[1, 2, 3], ids=["one_cpu", "two_cpus", "three_cpus"])
def small_spans(request, monkeypatch):
    """adlog.jsonl cut into runs of a few hundred bytes, one per CPU; the
    number of CPUs, which is also the number of runs of ``_line_spans``.
    Returns the span counts ``_line_spans`` gave."""
    monkeypatch.setattr(pipeline, "_SPAN_BYTES", 300)
    monkeypatch.setattr(parallel.os, "sched_getaffinity",
                        lambda pid: set(range(request.param)))
    counts = []
    real = pipeline._line_spans

    def spy(*args):
        spans = real(*args)
        counts.append(len(spans))
        return spans

    monkeypatch.setattr(pipeline, "_line_spans", spy)
    return request.param, counts


def _mini_adlog(odd: bool = False, extra_tokens: tuple[str, ...] = ()
                ) -> tuple[str, tuple[list[str], list[str], list[str]]]:
    """(text, names): the ``adlog.jsonl`` mini simulates at seed 3, and the
    names (``pipeline._ad_names``) of its config with ``extra_tokens`` added
    to the generic pool."""
    doc = load_config("mini", seed=3)
    if odd:
        doc = _odd_tokens_and_advertisers(doc)
    cfg = load_pipeline_config(doc)
    text = simulate_texts(cfg.sim.world, cfg.sim.personas, cfg.sim.runs, cfg.seed)[0]
    doc["sim"]["world"]["generic_pool"] += extra_tokens
    return text, pipeline._ad_names(load_pipeline_config(doc))


def _assert_same_log(log, expected):
    for field, got, want in zip(log._fields, log, expected):
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want), field
        else:
            assert got == want, field


@pytest.mark.parametrize("order", ["simulated", "odd_strings", "shuffled"])
def test_span_read_equals_per_ad_columns(tmp_path, small_spans, order):
    cpus, counts = small_spans
    # In the shuffled log, an ad holding a token with an escaped LF and one
    # with a lone surrogate, both in the config's generic pool.
    text, names = _mini_adlog(odd=order == "odd_strings",
                              extra_tokens=("a\nb", "\ud800") if order == "shuffled" else ())
    lines = text.split("\n")[:-1]
    if order == "shuffled":
        lines.append('{"run":1,"persona":"ctrl-000","slot":"s","advertiser":"dsp-2",'
                     '"tokens":["a\\nb","\\ud800","gen-0001"]}')
        random.Random(5).shuffle(lines)
    (tmp_path / "adlog.jsonl").write_text("".join(line + "\n" for line in lines),
                                          encoding="utf-8", errors="surrogatepass")
    log = pipeline._read_ad_columns(tmp_path, 6, names)
    assert counts == [cpus]
    _assert_same_log(log, ad_log((DeliveredAd(**json.loads(line)) for line in lines), *names))
    assert list(tmp_path.iterdir()) == [tmp_path / "adlog.jsonl"]  # no file beside the log


def test_span_read_opens_no_file_for_writing(tmp_path, small_spans, monkeypatch):
    text, names = _mini_adlog()
    path = tmp_path / "adlog.jsonl"
    path.write_text(text, encoding="utf-8")
    real_open = Path.open

    def read_only_open(self, mode="r", *args, **kwargs):  # forked workers inherit it
        if set(mode) & set("wax+"):
            raise AssertionError(f"{self} opened for writing (mode {mode!r})")
        return real_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", read_only_open)
    log = pipeline._read_ad_columns(tmp_path, 6, names)
    assert small_spans[1] == [small_spans[0]]
    assert len(log.run) == text.count("\n")
    assert list(tmp_path.iterdir()) == [path]


def test_h1_matrix_golden_digest(tmp_path):
    # SHA-256 of h1_matrix.csv for the h1 profile at seed 3, criterion 5's
    # world: the other h1 tests compare runs, this one pins the bytes.
    cfg = load_pipeline_config(load_config("h1", seed=3))
    pipeline.stage_simulate(cfg, tmp_path)
    pipeline.stage_h1(cfg, tmp_path)
    assert hashlib.sha256((tmp_path / "h1_matrix.csv").read_bytes()).hexdigest() == (
        "b8846cfc2f5ce22395c5b1f69600dc4ae34edee9c9ebb01d888623a8447a9580")


def test_h1_matrix_does_not_depend_on_spans(tmp_path, small_spans, monkeypatch):
    cfg = load_pipeline_config(load_config("h1", seed=3))
    out = tmp_path / "out"
    pipeline.stage_simulate(cfg, out)
    monkeypatch.setattr(pipeline, "_SPAN_BYTES", 1 << 20)
    pipeline.stage_h1(cfg, out)
    whole = (out / "h1_matrix.csv").read_bytes()
    monkeypatch.setattr(pipeline, "_SPAN_BYTES", 300)
    pipeline.stage_h1(cfg, out)
    assert (out / "h1_matrix.csv").read_bytes() == whole
    assert small_spans[1] == [1, small_spans[0]]


@pytest.mark.parametrize("bad", [(100, 300), (300,), (300, 100)],
                         ids=["both_runs", "second_run", "both_runs_reversed"])
def test_earliest_bad_line_wins_across_spans(tmp_path, small_spans, bad):
    text, names = _mini_adlog()
    lines = text.split("\n")[:-1]
    # two different errors, so the message shows which line won
    lines[bad[0] - 1] = '{"run":0,"persona":"p","slot":"s","advertiser":"a","tokens":[1]}'
    if len(bad) > 1:
        lines[bad[1] - 1] = lines[bad[1] - 1][:-1]
    path = tmp_path / "adlog.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        pipeline._read_ad_columns(tmp_path, 6, names)
    first = min(bad)
    problem = ("field 'tokens' must be a JSON list of strings" if first == bad[0]
               else "invalid JSON (Expecting ',' delimiter, column")
    assert str(info.value).startswith(f"{path}:{first}: {problem}")
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("stage", ["flag", "h1"])
@pytest.mark.parametrize("edit, problem", [
    ({"persona": "ghost"}, "persona 'ghost'"),
    ({"advertiser": "dsp-9"}, "advertiser 'dsp-9'"),
    ({"tokens": ["gen-0001", "a\nb"]}, "token 'a\\nb'"),
], ids=["persona", "advertiser", "token"])
def test_name_missing_from_config_exits_2_at_its_line(tmp_path, small_spans, capsys, stage,
                                                      edit, problem):
    doc = load_config("mini", seed=3)
    config = tmp_path / "mini.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    pipeline.stage_simulate(load_pipeline_config(doc), out)
    path = out / "adlog.jsonl"
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    lines[99] = json.dumps({**json.loads(lines[99]), **edit})
    lines[299] = lines[299][:-1]  # a later malformed line, in a later span when there are two
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    capsys.readouterr()
    assert cli.main([stage, "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"adtomo: config error: {path}:100: {problem} "
                                       "is missing from the config\n")
    assert not list(out.glob(".*.part"))


def _text_lines(path) -> list[str]:
    """The lines of ``path`` as a UTF-8 text file reads them: universal
    newlines."""
    with open(path, encoding="utf-8") as fh:
        return list(fh)


@pytest.mark.parametrize("ending", ["crlf", "lone_cr", "blank_lines"])
def test_line_endings_across_spans(tmp_path, small_spans, ending):
    text, names = _mini_adlog()
    lines = text.split("\n")[:-1]
    if ending == "crlf":
        text = "".join(line + "\r\n" for line in lines)
    elif ending == "lone_cr":  # every other line ends at a CR, so each LF line holds two
        text = "".join(line + "\r\n"[i % 2] for i, line in enumerate(lines))
    else:
        text = "".join(line + ("\n\n \t\r\n\x0c\n" if i % 7 == 0 else "\n")
                       for i, line in enumerate(lines))
    path = tmp_path / "adlog.jsonl"
    path.write_text(text + "{", encoding="utf-8", newline="")
    with pytest.raises(ConfigError) as info:
        pipeline._read_ad_columns(tmp_path, 6, names)
    # the line number a text-mode reader gives the unfinished last line
    assert str(info.value).startswith(f"{path}:{len(_text_lines(path))}: invalid JSON (")
    path.write_text(text, encoding="utf-8", newline="")
    _assert_same_log(pipeline._read_ad_columns(tmp_path, 6, names),
                     ad_log((DeliveredAd(**json.loads(line)) for line in lines), *names))
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("text", ["", "\n" * 1000, "\r\n" * 500, " \r" * 500],
                         ids=["zero_bytes", "lf", "crlf", "lone_cr"])
def test_log_without_ads_across_spans(tmp_path, small_spans, text):
    path = tmp_path / "adlog.jsonl"
    path.write_text(text, encoding="utf-8", newline="")
    with pytest.raises(ConfigError, match="holds no ads"):
        pipeline._read_ad_columns(tmp_path, 6, ([], [], []))
    assert list(tmp_path.iterdir()) == [path]
