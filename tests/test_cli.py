import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from adtomo import cli
from adtomo.pipeline import ARTIFACTS

from conftest import CONFIG_DIR, load_config


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "adtomo.cli", *args],
                          capture_output=True, text=True)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def read_artifacts(out_dir):
    return {name: (Path(out_dir) / name).read_bytes() for name in ARTIFACTS}


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    """One full CLI run on the mini profile, shared by the read-only tests."""
    tmp_path = tmp_path_factory.mktemp("mini")
    cfg_path = write_config(tmp_path, load_config("mini", seed=11))
    out = tmp_path / "out"
    proc = run_cli("run", "--config", str(cfg_path), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return cfg_path, out


class TestRunCommand:
    def test_all_artifacts_written(self, mini_run):
        _, out = mini_run
        for name in ARTIFACTS:
            assert (out / name).exists(), name

    def test_report_parseable_and_gate_sound(self, mini_run):
        _, out = mini_run
        report = json.loads((out / "report.json").read_text())
        threshold = report["config"]["accuracy_threshold"]
        for row in report["advertisers"]:
            if row["holdout_accuracy"] < threshold:
                assert row["inferred"] == []

    def test_report_embeds_resolved_config(self, mini_run):
        cfg_path, out = mini_run
        report = json.loads((out / "report.json").read_text())
        original = json.loads(cfg_path.read_text())
        assert report["config"]["sim"] == original["sim"]
        assert report["config"]["seed"] == 11

    def test_stage_composition_reproduces_run(self, mini_run, tmp_path):
        cfg_path, out = mini_run
        staged = tmp_path / "staged"
        for stage in ["simulate", "flag", "infer", "syncdetect", "evaluate"]:
            proc = run_cli(stage, "--config", str(cfg_path), "--out", str(staged))
            assert proc.returncode == 0, f"{stage}: {proc.stderr}"
        assert read_artifacts(staged) == read_artifacts(out)

    def test_rerunning_infer_on_intermediates_reproduces_report(self, mini_run):
        cfg_path, out = mini_run
        before = {n: (out / n).read_bytes() for n in ("report.json", "report.csv")}
        proc = run_cli("infer", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        after = {n: (out / n).read_bytes() for n in ("report.json", "report.csv")}
        assert before == after

    def test_seed_override_changes_artifacts(self, mini_run, tmp_path):
        cfg_path, out = mini_run
        other = tmp_path / "other_seed"
        proc = run_cli("run", "--config", str(cfg_path), "--out", str(other),
                       "--seed", "999")
        assert proc.returncode == 0
        assert (other / "adlog.jsonl").read_bytes() != (out / "adlog.jsonl").read_bytes()


class TestExitCodes:
    def test_invalid_folds_named_in_diagnostic(self, tmp_path):
        doc = load_config("mini")
        doc["folds"] = 3  # runs - holdout = 4 is not divisible by 3
        proc = run_cli("run", "--config", str(write_config(tmp_path, doc)),
                       "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "folds" in proc.stderr

    def test_non_finite_config_number_names_field(self, tmp_path):
        doc = load_config("mini")
        doc["sim"]["world"]["advertisers"][0]["bid_noise_sd"] = float("nan")
        out = tmp_path / "out"
        proc = run_cli("simulate", "--config", str(write_config(tmp_path, doc)),
                       "--out", str(out))
        assert proc.returncode == 2
        assert "sim.world.advertisers[0].bid_noise_sd" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("section,key,value", [
        ("stats", "min_expected", float("nan")),
        ("stats", "min_expected", float("inf")),
        ("grid", "n_trees", [1.5]),
        ("grid", "n_trees", ["a"]),
        ("grid", "max_depth", [2, "x"]),
        ("grid", "n_trees", 5),
        ("grid", "max_depth", [2.5]),
        ("grid", "min_leaf", [1.5]),
    ], ids=["min_expected_nan", "min_expected_inf", "float_trees", "string_trees",
            "string_depth", "trees_not_list", "float_depth", "float_leaf"])
    def test_bad_stats_or_grid_names_section(self, tmp_path, section, key, value):
        doc = load_config("mini")
        doc[section][key] = value
        out = tmp_path / "out"
        proc = run_cli("run", "--config", str(write_config(tmp_path, doc)), "--out", str(out))
        assert proc.returncode == 2
        assert section in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("edit,named", [
        (lambda doc: doc.update(stat={"alpha": 0.5}), "stat: unknown key"),
        (lambda doc: doc["grid"].update(n_tree=[20]), "grid.n_tree: unknown key"),
        (lambda doc: doc["stats"].update(alhpa=0.1), "stats.alhpa: unknown key"),
        (lambda doc: doc["grid"].update(n_trees=[20, 20]), "grid: grid dimension n_trees"),
        (lambda doc: doc["grid"].update(max_depth=[None, 3, None]),
         "grid: grid dimension max_depth"),
        (lambda doc: doc["sim"].update(bogus=1), "sim.bogus: unknown key"),
        (lambda doc: doc["sim"]["run"].update(bogus=1), "sim.run.bogus: unknown key"),
        (lambda doc: doc["sim"]["run"].update(seed=7), "sim.run.seed: unknown key"),
        (lambda doc: doc["sim"]["world"].update(bogus=1), "sim.world.bogus: unknown key"),
        (lambda doc: doc["sim"]["world"]["advertisers"][0].update(creative_lenght=8),
         "sim.world.advertisers[0].creative_lenght: unknown key"),
        (lambda doc: doc["sim"]["run"].update(personas=[
            {"id": "ctrl", "group": "g1", "is_control": True},
            {"id": "p1", "group": "g1", "blocks": ["t1"]}]),
         "sim.run.personas[1].blocks: unknown key"),
    ], ids=["unknown_top_level", "unknown_grid_key", "unknown_stats_key", "repeated_trees",
            "repeated_depth", "unknown_sim_key", "unknown_sim_run_key", "sim_run_seed",
            "unknown_sim_world_key", "unknown_world_entry_key", "unknown_persona_key"])
    def test_unknown_key_or_repeated_grid_value_names_it(self, tmp_path, edit, named):
        doc = load_config("mini")
        edit(doc)
        out = tmp_path / "out"
        proc = run_cli("run", "--config", str(write_config(tmp_path, doc)), "--out", str(out))
        assert proc.returncode == 2
        assert named in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("edit, named", [
        pytest.param(lambda doc: doc["sim"]["world"]["trackers"].__setitem__(0, 5),
                     "sim.world.trackers[0]: expected an object", id="tracker_not_object"),
        pytest.param(lambda doc: doc["sim"]["run"].update(personas=[5]),
                     "sim.run.personas[0]: expected an object", id="persona_not_object"),
        pytest.param(lambda doc: doc["sim"]["world"]["slots"][0].update(tiers=5),
                     "sim.world.slots[0].tiers: expected list", id="tiers_not_list"),
        pytest.param(lambda doc: doc["sim"]["world"].update(sync_pairs=[5]),
                     "sim.world.sync_pairs[0]: expected a list of strings",
                     id="sync_pair_not_list"),
        pytest.param(lambda doc: doc["sim"]["world"].update(edges=5),
                     "sim.world.edges: expected list", id="edges_not_list"),
        pytest.param(lambda doc: doc["sim"]["world"].update(
            trackers=[doc["sim"]["world"]["trackers"][i] for i in (1, 1, 0, 2)]),
                     "sim.world.trackers[1].id: duplicate id 't2'",
                     id="duplicate_tracker_named_in_config_order"),
        pytest.param(lambda doc: doc["sim"]["world"].update(sync_pairs=[["t1", "t2"]] * 2),
                     "sim.world.sync_pairs[1]: duplicate sync pair ('t1', 't2')",
                     id="repeated_sync_pair"),
        pytest.param(lambda doc: doc["sim"]["world"]["groups"][0].update(vocabulary=[1, "a"]),
                     "sim.world.groups[0].vocabulary: expected a list of strings",
                     id="int_in_vocabulary"),
        pytest.param(lambda doc: doc["sim"]["run"].update(personas=[
            {"id": "ctrl", "group": "g1", "is_control": True},
            {"id": "p1", "group": "g1", "is_control": "no"}]),
                     "sim.run.personas[1].is_control: expected bool", id="is_control_string"),
        pytest.param(lambda doc: doc["sim"]["run"].update(personas=[
            {"id": "ctrl", "group": "g1", "is_control": True},
            {"id": "p1", "group": "g1", "blocked": "t1"}]),
                     "sim.run.personas[1].blocked: expected a list of strings",
                     id="blocked_string"),
        pytest.param(lambda doc: doc["sim"]["world"]["slots"][2].update(mechanism="vickrey"),
                     "sim.world.slots[2].mechanism: mechanism must be one of "
                     "('rtb_waterfall', 'hb_client', 'hb_server'), got 'vickrey'",
                     id="unknown_mechanism"),
        pytest.param(lambda doc: doc["sim"]["run"].update(personas=[
            {"id": "p1", "group": "g1"},
            {"id": "ctrl", "group": "g1", "is_control": True, "blocked": ["t2"]}]),
                     "sim.run.personas[1].blocked: control personas must block nothing",
                     id="blocking_control"),
        pytest.param(lambda doc: doc["sim"]["run"].update(personas=[
            {"id": "c1", "group": "g1", "is_control": True},
            {"id": "c2", "group": "g1", "is_control": True}]),
                     "sim.run.personas: inference needs a persona that is not a control",
                     id="all_control_personas"),
        pytest.param(lambda doc: doc.update(seed=True), "seed: seed must be an integer",
                     id="bool_seed"),
        pytest.param(lambda doc: doc.update(holdout_runs=True), "holdout_runs:",
                     id="bool_holdout_runs"),
        pytest.param(lambda doc: doc.update(holdout_runs=0),
                     "holdout_runs: holdout_runs must be in [1, runs=6), got 0",
                     id="zero_holdout_runs"),
        pytest.param(lambda doc: doc["sim"]["run"].update(runs=True), "sim.run.runs: expected int",
                     id="bool_runs"),
        pytest.param(lambda doc: doc["sim"]["world"]["advertisers"][0].update(
            creative_length=True), "sim.world.advertisers[0].creative_length: expected int",
                     id="bool_creative_length"),
        pytest.param(lambda doc: doc.update(accuracy_threshold=True), "accuracy_threshold:",
                     id="bool_threshold"),
        pytest.param(lambda doc: doc["stats"].update(min_expected=True), "stats:",
                     id="bool_min_expected"),
        pytest.param(lambda doc: doc.update(output_dir=5),
                     "output_dir: must be a string, got 5", id="int_output_dir"),
        pytest.param(lambda doc: doc.update(output_dir=None),
                     "output_dir: must be a string, got None", id="null_output_dir"),
    ])
    def test_malformed_config_value_names_its_path(self, tmp_path, edit, named):
        doc = load_config("mini")
        edit(doc)
        out = tmp_path / "out"
        proc = run_cli("simulate", "--config", str(write_config(tmp_path, doc)),
                       "--out", str(out))
        assert proc.returncode == 2
        assert named in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_config_not_an_object_names_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("5", encoding="utf-8")
        proc = run_cli("run", "--config", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert f"{path}: expected a JSON object" in proc.stderr

    def test_missing_config_file(self, tmp_path):
        proc = run_cli("run", "--config", str(tmp_path / "nope.json"))
        assert proc.returncode == 2

    def test_config_directory_is_config_error(self, tmp_path):
        proc = run_cli("simulate", "--config", str(tmp_path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr == f"adtomo: config path is a directory: {tmp_path}\n"

    def test_config_os_error_is_io_error(self, tmp_path):
        # a path through a regular file: neither missing nor a directory
        path = write_config(tmp_path, load_config("mini")) / "config.json"
        proc = run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 3
        assert proc.stderr.startswith("adtomo: i/o error: ")
        assert proc.stderr.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stage, name", [
        ("flag", "adlog.jsonl"),
        ("infer", "records.jsonl"),
        ("infer", "personas.json"),
        ("infer", "corpus.json"),
        ("syncdetect", "requestlog.jsonl"),
        ("evaluate", "report.json"),
        ("simulate", "config.json"),
    ])
    def test_input_not_utf8_names_file_and_line(self, mini_run, tmp_path, stage, name):
        cfg_path, out = mini_run
        out = shutil.copytree(out, tmp_path / "out")
        cfg_path = shutil.copy(cfg_path, tmp_path / "config.json")
        path = tmp_path / name if name == "config.json" else out / name
        data = bytearray(path.read_bytes())
        middle = len(data) // 2
        data[middle] = 0xFF
        path.write_bytes(data)
        line = data[:middle].count(b"\n") + 1
        proc = run_cli(stage, "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 2
        assert f"{path}:{line}: invalid UTF-8 (byte 0xff at byte " in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unknown_subcommand_usage_error(self):
        proc = run_cli("frobnicate", "--config", "x.json")
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_unknown_flag_usage_error(self):
        proc = run_cli("run", "--config", "x.json", "--bogus")
        assert proc.returncode == 2

    def test_infer_before_flag_stage(self, tmp_path):
        cfg_path = write_config(tmp_path, load_config("mini"))
        out = tmp_path / "out"
        proc = run_cli("simulate", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 0
        proc = run_cli("infer", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 2
        assert "stage" in proc.stderr

    def test_infer_on_null_flags(self, tmp_path):
        cfg_path = write_config(tmp_path, load_config("mini"))
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)).returncode == 0
        assert run_cli("flag", "--config", str(cfg_path), "--out", str(out)).returncode == 0
        records = (out / "records.jsonl").read_text().splitlines()
        nulled = [json.dumps({**json.loads(line), "is_different_from_control": None})
                  for line in records]
        (out / "records.jsonl").write_text("\n".join(nulled) + "\n")
        proc = run_cli("infer", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 2
        assert "records.jsonl:1: flag stage required" in proc.stderr
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("stage, name", [
        ("flag", "adlog.jsonl"),
        ("infer", "personas.json"),
        ("h1", "adlog.jsonl"),
        ("syncdetect", "requestlog.jsonl"),
        ("evaluate", "report.json"),
    ])
    def test_reading_stage_does_not_create_missing_out(self, tmp_path, stage, name):
        cfg_path = write_config(tmp_path, load_config("mini"))
        out = tmp_path / "absent" / "out"
        proc = run_cli(stage, "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr == f"adtomo: missing input {name}: run the producing stage first\n"
        assert not (tmp_path / "absent").exists()

    def test_output_path_collision_is_io_error(self, tmp_path):
        cfg_path = write_config(tmp_path, load_config("mini"))
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory")
        proc = run_cli("simulate", "--config", str(cfg_path), "--out", str(blocker))
        assert proc.returncode == 3

    def test_h1_group_too_sparse_names_ad_log(self, tmp_path):
        doc = load_config("h1", seed=7)
        for slot in doc["sim"]["world"]["slots"]:
            slot["floor_price"] = 3.0  # above every bid but one at seed 7
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)).returncode == 0
        assert len((out / "adlog.jsonl").read_text().splitlines()) == 1
        proc = run_cli("h1", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr == (f"adtomo: config error: {out / 'adlog.jsonl'}: group 'g1' has "
                               "fewer than 2 runs\n")

    def test_flag_without_controls_is_config_error(self, tmp_path):
        cfg_path = write_config(tmp_path, load_config("h1"))  # no control personas
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)).returncode == 0
        proc = run_cli("flag", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 2
        assert "control" in proc.stderr

    def test_malformed_request_log_is_config_error(self, tmp_path):
        cfg_path = write_config(tmp_path, load_config("mini"))
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)).returncode == 0
        lines = (out / "requestlog.jsonl").read_text().splitlines()
        first = json.loads(lines[0])
        first["chain_position"] = 999  # past the end of mini's one-hop chain
        (out / "requestlog.jsonl").write_text(
            "\n".join([json.dumps(first)] + lines[1:]) + "\n")
        proc = run_cli("syncdetect", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr == (f"adtomo: config error: {out / 'requestlog.jsonl'}:1: field "
                               "'chain_position' must be < 1, the length of the config's "
                               "chain, got 999\n")

    def test_request_log_chain_gap_names_file_and_chain(self, tmp_path):
        cfg_path = write_config(tmp_path, load_config("small"))  # mini's chains are one hop
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)).returncode == 0
        requestlog = out / "requestlog.jsonl"
        lines = requestlog.read_text().splitlines()
        chain = [(e["run"], e["persona"]) for e in map(json.loads, lines[:3])]
        assert chain[0] == chain[1] == chain[2]  # line 2 lies inside the first chain
        requestlog.write_text("\n".join(lines[:1] + lines[2:]) + "\n")
        proc = run_cli("syncdetect", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 2
        run, persona = chain[0]
        assert proc.stderr == (f"adtomo: config error: {requestlog}: no request for (run, "
                               f"persona, chain_position) {(run, persona, 1)}\n")
        assert not (out / "sync_pairs.json").exists()

    def test_request_log_missing_chain_names_file_and_chain(self, tmp_path):
        cfg_path = write_config(tmp_path, load_config("mini", seed=7))  # one hop per chain
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)).returncode == 0
        requestlog = out / "requestlog.jsonl"
        lines = requestlog.read_text().splitlines()
        chains = [(e["run"], e["persona"]) for e in map(json.loads, lines)]
        assert len(set(chains)) == len(chains)
        requestlog.write_text("\n".join(lines[1:4] + lines[5:]) + "\n")  # chains 0 and 4 go
        proc = run_cli("syncdetect", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 2
        run, persona = chains[0]
        assert proc.stderr == (f"adtomo: config error: {requestlog}: no request for (run, "
                               f"persona, chain_position) {(run, persona, 0)}\n")
        assert not (out / "sync_pairs.json").exists()

    def test_request_log_short_chain_names_file_and_chain(self, tmp_path):
        cfg_path = write_config(tmp_path, load_config("small"))
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)).returncode == 0
        requestlog = out / "requestlog.jsonl"
        lines = requestlog.read_text().splitlines()
        chains = [(e["run"], e["persona"]) for e in map(json.loads, lines)]
        hops = chains.count(chains[0])
        assert chains[:hops] == [chains[0]] * hops and hops > 1
        requestlog.write_text("\n".join(lines[:hops - 1] + lines[hops:]) + "\n")  # no gap
        proc = run_cli("syncdetect", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 2
        run, persona = chains[0]
        assert proc.stderr == (f"adtomo: config error: {requestlog}: no request for (run, "
                               f"persona, chain_position) {(run, persona, hops - 1)}\n")
        assert not (out / "sync_pairs.json").exists()

    def test_request_log_duplicate_line_names_file_and_line(self, tmp_path):
        cfg_path = write_config(tmp_path, load_config("mini", seed=7))
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)).returncode == 0
        requestlog = out / "requestlog.jsonl"
        lines = requestlog.read_text().splitlines()
        requestlog.write_text("\n".join(lines + lines[:1]) + "\n")
        proc = run_cli("syncdetect", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 2
        first = json.loads(lines[0])
        cell = (first["run"], first["persona"], first["chain_position"])
        assert proc.stderr == (f"adtomo: config error: {requestlog}:{len(lines) + 1}: "
                               f"duplicate request for (run, persona, chain_position) {cell}, "
                               "first seen at line 1\n")
        assert not (out / "sync_pairs.json").exists()

    @pytest.mark.parametrize("edit", [
        pytest.param({"destination_domain": "t9", "cookie_sent": "c:t9"}, id="foreign_tracker"),
        pytest.param({"uid_param": None}, id="uid_dropped"),
        pytest.param({"source_domain": "t2", "destination_domain": "t1", "cookie_sent": "c:t1",
                      "uid_param": "uid:t2"}, id="reversed_pair"),
    ])
    def test_request_log_hop_differing_from_config_names_file_and_line(self, tmp_path, edit):
        # Each edit is a well-formed hop that is not the config's: before
        # the hops were checked, the first edit added the pair (t1, t9).
        cfg_path = write_config(tmp_path, load_config("mini", seed=7))
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)).returncode == 0
        requestlog = out / "requestlog.jsonl"
        lines = requestlog.read_text().splitlines()
        first = json.loads(lines[0])
        hop = {k: first[k] for k in ("source_domain", "destination_domain", "cookie_sent",
                                     "uid_param")}
        assert hop == {"source_domain": "t1", "destination_domain": "t2",
                       "cookie_sent": "c:t2", "uid_param": "uid:t1"}
        lines[0] = json.dumps({**first, **edit})
        requestlog.write_text("\n".join(lines) + "\n")
        proc = run_cli("syncdetect", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr == (f"adtomo: config error: {requestlog}:1: differs from hop 0 of "
                               f"the config's chain {json.dumps(hop)}\n")
        assert not (out / "sync_pairs.json").exists()

    def test_truncated_ad_log_names_file_and_line(self, tmp_path):
        cfg_path = write_config(tmp_path, load_config("mini"))
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)).returncode == 0
        adlog = out / "adlog.jsonl"
        n_lines = len(adlog.read_text().splitlines())
        with adlog.open("a") as fh:
            fh.write('{"run":1,"pers')
        proc = run_cli("flag", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 2
        assert f"adlog.jsonl:{n_lines + 1}:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_ad_log_line_missing_field_names_file_and_line(self, tmp_path):
        cfg_path = write_config(tmp_path, load_config("mini"))
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)).returncode == 0
        adlog = out / "adlog.jsonl"
        n_lines = len(adlog.read_text().splitlines())
        with adlog.open("a") as fh:
            fh.write('{"run":1}\n')
        proc = run_cli("flag", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 2
        assert f"adlog.jsonl:{n_lines + 1}:" in proc.stderr
        assert "'persona'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_record_missing_field_names_file_and_line(self, tmp_path):
        cfg_path = write_config(tmp_path, load_config("mini"))
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)).returncode == 0
        assert run_cli("flag", "--config", str(cfg_path), "--out", str(out)).returncode == 0
        records = out / "records.jsonl"
        lines = records.read_text().splitlines()
        third = json.loads(lines[2])
        del third["run"]
        lines[2] = json.dumps(third)
        records.write_text("\n".join(lines) + "\n")
        proc = run_cli("infer", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 2
        assert "records.jsonl:3:" in proc.stderr
        assert "'run'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_request_log_line_missing_field_names_file_and_line(self, tmp_path):
        cfg_path = write_config(tmp_path, load_config("mini"))
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)).returncode == 0
        requestlog = out / "requestlog.jsonl"
        n_lines = len(requestlog.read_text().splitlines())
        with requestlog.open("a") as fh:
            fh.write('{"run":0,"persona":"x"}\n')
        proc = run_cli("syncdetect", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 2
        assert f"requestlog.jsonl:{n_lines + 1}:" in proc.stderr
        assert "'chain_position'" in proc.stderr
        assert "Traceback" not in proc.stderr


    @pytest.mark.parametrize("edit, problem", [
        pytest.param({"cookie_sent": 5}, "field 'cookie_sent' must be a JSON string or null",
                     id="int_cookie"),
        pytest.param({"uid_param": 7}, "field 'uid_param' must be a JSON string or null",
                     id="int_uid"),
        pytest.param({"chain_position": "0"}, "field 'chain_position' must be a JSON integer",
                     id="string_position"),
        pytest.param({"chain_position": -1}, "field 'chain_position' must be >= 0, got -1",
                     id="negative_position"),
        pytest.param({"run": "0"}, "field 'run' must be a JSON integer", id="string_run"),
        pytest.param({"persona": None}, "field 'persona' must be a JSON string",
                     id="null_persona"),
        pytest.param({"source_domain": 5}, "field 'source_domain' must be a JSON string",
                     id="int_source"),
        pytest.param({"run": 6}, "field 'run' must be in [0, runs=6), got 6",
                     id="run_out_of_range"),
        pytest.param({"persona": "ghost"}, "persona 'ghost' is missing from the config",
                     id="persona_missing_from_config"),
    ])
    def test_request_log_field_of_wrong_type_names_file_and_line(self, mini_run, tmp_path,
                                                                 edit, problem):
        cfg_path, out = mini_run
        out = shutil.copytree(out, tmp_path / "out")
        requestlog = out / "requestlog.jsonl"
        lines = requestlog.read_text().splitlines()
        lines[0] = json.dumps({**json.loads(lines[0]), **edit})
        requestlog.write_text("\n".join(lines) + "\n")
        proc = run_cli("syncdetect", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 2
        assert f"requestlog.jsonl:1: {problem}" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("counts", [
        pytest.param(lambda c: {**c, next(iter(c)): 0}, id="zero_count"),
        pytest.param(lambda c: [1, 2], id="list_not_object"),
    ])
    def test_bad_record_counts_name_file_and_line(self, mini_run, tmp_path, counts):
        cfg_path, out = mini_run
        out = shutil.copytree(out, tmp_path / "out")
        records = out / "records.jsonl"
        lines = records.read_text().splitlines()
        third = json.loads(lines[2])
        third["counts"] = counts(third["counts"])
        lines[2] = json.dumps(third)
        records.write_text("\n".join(lines) + "\n")
        proc = run_cli("infer", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 2
        assert "records.jsonl:3:" in proc.stderr
        assert "Traceback" not in proc.stderr

    @staticmethod
    def edit_personas(out, edit):
        """Apply ``edit`` to the entries of ``out``'s personas.json; returns
        the entries as simulate wrote them."""
        personas = json.loads((out / "personas.json").read_text())
        edited = json.loads(json.dumps(personas))
        edit(edited)
        (out / "personas.json").write_text(json.dumps(edited))
        return personas

    @staticmethod
    def assert_entry_rejected(proc, out, i, expected):
        assert proc.returncode == 2
        assert proc.stderr == (f"adtomo: config error: {out / 'personas.json'}: entry {i}: "
                               f"differs from the config's persona {json.dumps(expected)}\n")

    @pytest.mark.parametrize("stage", ["flag", "infer", "h1"])
    def test_personas_differing_from_config_name_entry(self, mini_run, tmp_path, stage):
        # A well-formed personas.json that blocks t2, not t1, in p-001 used
        # to give a silently different report: the stages read the personas
        # from it.  They come from the config, and the file must match it.
        cfg_path, out = mini_run
        out = shutil.copytree(out, tmp_path / "out")
        personas = self.edit_personas(out, lambda p: p[1].update(blocked=["t2"]))
        assert personas[1] == {"id": "p-001", "group": "g1", "blocked": ["t1"],
                               "is_control": False}
        before = read_artifacts(out)
        proc = run_cli(stage, "--config", str(cfg_path), "--out", str(out))
        self.assert_entry_rejected(proc, out, 1, personas[1])
        assert read_artifacts(out) == before
        assert not (out / "h1_matrix.csv").exists()

    @pytest.mark.parametrize("stage, field", [
        ("flag", "is_control"), ("infer", "id"), ("infer", "blocked"), ("h1", "group")])
    def test_persona_entry_missing_field_names_file_and_entry(self, mini_run, tmp_path,
                                                             stage, field):
        cfg_path, out = mini_run
        out = shutil.copytree(out, tmp_path / "out")
        personas = self.edit_personas(out, lambda p: p[1].pop(field))
        proc = run_cli(stage, "--config", str(cfg_path), "--out", str(out))
        self.assert_entry_rejected(proc, out, 1, personas[1])

    @pytest.mark.parametrize("stage", ["flag", "infer", "h1"])
    def test_duplicate_persona_names_both_entries(self, mini_run, tmp_path, stage):
        # A second entry for p-000 with is_control flipped used to give a
        # silently different report: the later entry won.  Now the file
        # holds one entry more than the config has personas.
        cfg_path, out = mini_run
        out = shutil.copytree(out, tmp_path / "out")
        personas = self.edit_personas(
            out, lambda p: p.append({**p[0], "is_control": not p[0]["is_control"]}))
        assert personas[0]["id"] == "p-000"
        before = read_artifacts(out)
        proc = run_cli(stage, "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr == (f"adtomo: config error: {out / 'personas.json'}: holds "
                               f"{len(personas) + 1} persona entries, the config "
                               f"{len(personas)}\n")
        assert read_artifacts(out) == before

    @pytest.mark.parametrize("field, value, kind", [
        ("id", 5, "string"), ("group", ["g1"], "string"), ("blocked", "t1", "list"),
        ("is_control", "no", "bool"), ("is_control", 0, "bool")])
    def test_persona_field_of_wrong_type_names_json_type(self, mini_run, tmp_path, field,
                                                         value, kind):
        # 0 equals False in Python; the JSON integer 0 is still not a bool.
        cfg_path, out = mini_run
        out = shutil.copytree(out, tmp_path / "out")
        personas = self.edit_personas(out, lambda p: p[1].update({field: value}))
        json_type = {"string": str, "list": list, "bool": bool}[kind]
        assert isinstance(personas[1][field], json_type) and not isinstance(value, json_type)
        proc = run_cli("infer", "--config", str(cfg_path), "--out", str(out))
        self.assert_entry_rejected(proc, out, 1, personas[1])

    @pytest.mark.parametrize("blocked", [
        pytest.param([["t1"]], id="nested"),
        pytest.param(["tZZ"], id="unknown_tracker"),
    ])
    def test_bad_persona_blocked_names_file_and_entry(self, mini_run, tmp_path, blocked):
        cfg_path, out = mini_run
        out = shutil.copytree(out, tmp_path / "out")
        personas = self.edit_personas(out, lambda p: p[1].update(blocked=blocked))
        proc = run_cli("infer", "--config", str(cfg_path), "--out", str(out))
        self.assert_entry_rejected(proc, out, 1, personas[1])

    @pytest.mark.parametrize("field, value, problem", [
        pytest.param("is_different_from_control", "false",
                     "field 'is_different_from_control' must be a JSON bool", id="flag_string"),
        pytest.param("run", "0", "field 'run' must be a JSON integer", id="run_string"),
        pytest.param("persona", ["p-001"], "field 'persona' must be a JSON string",
                     id="persona_list"),
        pytest.param("advertiser", ["dsp-1"], "field 'advertiser' must be a JSON string",
                     id="advertiser_list"),
        pytest.param("advertiser", "dsp-9", "advertiser 'dsp-9' is missing from the config",
                     id="unknown_advertiser"),
    ])
    def test_bad_record_field_names_file_and_line(self, mini_run, tmp_path, field, value,
                                                  problem):
        cfg_path, out = mini_run
        out = shutil.copytree(out, tmp_path / "out")
        records = out / "records.jsonl"
        lines = records.read_text().splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), field: value})
        records.write_text("\n".join(lines) + "\n")
        proc = run_cli("infer", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 2
        assert "records.jsonl:3:" in proc.stderr and problem in proc.stderr
        assert "Traceback" not in proc.stderr

    # ``{end}`` is the line number of the first line appended to the records.
    @pytest.mark.parametrize("edit, problem", [
        pytest.param(lambda lines: [l for l in lines if json.loads(l)["persona"] != "p-000"],
                     "records.jsonl: no record for (advertiser, persona, run) "
                     "('dsp-1', 'p-000', 0)", id="missing_persona"),
        pytest.param(lambda lines: lines + [json.dumps({**json.loads(l), "persona": "ctrl-000"})
                                            for l in lines
                                            if json.loads(l)["persona"] == "p-000"],
                     "records.jsonl:{end}: persona 'ctrl-000' is not a non-control persona "
                     "of the config", id="control_persona"),
    ])
    def test_record_personas_must_be_the_non_control_personas(self, mini_run, tmp_path, edit,
                                                              problem):
        cfg_path, out = mini_run
        out = shutil.copytree(out, tmp_path / "out")
        records = out / "records.jsonl"
        lines = records.read_text().splitlines()
        records.write_text("\n".join(edit(lines)) + "\n")
        proc = run_cli("infer", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 2
        assert problem.format(end=len(lines) + 1) in proc.stderr
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    def test_duplicate_record_names_both_lines(self, mini_run, tmp_path):
        cfg_path, out = mini_run
        out = shutil.copytree(out, tmp_path / "out")
        records = out / "records.jsonl"
        lines = records.read_text().splitlines()
        records.write_text("\n".join(lines + [lines[1]]) + "\n")
        proc = run_cli("infer", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 2
        assert f"records.jsonl:{len(lines) + 1}:" in proc.stderr
        assert "duplicate record" in proc.stderr and "first seen at line 2" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("edit, problem", [
        pytest.param(lambda lines: lines[1:],
                     "records.jsonl: no record for (advertiser, persona, run) "
                     "('dsp-1', 'p-000', 0)", id="missing_record"),
        pytest.param(lambda lines: [json.dumps({**json.loads(lines[0]), "run": 99}), *lines[1:]],
                     "records.jsonl:1: field 'run' must be in [0, runs=6), got 99",
                     id="run_out_of_range"),
    ])
    def test_incomplete_record_grid_names_file(self, mini_run, tmp_path, edit, problem):
        cfg_path, out = mini_run
        out = shutil.copytree(out, tmp_path / "out")
        records = out / "records.jsonl"
        records.write_text("\n".join(edit(records.read_text().splitlines())) + "\n")
        proc = run_cli("infer", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 2
        assert problem in proc.stderr
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    def test_ad_log_persona_missing_from_manifest(self, mini_run, tmp_path):
        cfg_path, out = mini_run
        out = shutil.copytree(out, tmp_path / "out")
        adlog = out / "adlog.jsonl"
        lines = adlog.read_text().splitlines()
        ghost = {**json.loads(lines[0]), "persona": "ghost"}
        with adlog.open("a") as fh:
            fh.write(json.dumps(ghost) + "\n")
        for stage in ("flag", "h1"):
            proc = run_cli(stage, "--config", str(cfg_path), "--out", str(out))
            assert proc.returncode == 2, stage
            assert f"adlog.jsonl:{len(lines) + 1}:" in proc.stderr, stage
            assert "'ghost'" in proc.stderr, stage
            assert "Traceback" not in proc.stderr

    def test_ad_log_advertiser_missing_from_config(self, mini_run, tmp_path):
        cfg_path, out = mini_run
        out = shutil.copytree(out, tmp_path / "out")
        adlog = out / "adlog.jsonl"
        lines = adlog.read_text().splitlines()
        ghost = {**json.loads(lines[0]), "advertiser": "dsp-9"}
        with adlog.open("a") as fh:
            fh.write(json.dumps(ghost) + "\n")
        before = read_artifacts(out)
        proc = run_cli("flag", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr == (f"adtomo: config error: {adlog}:{len(lines) + 1}: "
                               "advertiser 'dsp-9' is missing from the config\n")
        assert read_artifacts(out) == before

    @pytest.mark.parametrize("stage", ["flag", "h1"])
    @pytest.mark.parametrize("edit, problem", [
        pytest.param({"persona": 5}, "field 'persona' must be a JSON string", id="int_persona"),
        pytest.param({"persona": None}, "field 'persona' must be a JSON string",
                     id="null_persona"),
        pytest.param({"slot": 3}, "field 'slot' must be a JSON string", id="int_slot"),
        pytest.param({"run": True}, "field 'run' must be a JSON integer", id="bool_run"),
        pytest.param({"tokens": ["a", 7]}, "field 'tokens' must be a JSON list of strings",
                     id="int_token"),
        pytest.param({"tokens": "ab"}, "field 'tokens' must be a JSON list of strings",
                     id="tokens_string"),
        pytest.param({"tokens": [["a"]]}, "field 'tokens' must be a JSON list of strings",
                     id="nested_token"),
        pytest.param({"run": 42}, "field 'run' must be in [0, runs=6), got 42",
                     id="run_out_of_range"),
    ])
    def test_ad_log_field_of_wrong_type_names_file_and_line(self, mini_run, tmp_path, stage,
                                                            edit, problem):
        cfg_path, out = mini_run
        out = shutil.copytree(out, tmp_path / "out")
        adlog = out / "adlog.jsonl"
        lines = adlog.read_text().splitlines()
        with adlog.open("a") as fh:
            fh.write(json.dumps({**json.loads(lines[0]), **edit}) + "\n")
        proc = run_cli(stage, "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 2
        assert f"adlog.jsonl:{len(lines) + 1}: {problem}" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["zero_bytes", "blank_lines"])
    def test_ad_log_without_ads_names_file(self, mini_run, tmp_path, text):
        cfg_path, out = mini_run
        out = shutil.copytree(out, tmp_path / "out")
        (out / "adlog.jsonl").write_text(text)
        for stage in ("flag", "h1"):
            proc = run_cli(stage, "--config", str(cfg_path), "--out", str(out))
            assert proc.returncode == 2, stage
            assert "adlog.jsonl: holds no ads" in proc.stderr, stage
            assert "Traceback" not in proc.stderr

    def test_flag_and_infer_do_not_import_numpy_ma(self, mini_run, tmp_path):
        # np.unique and np.union1d import numpy.ma on first use, about 14 ms
        # that every CLI process running the stage would pay.  One CPU, so
        # the flag and infer tasks run in the CLI process itself.
        cfg_path, out = mini_run
        out = shutil.copytree(out, tmp_path / "out")
        code = ("import os, sys; os.sched_setaffinity(0, [min(os.sched_getaffinity(0))]); "
                "from adtomo import cli; "
                "code = cli.main([sys.argv[1], '--config', sys.argv[2], '--out', sys.argv[3]]); "
                "print(code, 'numpy.ma' in sys.modules)")
        for stage in ("flag", "infer"):
            proc = subprocess.run([sys.executable, "-c", code, stage, str(cfg_path), str(out)],
                                  capture_output=True, text=True)
            assert proc.stdout.split() == ["0", "False"], (stage, proc.stderr)

    @pytest.mark.parametrize("corpus, problem", [
        pytest.param({"words": []}, "missing field 'tokens'", id="no_tokens_field"),
        pytest.param({"tokens": "abc"}, "field 'tokens' must be a JSON list", id="tokens_string"),
        pytest.param({"tokens": {"a": 0}}, "corpus.json: field 'tokens' must be a JSON list\n",
                     id="tokens_object"),
        pytest.param({"tokens": ["a", 7]}, "list of strings", id="non_string_token"),
        pytest.param(["a", "b"], "expected a JSON object", id="list_not_object"),
        pytest.param({"tokens": ["a", "b", "a"]}, "duplicate token 'a'", id="duplicate_token"),
    ])
    def test_bad_corpus_names_file(self, mini_run, tmp_path, corpus, problem):
        cfg_path, out = mini_run
        out = shutil.copytree(out, tmp_path / "out")
        (out / "corpus.json").write_text(json.dumps(corpus))
        proc = run_cli("infer", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 2
        assert "corpus.json: " in proc.stderr and problem in proc.stderr
        assert "records.jsonl" not in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("corrupt, problem", [
        pytest.param(lambda row: row.pop("inferred"), "missing field 'inferred'",
                     id="no_inferred"),
        pytest.param(lambda row: row.pop("advertiser"), "missing field 'advertiser'",
                     id="no_advertiser"),
        pytest.param(lambda row: row.update(inferred="tr-1"), "field 'inferred' must be",
                     id="inferred_string"),
        pytest.param(lambda row: row.update(inferred=[["tr-1"]]), "list of strings",
                     id="inferred_nested"),
        pytest.param(lambda row: row.update(advertiser=["dsp-1"]),
                     "field 'advertiser' must be a JSON string", id="advertiser_list"),
        pytest.param(lambda row: row.update(inferred={"tr-1": True}),
                     "field 'inferred' must be a JSON list", id="inferred_object"),
        pytest.param(lambda row: row.update(advertiser="nope"),
                     "advertiser 'nope' is not an advertiser of the config",
                     id="unknown_advertiser"),
        pytest.param(lambda row: row.update(inferred=["nope"]),
                     "inferred tracker 'nope' is not a tracker of the config",
                     id="unknown_tracker"),
    ])
    def test_bad_report_row_names_file_and_entry(self, mini_run, tmp_path, corrupt, problem):
        cfg_path, out = mini_run
        out = shutil.copytree(out, tmp_path / "out")
        report = json.loads((out / "report.json").read_text())
        corrupt(report["advertisers"][1])
        (out / "report.json").write_text(json.dumps(report))
        proc = run_cli("evaluate", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 2
        assert "report.json: advertisers entry 1:" in proc.stderr and problem in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_repeated_report_row_names_file_and_entry(self, mini_run, tmp_path):
        cfg_path, out = mini_run
        out = shutil.copytree(out, tmp_path / "out")
        report = json.loads((out / "report.json").read_text())
        rows = report["advertisers"]
        rows.append({**rows[0], "inferred": report["trackers"]})
        (out / "report.json").write_text(json.dumps(report))
        proc = run_cli("evaluate", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr == (f"adtomo: config error: {out / 'report.json'}: advertisers "
                               f"entry {len(rows) - 1}: advertiser {rows[0]['advertiser']!r} "
                               "repeats entry 0\n")

    def test_report_without_an_advertiser_names_it(self, mini_run, tmp_path):
        cfg_path, out = mini_run
        out = shutil.copytree(out, tmp_path / "out")
        report = json.loads((out / "report.json").read_text())
        dropped = report["advertisers"].pop(1)
        (out / "report.json").write_text(json.dumps(report))
        proc = run_cli("evaluate", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr == (f"adtomo: config error: {out / 'report.json'}: no advertisers "
                               f"entry for advertiser {dropped['advertiser']!r}\n")

    def test_report_without_advertisers_names_file(self, mini_run, tmp_path):
        cfg_path, out = mini_run
        out = shutil.copytree(out, tmp_path / "out")
        (out / "report.json").write_text(json.dumps({"trackers": []}))
        proc = run_cli("evaluate", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 2
        assert "report.json: missing field 'advertisers'" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestRecordGrid:
    """The config, not the ad log, names the records: a
    persona, a run or an advertiser that wins no ad is a valid outcome,
    whose records are flagged False, and every stage exits 0."""

    @staticmethod
    def run_stages(tmp_path, doc, capsys):
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        for stage in ("simulate", "flag", "infer", "syncdetect", "evaluate"):
            code = cli.main([stage, "--config", str(cfg_path), "--out", str(out)])
            assert code == 0, (stage, capsys.readouterr().err)
        records = [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]
        ads = [json.loads(line) for line in (out / "adlog.jsonl").read_text().splitlines()]
        return out, records, ads

    @pytest.mark.parametrize("seed", [0, 1])
    def test_high_floors_leave_cells_without_ads(self, tmp_path, capsys, seed):
        doc = load_config("mini", seed=seed)
        for slot in doc["sim"]["world"]["slots"]:
            slot["floor_price"] = 2.2
        out, records, ads = self.run_stages(tmp_path, doc, capsys)
        personas = [p["id"] for p in json.loads((out / "personas.json").read_text())
                    if not p["is_control"]]
        # 2 advertisers x 8 non-control personas x 6 runs.
        assert len(records) == 96
        assert ({(r["advertiser"], r["persona"], r["run"]) for r in records}
                == {(a, p, r) for a in ("dsp-1", "dsp-2") for p in personas for r in range(6)})
        if seed == 0:  # a persona wins no ad in any run
            assert set(personas) - {a["persona"] for a in ads}
        else:  # a run holds no ad at all
            assert set(range(6)) - {a["run"] for a in ads}
        won = {(a["advertiser"], a["persona"], a["run"]) for a in ads}
        assert not any(r["is_different_from_control"] or r["counts"] for r in records
                       if (r["advertiser"], r["persona"], r["run"]) not in won)

    def test_advertiser_that_never_wins(self, tmp_path, capsys):
        doc = load_config("mini", seed=3)
        doc["sim"]["world"]["advertisers"].append(
            {"id": "dsp-0", "base_bid": 0.0, "knowledge_boost": 0.0, "bid_noise_sd": 0.0,
             "creative_length": 12})
        out, records, ads = self.run_stages(tmp_path, doc, capsys)
        assert not any(a["advertiser"] == "dsp-0" for a in ads)
        losing = [r for r in records if r["advertiser"] == "dsp-0"]
        assert len(losing) == 48  # 8 non-control personas x 6 runs
        assert not any(r["is_different_from_control"] or r["counts"] for r in losing)
        report = json.loads((out / "report.json").read_text())
        assert [row["advertiser"] for row in report["advertisers"]] == ["dsp-0", "dsp-1", "dsp-2"]
        assert report["advertisers"][0]["inferred"] == []


class TestImports:
    """A CLI process imports what its command runs; the in-process entry
    point ``adtomo.pipeline`` imports every stage's modules up front."""

    @staticmethod
    def python(code, *args):
        proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_cli_loads_config_without_numpy(self):
        code = ("import sys; from adtomo import cli; "
                "cli.load_pipeline_config(sys.argv[1]); print('numpy' in sys.modules)")
        assert self.python(code, CONFIG_DIR / "desk.json") == ["False"]

    def test_cli_loads_config_without_dataclasses(self):
        # Each dataclass execs its generated methods at import, and the
        # dataclasses module pulls in inspect: a cost every CLI process paid.
        code = ("import sys; from adtomo import cli; "
                "cli.load_pipeline_config(sys.argv[1]); print('dataclasses' in sys.modules)")
        assert self.python(code, CONFIG_DIR / "desk.json") == ["False"]

    def test_no_adtomo_class_is_a_dataclass(self):
        code = ("import sys, adtomo.pipeline; "
                "print(*sorted(f'{m}.{n}' for m, mod in list(sys.modules.items()) "
                "if m.startswith('adtomo') for n, c in vars(mod).items() "
                "if isinstance(c, type) and hasattr(c, '__dataclass_fields__')))")
        assert self.python(code) == []

    @pytest.mark.parametrize("stage, artifact", [("syncdetect", "sync_pairs.json"),
                                                 ("evaluate", "evaluation.json")])
    def test_stage_runs_without_numpy(self, mini_run, tmp_path, stage, artifact):
        cfg_path, out = mini_run
        staged = shutil.copytree(out, tmp_path / "out")
        (staged / artifact).unlink()
        code = ("import sys; from adtomo import cli; "
                "code = cli.main([sys.argv[1], '--config', sys.argv[2], '--out', sys.argv[3]]); "
                "print(code, 'numpy' in sys.modules)")
        assert self.python(code, stage, cfg_path, staged) == ["0", "False"]
        assert (staged / artifact).read_bytes() == (out / artifact).read_bytes()

    def test_pipeline_import_loads_every_stage_module(self):
        modules = ["numpy", "adtomo.forest.kernels", "adtomo.tomography", "adtomo.stattest",
                   "adtomo.ecosim.sim", "adtomo.syncdetect", "adtomo.evaluation"]
        code = "import sys, adtomo.pipeline; print(*[m in sys.modules for m in sys.argv[1:]])"
        assert self.python(code, *modules) == ["True"] * len(modules)


class TestEntry:
    """``cli.entry`` is the ``adtomo`` process: main's exit code, no
    teardown, and no OpenBLAS thread unless the user asks for one."""

    @staticmethod
    def entry(main_body, **env):
        """A fresh interpreter that runs ``cli.entry`` with ``cli.main``
        replaced by a function of ``main_body``; stdout and stderr are
        buffered pipes."""
        script = ("import os, sys\nfrom adtomo import cli\n"
                  "def main():\n" + "".join(f"    {line}\n" for line in main_body)
                  + "cli.main = main\ncli.entry()\n")
        base = {name: value for name, value in os.environ.items()
                if name not in ("PYTHONUNBUFFERED", "OPENBLAS_NUM_THREADS")}
        base["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**base, **env}, timeout=60)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    def test_numpy_starts_no_thread(self):
        proc = self.entry(["import numpy",
                           "print(len(os.listdir('/proc/self/task')))",
                           "return 0"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "1\n"

    def test_exit_code_and_stderr_are_mains(self):
        proc = self.entry(["sys.stderr.write('adtomo: stage failed\\n')", "return 3"])
        assert proc.returncode == 3
        assert proc.stderr == "adtomo: stage failed\n"

    def test_users_openblas_setting_is_kept(self):
        proc = self.entry(["print(os.environ['OPENBLAS_NUM_THREADS'])", "return 0"],
                          OPENBLAS_NUM_THREADS="2")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "2\n"

    def test_exception_in_main_prints_traceback_and_exits_1(self):
        proc = self.entry(["raise RuntimeError('stage bug')"])
        assert proc.returncode == 1
        assert "Traceback" in proc.stderr and "RuntimeError: stage bug" in proc.stderr

    def test_console_script_runs_entry(self):
        import tomllib

        pyproject = Path(__file__).parent.parent / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        assert scripts["adtomo"] == "adtomo.cli:entry"


class TestH1Command:
    def test_disjoint_two_group_log_zero_off_diagonal(self, tmp_path):
        doc = load_config("h1", seed=2)
        world = doc["sim"]["world"]
        # Two groups with fully disjoint vocabularies and no generic-ad mixing.
        world["groups"] = [{"id": "g1", "vocabulary": [f"g1w{i}" for i in range(12)]},
                           {"id": "g2", "vocabulary": [f"g2w{i}" for i in range(12)]}]
        world["websites"] = [w for w in world["websites"]
                             if not str(w["group"]).startswith("g3")]
        world["trackers"] = [{"id": "tr-1", "observe_prob": 1.0,
                              "site_coverage": [w["id"] for w in world["websites"]
                                                if w["group"] is not None]}]
        world["edges"] = [{"tracker": "tr-1", "advertiser": f"adv-{i}",
                           "reliability": 1.0} for i in (1, 2, 3, 4)]
        doc["sim"]["run"]["personas"] = [
            {"id": f"{g}-p{j}", "group": g, "blocked": []}
            for g in ("g1", "g2") for j in range(4)]
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out)).returncode == 0
        assert run_cli("h1", "--config", str(cfg_path), "--out", str(out)).returncode == 0
        import csv

        with (out / "h1_matrix.csv").open() as fh:
            rows = {(r["group_a"], r["group_b"]): r for r in csv.DictReader(fh)}
        assert float(rows[("g1", "g2")]["mean_similarity"]) == 0.0
        assert float(rows[("g2", "g1")]["mean_similarity"]) == 0.0
        assert float(rows[("g1", "g1")]["mean_similarity"]) > 0.5
        assert float(rows[("g1", "g2")]["welch_p"]) < 0.05
