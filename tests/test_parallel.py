import hashlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from adtomo import cli, parallel, pipeline, tomography
from adtomo.errors import ConfigError, WorkerLostError
from adtomo.forest import HyperGrid, accuracy, feature_importance, train_forest
from adtomo.parallel import fork_map
from adtomo.pipeline import ARTIFACTS, load_pipeline_config, run_pipeline
from adtomo.rng import substream_key
from adtomo.tomography import Flags, holdout_mask, run_inference

from conftest import load_config
from oracles import FlaggedRecord, cross_validate_grid, design_by_records


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, so fork_map forks a pool on any machine."""
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture
def one_cpu(monkeypatch):
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0})


def _assert_no_child():
    """This process has no child process, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def _within(seconds, what):
    """TimeoutError naming ``what`` if the block runs over ``seconds``."""
    def hung(signum, frame):
        raise TimeoutError(f"{what} is still running")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _run_script(script):
    """``script`` run by a fresh interpreter with two usable CPUs and its
    stdout a buffered pipe; the finished process."""
    script = ("from adtomo import parallel\n"
              "parallel.os.sched_getaffinity = lambda pid: {0, 1}\n" + script)
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(parallel.__file__).parents[1])
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)


def _slow_square(x):
    time.sleep(0.01 * (5 - x % 5))  # early items finish last
    return x * x, os.getpid()


def test_results_come_back_in_item_order(two_cpus):
    results = list(fork_map(_slow_square, range(12)))
    assert [r for r, _ in results] == [x * x for x in range(12)]
    assert os.getpid() not in {pid for _, pid in results}
    _assert_no_child()


def _fail_on_2_and_5(x):
    if x == 2:
        time.sleep(0.3)  # item 5 raises first in time
        raise ConfigError("item 2 failed", "where.2")
    if x == 5:
        raise ConfigError("item 5 failed", "where.5")
    return x


def test_first_raising_item_in_item_order_is_reraised(two_cpus):
    with pytest.raises(ConfigError) as info:
        list(fork_map(_fail_on_2_and_5, range(8)))
    assert str(info.value) == "where.2: item 2 failed"
    assert info.value.path == "where.2"
    _assert_no_child()


def test_closure_works_as_fn(two_cpus):
    lock = threading.Lock()  # not picklable: fn reaches the workers by fork
    offset = {"value": 100}

    def add(x):
        with lock:
            return x + offset["value"]

    assert list(fork_map(add, [1, 2, 3])) == [101, 102, 103]


def test_one_cpu_runs_in_process(one_cpu):
    results = list(fork_map(_slow_square, range(4)))
    assert results == [(x * x, os.getpid()) for x in range(4)]


def test_stopping_early_terminates_the_pool(two_cpus):
    results = fork_map(_slow_square, range(50))
    assert next(results)[0] == 0
    results.close()
    _assert_no_child()


def test_many_items_come_back_in_order(two_cpus):
    # More item indices than a pipe holds: the parent hands them out one
    # at a time, so none waits on a full pipe.
    with _within(60, "fork_map"):
        results = list(fork_map(abs, range(100_000)))
    assert results == list(range(100_000))
    _assert_no_child()


@pytest.mark.parametrize("exc", ["SystemExit", "KeyboardInterrupt"])
def test_exit_in_a_worker_reraises_for_its_item(exc):
    # A worker leaves through os._exit, so the script's own except and
    # finally blocks run once, in the parent.
    proc = _run_script(f"""
def fn(x):
    if x == 3:
        raise {exc}(x)
    return x
try:
    list(parallel.fork_map(fn, range(8)))
except {exc} as exc:
    print("caught", exc.args, flush=True)
finally:
    print("finally", flush=True)
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "caught (3,)\nfinally\n"


def test_buffered_output_is_written_once():
    proc = _run_script("""
import sys
print("before")
assert not (sys.stdout.line_buffering or sys.stdout.write_through)
print(list(parallel.fork_map(abs, [-1, -2, -3])))
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "before\n[1, 2, 3]\n"


def test_pool_imports_no_executor():
    proc = _run_script("""
import sys
assert list(parallel.fork_map(abs, [-1, -2])) == [1, 2]
print([name for name in ("multiprocessing", "concurrent.futures") if name in sys.modules])
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_unpicklable_result_fails_its_item(two_cpus):
    def lock_on_2(x):
        return threading.Lock() if x == 2 else x

    results = fork_map(lock_on_2, range(5))
    assert [next(results), next(results)] == [0, 1]
    with pytest.raises(TypeError, match="pickle") as info:
        next(results)
    assert not isinstance(info.value, WorkerLostError)
    _assert_no_child()


def test_no_item_starts_after_one_raised(two_cpus, tmp_path):
    def fail_on_1(x):
        (tmp_path / str(x)).touch()
        if x == 1:
            raise ConfigError("item 1 failed")
        time.sleep(0.5)
        return x

    with pytest.raises(ConfigError, match="item 1 failed"):
        list(fork_map(fail_on_1, range(10)))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["0", "1"]
    _assert_no_child()


def test_killed_worker_names_its_item_and_signal(two_cpus):
    def die_on_3(x):
        if x == 3:
            _kill_self()
        return x

    with pytest.raises(WorkerLostError, match=r"^item 3: worker \d+ was killed by SIGKILL$"):
        list(fork_map(die_on_3, range(6)))
    _assert_no_child()


def _digests(out):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ARTIFACTS}


@pytest.mark.parametrize("profile", ["mini", "small"])
def test_worker_count_does_not_change_artifacts(tmp_path, monkeypatch, profile):
    cfg = load_pipeline_config(load_config(profile, seed=7))
    run_pipeline(cfg, tmp_path / "pooled")
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0})
    run_pipeline(cfg, tmp_path / "serial")
    assert _digests(tmp_path / "pooled") == _digests(tmp_path / "serial")


def _files(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


def _leftovers(out):
    """Part and temporary files: every writer names them with a leading dot."""
    return sorted(p.name for p in out.glob(".*"))


def test_no_worker_outlives_a_stage(tmp_path, two_cpus, monkeypatch):
    cfg = load_pipeline_config(load_config("mini", seed=3))
    out = tmp_path / "out"
    pipeline.stage_simulate(cfg, out)
    _assert_no_child()
    assert _leftovers(out) == []
    pipeline.stage_flag(cfg, out)
    assert _leftovers(out) == []
    pipeline.stage_infer(cfg, out)
    _assert_no_child()


def test_no_worker_outlives_a_failed_stage(tmp_path, two_cpus, monkeypatch):
    doc = load_config("mini", seed=3)
    # Two (max_depth, features_per_split, min_leaf) groups: two infer tasks,
    # so the failing one runs in a pool.
    doc["grid"]["max_depth"] = [3, None]
    cfg = load_pipeline_config(doc)
    out = tmp_path / "out"
    pipeline.stage_simulate(cfg, out)
    pipeline.stage_flag(cfg, out)
    before = _files(out)
    real = pipeline.prepare_simulation

    def failing_run(*args):
        simulate_run = real(*args)

        def run_texts(run):  # run 2 fails after writing its adlog part
            texts = simulate_run(run)
            yield texts[0]
            if run == 2:
                raise ConfigError("simulate failed")
            yield from texts[1:]
        return run_texts

    monkeypatch.setattr(pipeline, "prepare_simulation", failing_run)
    with pytest.raises(ConfigError, match="simulate failed"):
        pipeline.stage_simulate(cfg, out)
    _assert_no_child()
    assert _files(out) == before

    def failing_score(patterns, cells, test, units):
        raise ConfigError("score failed")

    monkeypatch.setattr(tomography, "cv_scores", failing_score)
    with pytest.raises(ConfigError, match="score failed"):
        pipeline.stage_infer(cfg, out)
    _assert_no_child()



@pytest.mark.parametrize("profile", ["mini", "small"])
def test_flag_stage_artifacts_do_not_depend_on_worker_count(tmp_path, monkeypatch, profile):
    cfg = load_pipeline_config(load_config(profile, seed=7))
    pipeline.stage_simulate(cfg, tmp_path / "sim")
    flagged = {}
    for cpus in ({0}, {0, 1}):
        out = tmp_path / f"cpus-{len(cpus)}"
        shutil.copytree(tmp_path / "sim", out)
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        pipeline.stage_flag(cfg, out)
        _assert_no_child()
        flagged[len(cpus)] = [(out / name).read_bytes() for name in ("corpus.json",
                                                                      "records.jsonl")]
    assert flagged[1] == flagged[2]


def test_failed_flag_task_exits_2_with_its_message(tmp_path, monkeypatch, capsys):
    doc = load_config("mini", seed=3)
    config = tmp_path / "mini.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    pipeline.stage_simulate(load_pipeline_config(doc), out)
    simulated = _files(out)
    real = pipeline.flag_records

    def failing_flag(log, advertiser, *args):
        if advertiser == "dsp-2":
            raise ConfigError("cannot flag dsp-2", "records.jsonl")
        return real(log, advertiser, *args)

    monkeypatch.setattr(pipeline, "flag_records", failing_flag)
    stderr = {}
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        assert cli.main(["flag", "--config", str(config), "--out", str(out)]) == 2
        _assert_no_child()
        stderr[len(cpus)] = capsys.readouterr().err
    assert stderr[1] == stderr[2] == "adtomo: config error: records.jsonl: cannot flag dsp-2\n"
    assert not (out / "records.jsonl").exists()
    assert _leftovers(out) == []
    assert {name: (out / name).read_bytes() for name in simulated} == simulated


def test_cli_stages_leave_no_child_process(two_cpus, tmp_path):
    # cli.entry ends the process with os._exit once main returns, which is
    # safe only because no stage leaves a worker behind.
    config = tmp_path / "mini.json"
    config.write_text(json.dumps(load_config("mini", seed=7)), encoding="utf-8")
    for stage in ("simulate", "flag", "infer", "run"):
        assert cli.main([stage, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        _assert_no_child()


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("stage", ["simulate", "flag", "read"])
def test_worker_killed_mid_task_leaves_no_part_files(tmp_path, two_cpus, monkeypatch, stage):
    cfg = load_pipeline_config(load_config("mini", seed=3))
    out = tmp_path / "out"
    pipeline.stage_simulate(cfg, out)
    pipeline.stage_flag(cfg, out)
    before = _files(out)
    if stage == "read":  # the flag stage's read of adlog.jsonl, in two runs of lines
        monkeypatch.setattr(pipeline, "_SPAN_BYTES", 300)
        real_read = pipeline.iter_jsonl

        def dying_read(path, fields, check, start=0, stop=None):
            yield from real_read(path, fields, check, start, stop)
            if start:  # the second run's worker dies once it has parsed its lines
                _kill_self()

        monkeypatch.setattr(pipeline, "iter_jsonl", dying_read)
        stage = "flag"
    elif stage == "simulate":
        real = pipeline.prepare_simulation

        def dying_run(*args):
            simulate_run = real(*args)

            def run_texts(run):  # run 2's worker dies after writing its adlog part
                texts = simulate_run(run)
                yield texts[0]
                if run == 2:
                    _kill_self()
                yield from texts[1:]
            return run_texts

        monkeypatch.setattr(pipeline, "prepare_simulation", dying_run)
    else:
        real_flag = pipeline.flag_records

        def dying_flag(log, advertiser, *args):
            if advertiser == "dsp-2":
                _kill_self()
            return real_flag(log, advertiser, *args)

        monkeypatch.setattr(pipeline, "flag_records", dying_flag)
    with _within(60, "the stage waiting on the dead worker"), pytest.raises(WorkerLostError):
        getattr(pipeline, f"stage_{stage}")(cfg, out)
    _assert_no_child()
    assert _leftovers(out) == []
    assert _files(out) == before


def test_cli_reports_a_killed_worker_in_one_line(tmp_path, two_cpus, monkeypatch, capsys):
    doc = load_config("mini", seed=3)
    config = tmp_path / "mini.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    pipeline.stage_simulate(load_pipeline_config(doc), out)
    real = pipeline.flag_records

    def dying_flag(log, advertiser, *args):
        if advertiser == "dsp-2":
            _kill_self()
        return real(log, advertiser, *args)

    monkeypatch.setattr(pipeline, "flag_records", dying_flag)
    capsys.readouterr()
    assert cli.main(["flag", "--config", str(config), "--out", str(out)]) == 3
    _assert_no_child()
    err = capsys.readouterr().err
    assert err.startswith("adtomo: flag: a worker process died: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (out / "records.jsonl").exists()
    assert _leftovers(out) == []


def test_open_files_do_not_grow_with_the_runs(tmp_path):
    # 82 runs through the pool with at most 64 open files: the parent opens
    # one part at a time.
    doc = load_config("mini", seed=3)
    doc["sim"]["run"]["runs"] = 82
    script = f"""
import resource, sys
from pathlib import Path
resource.setrlimit(resource.RLIMIT_NOFILE, (64, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
from adtomo import parallel, pipeline
parallel.os.sched_getaffinity = lambda pid: {{0, 1}}
cfg = pipeline.load_pipeline_config({doc!r})
pipeline.stage_simulate(cfg, Path({str(tmp_path / "out")!r}))
"""
    src = Path(pipeline.__file__).parents[1]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "out" / "adlog.jsonl").read_text().splitlines()
    assert {json.loads(line)["run"] for line in lines} == set(range(82))
    assert _leftovers(tmp_path / "out") == []
    assert elapsed < 2.0


def _random_inference_case(seed, n_trees=(3, 5)):
    rng = random.Random(seed)
    trackers = [f"t{i}" for i in range(rng.randint(2, 5))]
    personas = [f"p{i}" for i in range(rng.randint(3, 8))]
    blocking = {p: tuple(t for t in trackers if rng.random() < 0.5) for p in personas}
    advertisers = [f"a{i}" for i in range(rng.randint(1, 4))]
    folds = rng.choice([2, 4])
    runs = folds * rng.randint(1, 2) + 1
    records = [FlaggedRecord(a, p, r, rng.random() < 0.5)
               for a in advertisers for p in personas for r in range(runs)]
    flags = Flags(advertisers, personas, np.array(
        [rec.is_different_from_control for rec in records],
        dtype=np.uint8).reshape(len(advertisers), len(personas), runs))
    grid = HyperGrid(n_trees=n_trees, max_depth=(2, None), features_per_split=("sqrt", "all"),
                     min_leaf=(1,))
    return records, flags, holdout_mask(runs, 1, seed), grid, folds, trackers, blocking


@pytest.mark.parametrize("case", range(6))
def test_run_inference_equals_per_advertiser_grid_search(case, two_cpus):
    records, flags, holdout, grid, folds, trackers, blocking = _random_inference_case(case)
    seed = 1000 + case
    reports = run_inference(flags, holdout, grid, folds, seed, trackers, blocking, 0.5)
    assert [r.advertiser for r in reports] == flags.advertisers
    for report in reports:
        mine = [rec for rec in records if rec.advertiser == report.advertiser]
        X, y, personas = design_by_records([rec for rec in mine if not holdout[rec.run]],
                                           sorted(trackers), blocking)
        adv_seed = substream_key(seed, "infer", report.advertiser)
        params, cv_acc = cross_validate_grid(X, y, personas, grid, folds, adv_seed)
        model = train_forest(X, y, params, adv_seed)
        X_h, y_h, _ = design_by_records([rec for rec in mine if holdout[rec.run]],
                                        sorted(trackers), blocking)
        assert (report.params, report.cv_accuracy) == (params, cv_acc)
        assert report.holdout_accuracy == accuracy(model, X_h, y_h)
        assert list(report.gains.values()) == feature_importance(model).tolist()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("budget", [1, 200])
def test_packed_units_equal_per_advertiser_grid_search(budget, cpus, monkeypatch):
    # Budget 1 puts every unit in a task alone; 200 tree-patterns packs a
    # few units of mixed n_trees into each task.  Even tree counts let
    # votes tie.
    monkeypatch.setattr(tomography, "_PACK_BUDGET", budget)
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    for case in range(6):
        records, flags, holdout, grid, folds, trackers, blocking = _random_inference_case(
            case, n_trees=(2, 6))
        reports = run_inference(flags, holdout, grid, folds, case, trackers, blocking, 0.5)
        for report in reports:
            X, y, personas = design_by_records(
                [rec for rec in records if rec.advertiser == report.advertiser
                 and not holdout[rec.run]], sorted(trackers), blocking)
            adv_seed = substream_key(case, "infer", report.advertiser)
            assert (report.params, report.cv_accuracy) == cross_validate_grid(
                X, y, personas, grid, folds, adv_seed), (case, report.advertiser)


def test_cv_units_spread_over_every_cpu(two_cpus, monkeypatch):
    # Both advertisers' single grid point fit one task by the budget; the
    # even share of the work per CPU still gives each unit its own task.
    # The final fits run in this process: the grid search is the one pool.
    _, flags, holdout, _, folds, trackers, blocking = _random_inference_case(5)
    assert len(flags.advertisers) == 2
    grid = HyperGrid(n_trees=(3,), max_depth=(2,), features_per_split=("all",), min_leaf=(1,))
    tasks = []
    real = tomography.fork_map

    def counting_map(fn, items):
        tasks.append(len(items))
        return real(fn, items)

    monkeypatch.setattr(tomography, "fork_map", counting_map)
    run_inference(flags, holdout, grid, folds, 7, trackers, blocking)
    assert tasks == [2]


def test_requires_python_has_add_note():
    # A worker attaches its traceback to an exception with
    # BaseException.add_note, new in Python 3.11.  Under 3.10 that call
    # raises in the worker, which dies, so a ConfigError of an item would
    # come back as WorkerLostError and the CLI would exit 3, not 2.
    import tomllib

    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    bound = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["requires-python"]
    assert bound.startswith(">=")
    assert tuple(map(int, bound[2:].split("."))) >= (3, 11)
