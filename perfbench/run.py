"""adtomo pipeline benchmark.

    python3 perfbench/run.py --workload small-run|desk-flag|mini-cli \
        [--seed 7] [--seconds 25] [--trace 0|1]

Run from the repository root; the program is imported from ``src/``.

Workloads (why each exists is in BENCHMARK.json):
  small-run  ``run_pipeline`` on configs/small.json in one process; the
             forest layer dominates.
  desk-flag  simulate -> flag -> syncdetect on configs/desk.json with 6 of its
             10 runs, no infer; ecosim, jsonio, textvec and stattest do the
             work.  6 runs keep each iteration near 25 s on a 2-core box while
             the per-record shapes (1,124 personas, 9 advertisers, dense
             2 x ~3,000 tables) stay those of desk.
  mini-cli   configs/mini.json as five ``python3 -m adtomo.cli <stage>``
             processes; every stage pays interpreter start-up and re-reads its
             inputs from disk.

Every timed iteration is a fresh child process (in-process workloads run in
``perfbench/worker.py``), started one at a time, so at most two processes
run at once.  Iterations repeat until ``--seconds`` would be exceeded, and at
least one runs.  ``setup_s`` is the median of 10 fresh interpreters that
import adtomo and load the config, half run before the iterations and half
after.  Outputs go to a fresh directory under ``.perfbench_work/``
in the checkout, removed at exit.  The OS page cache is not dropped between
iterations: that needs privileges the benchmark does not assume.

Correctness: the SHA-256 of every artifact is compared with the goldens in
``perfbench/goldens.json`` when the seed has one, otherwise with the other
iterations of the run; mini-cli's staged artifacts must also equal an
in-process ``run_pipeline`` over the same config and seed.  Every seed also
checks that each artifact exists and that evaluation.json agrees with
report.json and world.json.  A mismatch fails the stage that wrote the
artifact, and any failure makes the command exit 1.

With ``--trace 0`` the last stdout line holds the end-to-end metrics
(medians over the samples); with ``--trace 1`` it holds the per-layer metrics
of a traced iteration, next to an untraced one for ``tracing.overhead_s``.
The line before it carries metadata (versions, nproc, forest backend), sample
counts and raw samples, the failed share, digests, and precision / recall.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from tracing import PER_LAYER, STAGES, layer_metrics

BENCH = Path(__file__).resolve().parent
HARD_LIMIT_S = 170.0  # the whole command must end within 180 s
SETUP_PROBES = 10

END_TO_END = (
    ("setup_s", "s"),
    ("total_s", "s"),
    ("peak_rss_mb", "MB"),
)

# artifact -> the stage that writes it
PRODUCER = {
    "adlog.jsonl": "simulate", "requestlog.jsonl": "simulate",
    "bidlog.jsonl": "simulate", "personas.json": "simulate", "world.json": "simulate",
    "corpus.json": "flag", "records.jsonl": "flag",
    "report.json": "infer", "report.csv": "infer",
    "sync_pairs.json": "syncdetect", "evaluation.json": "evaluate",
}


@dataclass(frozen=True)
class Workload:
    config: str
    stages: tuple[str, ...]
    cli: bool
    runs: int | None = None  # override of sim.run.runs

    @property
    def artifacts(self) -> tuple[str, ...]:
        return tuple(a for a, s in PRODUCER.items() if s in self.stages)


WORKLOADS = {
    "small-run": Workload("configs/small.json", STAGES, cli=False),
    "desk-flag": Workload("configs/desk.json", ("simulate", "flag", "syncdetect"),
                          cli=False, runs=6),
    "mini-cli": Workload("configs/mini.json", STAGES, cli=True),
}


@dataclass
class Iteration:
    total_s: float
    stage_s: dict
    rss_mb: float
    cpu_s: float
    attempted: int
    failed: set = field(default_factory=set)
    digests: dict = field(default_factory=dict)
    layers: dict | None = None
    out: Path | None = None


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    cpu_s: float


class Runner:
    def __init__(self, root: Path, tmp: Path, workload: Workload, seed: int, cfg: Path):
        self.root, self.tmp, self.wl, self.seed, self.cfg = root, tmp, workload, seed, cfg
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.kill_at = time.monotonic() + HARD_LIMIT_S
        self.n = 0
        self.backend = None

    def _path(self, stem: str) -> Path:
        self.n += 1
        return self.tmp / f"{stem}-{self.n}"

    def spawn(self, cmd: list[str]) -> Child:
        """Run one child to completion; wall time from spawn to exit, and its
        peak RSS and CPU time from wait4."""
        log = self._path("log")
        with log.open("wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=fh,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(max(0.0, self.kill_at - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            sys.stderr.write(f"perfbench: {' '.join(cmd[1:4])} ... exited "
                             f"{proc.returncode}\n{log.read_text(errors='replace')[-2000:]}\n")
        return Child(proc.returncode, wall, ru.ru_maxrss / 1024.0, ru.ru_utime + ru.ru_stime)

    def setup_probe(self) -> Child:
        entry = "adtomo.cli" if self.wl.cli else "adtomo.pipeline"
        code = (f"import sys, {entry} as m; "
                "m.load_pipeline_config(sys.argv[1]).with_seed(int(sys.argv[2]))")
        return self.spawn([sys.executable, "-c", code, str(self.cfg), str(self.seed)])

    def in_process(self, trace: int, stages: str) -> Iteration:
        out, result = self._path("out"), self._path("result.json")
        out.mkdir()
        child = self.spawn([sys.executable, str(BENCH / "worker.py"), "--config", str(self.cfg),
                            "--seed", str(self.seed), "--out", str(out), "--stages", stages,
                            "--trace", str(trace), "--result", str(result)])
        n_stages = len(STAGES) if stages == "run" else len(stages.split(","))
        if child.code != 0:
            failed = set(STAGES if stages == "run" else stages.split(","))
            return Iteration(child.wall_s, {}, child.rss_mb, child.cpu_s, n_stages, failed, out=out)
        r = json.loads(result.read_text(encoding="utf-8"))
        self.backend = r["backend"]
        return Iteration(r["total_s"], r["stage_s"], child.rss_mb, r["cpu_s"], n_stages,
                         layers=r.get("layers"), out=out)

    def cli_stages(self, trace: int) -> Iteration:
        out = self._path("out")
        out.mkdir()
        states, stage_s, rss, cpu, failed, attempted = [], {}, 0.0, 0.0, set(), 0
        t0 = time.perf_counter()
        for stage in self.wl.stages:
            args = [stage, "--config", str(self.cfg), "--out", str(out), "--seed", str(self.seed)]
            if trace:
                states.append(self._path("state.json"))
                cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(states[-1]), *args]
            else:
                cmd = [sys.executable, "-m", "adtomo.cli", *args]
            child = self.spawn(cmd)
            attempted += 1
            stage_s[stage] = child.wall_s
            rss, cpu = max(rss, child.rss_mb), cpu + child.cpu_s
            if child.code != 0:
                failed.add(stage)
                break
        total = time.perf_counter() - t0
        layers = None
        if trace and not failed:
            layers = layer_metrics([json.loads(p.read_text(encoding="utf-8")) for p in states])
        return Iteration(total, stage_s, rss, cpu, attempted, failed, layers=layers, out=out)

    def iteration(self, trace: int) -> Iteration:
        if self.wl.cli:
            it = self.cli_stages(trace)
        else:
            stages = "run" if self.wl.stages == STAGES else ",".join(self.wl.stages)
            it = self.in_process(trace, stages)
        it.digests = digest_dir(it.out, self.wl.artifacts)
        it.failed |= invariant_failures(it.out, self.wl.artifacts)
        return it


def digest_dir(out: Path, artifacts) -> dict[str, str | None]:
    digests = {}
    for name in artifacts:
        path = out / name
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    return digests


def invariant_failures(out: Path, artifacts) -> set[str]:
    """Stages whose artifacts are missing or empty, plus evaluate when
    evaluation.json disagrees with report.json and the planted graph."""
    failed = {PRODUCER[a] for a in artifacts
              if not (out / a).is_file() or (out / a).stat().st_size == 0}
    if "evaluation.json" in artifacts and not failed:
        try:
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            world = json.loads((out / "world.json").read_text(encoding="utf-8"))
            ev = json.loads((out / "evaluation.json").read_text(encoding="utf-8"))
            inferred = {(t, a["advertiser"]) for a in report["advertisers"] for t in a["inferred"]}
            truth = {(e["tracker"], e["advertiser"]) for e in world["edges"]}
            hits = len(inferred & truth)
            ok = (ev["inferred_edges"] == sorted(list(e) for e in inferred)
                  and ev["true_edges"] == sorted(list(e) for e in truth)
                  and ev["precision"] == (hits / len(inferred) if inferred else 1.0)
                  and ev["recall"] == (hits / len(truth) if truth else 1.0))
        except (OSError, ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            failed.add("evaluate")
    return failed


def mismatched_stages(digests: dict, expected: dict) -> set[str]:
    return {PRODUCER[a] for a in digests if digests[a] != expected.get(a)}


def load_goldens(workload: str, seed: int) -> dict | None:
    path = BENCH / "goldens.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))


def git_rev(root: Path) -> str | None:
    if not (root / ".git").exists():  # e.g. an exported tree; never report a parent repo's rev
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def write_config(root: Path, wl: Workload, dest: Path) -> Path:
    doc = json.loads((root / wl.config).read_text(encoding="utf-8"))
    if wl.runs is not None:
        doc["sim"]["run"]["runs"] = wl.runs
    dest.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return dest


def measure(runner: Runner, trace: int, seconds: float, started: float) -> list[tuple]:
    """(trace flag, Iteration) pairs; with trace, an untraced and a traced
    iteration alternate."""
    plan = (0, 1) if trace else (0,)
    done, durations = [], []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for flag in plan:
            done.append((flag, runner.iteration(flag)))
        durations.append(time.perf_counter() - t0)
        now = time.perf_counter()
        nxt = statistics.median(durations)
        if now - t_start + nxt > seconds or now - started + nxt > HARD_LIMIT_S - 20:
            return done


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    root = Path.cwd()
    wl = WORKLOADS[args.workload]
    missing = [p for p in ("src/adtomo/pipeline.py", "src/adtomo/cli.py", wl.config)
               if not (root / p).is_file()]
    if missing:
        sys.stderr.write(f"perfbench: run from the repository root; missing {missing}\n")
        return 2

    work = root / ".perfbench_work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=work))
    try:
        runner = Runner(root, tmp, wl, args.seed, write_config(root, wl, tmp / "config.json"))
        return benchmark(runner, args, started)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def benchmark(runner: Runner, args, started: float) -> int:
    wl = runner.wl
    setup = []
    if not args.trace:
        runner.setup_probe()  # warm the bytecode and file caches
        # half the probes before the iterations and half after, so the median
        # spans the run rather than one moment of a shared machine's speed
        setup = [runner.setup_probe() for _ in range(SETUP_PROBES // 2)]
    runs = measure(runner, args.trace, args.seconds, started)
    if not args.trace:
        setup += [runner.setup_probe() for _ in range(SETUP_PROBES - len(setup))]
    if any(c.code != 0 for c in setup):
        sys.stderr.write("perfbench: importing adtomo or loading the config failed\n")
        return 1

    golden = load_goldens(args.workload, args.seed)
    reference = golden or runs[0][1].digests
    failed = sum(len(it.failed | mismatched_stages(it.digests, reference)) for _, it in runs)
    attempted = sum(it.attempted for _, it in runs)
    if wl.cli:
        # the pipeline.py contract: staged artifacts == in-process run_pipeline
        ref = runner.in_process(0, "run")
        ref_digests = digest_dir(ref.out, wl.artifacts)
        attempted += ref.attempted
        failed += len(ref.failed | mismatched_stages(ref_digests, reference))

    med = statistics.median
    untraced = [it for flag, it in runs if not flag]
    if args.trace:
        traced = [it.layers for flag, it in runs if flag and it.layers]
        values = {name: med([t[name] for t in traced]) for name in (traced[0] if traced else {})}
        for stage in ("simulate", "flag", "infer"):
            values[f"pipeline.{stage}_s"] = med([it.stage_s.get(stage, 0.0) for it in untraced])
        values["process.cpu_s"] = med([it.cpu_s for it in untraced])
        values["process.cpu_util"] = med([it.cpu_s / it.total_s for it in untraced])
        values["tracing.overhead_s"] = (med([it.total_s for flag, it in runs if flag])
                                        - med([it.total_s for it in untraced]))
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        values = {
            "setup_s": med([c.wall_s for c in setup]),
            "total_s": med([it.total_s for it in untraced]),
            "peak_rss_mb": med([it.rss_mb for it in untraced]),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    last = runs[-1][1]
    evaluation = last.out / "evaluation.json"
    quality = json.loads(evaluation.read_text(encoding="utf-8")) if evaluation.is_file() else {}
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_rev": git_rev(runner.root),
        "python": platform.python_version(), "numpy": version("numpy"),
        "nproc": len(os.sched_getaffinity(0)), "backend": runner.backend,
        "page_cache": "not dropped",
        "samples": {"setup": len(setup), "iterations": len(untraced),
                    "traced_iterations": len(runs) - len(untraced)},
        "raw": {"setup_s": [c.wall_s for c in setup],
                "total_s": [it.total_s for it in untraced],
                "peak_rss_mb": [it.rss_mb for it in untraced]},
        "golden": golden is not None,
        "failed_share": failed / attempted,
        "precision": quality.get("precision"), "recall": quality.get("recall"),
        "stage_s": [it.stage_s for _, it in runs],
        "digests": last.digests,
    }
    if args.trace:
        # nonzero when a traced function is gone or a hook no longer fits its call
        detail["trace_health"] = {name: values.get(name, 0)
                                  for name in ("tracing.missing_hooks", "tracing.hook_errors")}
    print(json.dumps({"detail": detail}))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
