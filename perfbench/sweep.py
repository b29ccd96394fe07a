"""Run the benchmark over several workloads and seeds, one run at a time.

    python3 perfbench/sweep.py [--workloads small-run,desk-flag,mini-cli]
        [--seeds 7 | 1-10] [--seconds 25] [--trace 0|1]
        [--summary FILE] [--record-goldens]

Prints, per workload and metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``), the interquartile range as a share
of the median, and the sample count (runs).  ``--summary`` merges these into
a JSON file under "end_to_end" (trace 0) or "per_layer" (trace 1).
``--record-goldens`` adds the artifact digests of each correct run to
perfbench/goldens.json for seeds that have none yet.  Exits 1 if any run
fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
GOLDENS = BENCH / "goldens.json"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="small-run,desk-flag,mini-cli")
    ap.add_argument("--seeds", default="7")
    ap.add_argument("--seconds", default="25")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--summary")
    ap.add_argument("--record-goldens", action="store_true")
    args = ap.parse_args(argv)

    goldens = json.loads(GOLDENS.read_text(encoding="utf-8")) if GOLDENS.is_file() else {}
    table, meta, ok = {}, None, True
    for workload in args.workloads.split(","):
        samples: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", str(args.trace)],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
            meta = {k: detail[k] for k in ("git_rev", "python", "numpy", "nproc", "backend",
                                            "page_cache")}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"golden={detail['golden']} precision={detail['precision']} "
                  f"recall={detail['recall']} samples={detail['samples']}", flush=True)
            for name, m in result["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            if args.record_goldens and not args.trace:
                goldens.setdefault(workload, {}).setdefault(str(seed), detail["digests"])
        table[workload] = {name: dict(summarize(v), unit=units[name])
                           for name, v in samples.items()}
        for name, s in table[workload].items():
            print(f"  {workload:10s} {name:28s} median {s['median']:.6g} {s['unit']} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} n={s['n']}")
    if args.record_goldens:
        GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    if args.summary:
        path = Path(args.summary)
        doc = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
        doc["machine"] = meta
        doc.setdefault("end_to_end" if args.trace == 0 else "per_layer", {}).update(
            {w: {"seeds": args.seeds, "seconds": float(args.seconds), "metrics": t}
             for w, t in table.items()})
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
