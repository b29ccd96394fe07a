"""One in-process benchmark iteration, in a fresh interpreter.

    python3 perfbench/worker.py --config CFG --seed N --out DIR \
        --stages run|simulate,flag,... --trace 0|1 --result FILE

Imports adtomo, loads and validates the config, injects the seed the way
``adtomo --seed`` does (``PipelineConfig.with_seed``), then runs either
``run_pipeline`` ("run") or the named stages in order, and writes a JSON
result with the stage times, the span from the first stage call to the last
stage return, and the CPU time over that span.  With ``--trace 1`` every layer
is traced and the per-layer metrics are included.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from tracing import Tracer, install_layers, install_stages, layer_metrics, stage_times


def forest_backend() -> str | None:
    """The forest backend where the program still has a switch, else None.
    Only reads it, so removing the switch cannot break the benchmark."""
    try:
        from adtomo.forest import kernels
        return kernels.get_backend()
    except (ImportError, AttributeError):
        return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--stages", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    from adtomo import pipeline

    tracer = Tracer()
    if args.trace:
        install_layers(tracer)
    install_stages(tracer, pipeline)
    cfg = pipeline.load_pipeline_config(args.config).with_seed(args.seed)
    out = Path(args.out)
    t0, c0 = time.perf_counter(), time.process_time()
    if args.stages == "run":
        pipeline.run_pipeline(cfg, out)
    else:
        for stage in args.stages.split(","):
            getattr(pipeline, f"stage_{stage}")(cfg, out)
    total_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
    state = tracer.finish()
    result = {
        "total_s": total_s,
        "cpu_s": cpu_s,
        "stage_s": stage_times([state]),
        "backend": forest_backend(),
    }
    if args.trace:
        result["layers"] = layer_metrics([state])
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
