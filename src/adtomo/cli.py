"""Command-line entry point.

Subcommands: simulate, flag, infer, h1, syncdetect, evaluate, run.  Each
reads --config (a pipeline JSON document), writes artifacts under --out
(default: the config's output_dir), and honors --seed as an override of the
config seed.  Exit codes: 0 success, 2 usage/config error, 3 I/O error or a
worker process that died.

A command imports only the module of its stage, when it runs it:
``pipeline`` for simulate, flag, infer, h1 and run, ``syncdetect`` and
``evaluation`` for the other two, which need no numpy.  A stage that reads
its input needs ``--out`` to exist already; only ``simulate`` (and ``run``,
which starts with it) creates it.

An ``adtomo`` process runs ``entry``, not ``main``.  Before any stage
imports numpy it sets ``OPENBLAS_NUM_THREADS`` to 1 unless the user set it:
no stage calls BLAS, so numpy's OpenBLAS then starts no thread.  When
``main`` returns, every artifact has been written and closed and every
worker reaped, so ``entry`` flushes stdout and stderr and leaves through
``os._exit`` without tearing the interpreter down.  An exception that
escapes ``main``, and argparse's ``SystemExit``, end the process the usual
way.  Tests call ``main`` in process.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from pathlib import Path

from .config import PipelineConfig, load_pipeline_config
from .errors import ConfigError, StatError, WorkerLostError


def _stage(module: str, name: str):
    """The function ``name`` of ``adtomo.<module>``, imported on the call."""
    def run(cfg: PipelineConfig, out_dir: Path) -> None:
        getattr(importlib.import_module(f".{module}", __package__), name)(cfg, out_dir)
    return run


_STAGES = {
    "simulate": _stage("pipeline", "stage_simulate"),
    "flag": _stage("pipeline", "stage_flag"),
    "infer": _stage("pipeline", "stage_infer"),
    "h1": _stage("pipeline", "stage_h1"),
    "syncdetect": _stage("syncdetect", "stage_syncdetect"),
    "evaluate": _stage("evaluation", "stage_evaluate"),
    "run": _stage("pipeline", "run_pipeline"),
}

_DESCRIPTIONS = {
    "simulate": "build the world and emit ad/request/bid logs",
    "flag": "count each record's creatives and flag changes against the controls",
    "infer": "fit per-advertiser models and infer sharing relationships",
    "h1": "similarity matrix of per-(group, run) ad documents",
    "syncdetect": "detect cookie-sync pairs in the request log",
    "evaluate": "score the inference report against the planted graph",
    "run": "full pipeline: simulate, flag, infer, syncdetect, evaluate",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adtomo",
        description="ad-ecosystem simulator and sharing-relationship tomography")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in _DESCRIPTIONS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="pipeline config JSON")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_pipeline_config(args.config)
    except FileNotFoundError:
        print(f"adtomo: config file not found: {args.config}", file=sys.stderr)
        return 2
    except IsADirectoryError:
        print(f"adtomo: config path is a directory: {args.config}", file=sys.stderr)
        return 2
    except (ConfigError, StatError) as exc:
        print(f"adtomo: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"adtomo: i/o error: {exc}", file=sys.stderr)
        return 3
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    out_dir = Path(args.out) if args.out else Path(cfg.output_dir)
    try:
        _STAGES[args.command](cfg, out_dir)
    except (ConfigError, StatError) as exc:
        print(f"adtomo: config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        missing = Path(str(exc.filename)).name if exc.filename else str(exc)
        print(f"adtomo: missing input {missing}: run the producing stage first",
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"adtomo: i/o error: {exc}", file=sys.stderr)
        return 3
    except WorkerLostError as exc:
        print(f"adtomo: {args.command}: a worker process died: {exc}", file=sys.stderr)
        return 3
    return 0


def entry() -> None:
    """Run ``main`` as the ``adtomo`` process, and end it with main's exit
    code without interpreter teardown (see the module docstring)."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
