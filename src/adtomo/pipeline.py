"""Pipeline orchestration: stages, artifacts, and the full run.

Every stage reads and writes fixed-name artifacts under one output directory:

    adlog.jsonl       delivered creatives        (simulate)
    requestlog.jsonl  redirect chains            (simulate)
    bidlog.jsonl      client-side HB bids        (simulate)
    personas.json     persona manifest, checked  (simulate)
    world.json        canonical static world     (simulate)
    corpus.json       token -> column order      (flag)
    records.jsonl     flagged vector records     (flag)
    report.json/.csv  inference report           (infer)
    sync_pairs.json   cookie-sync detection      (syncdetect)
    evaluation.json   precision/recall vs truth  (evaluate)
    h1_matrix.csv     similarity means + tests   (h1)

The personas come from the config alone (``SimConfig.personas``).
``personas.json`` records those the simulation ran, and ``flag``, ``infer``
and ``h1`` check it against the config (``_check_personas``): logs
simulated for other personas exit 2 rather than end in a wrong report.
So do the ad log's names: its ids index the config's sorted personas,
advertisers and tokens (``_ad_names``), and a name the config lacks exits
2 at its ``adlog.jsonl`` line.

``run`` composes simulate -> flag -> infer -> syncdetect -> evaluate through
these same functions, so running stages individually over the emitted
intermediates reproduces its artifacts byte for byte.

The stages that need no numpy live in their own modules
(``syncdetect.stage_syncdetect``, ``evaluation.stage_evaluate``) and the
config in ``config``, so the CLI can run them without importing this one.
This module imports them, and every module any stage calls, when it is
imported: an in-process caller pays all imports before its first stage,
never inside one.

``simulate`` and ``flag`` build their JSON-lines artifacts in pooled tasks
from fragments encoded once (``jsonio.encode_*``); each task writes its part
to disk and the parent splices the parts in item order (``_write_pooled``),
so the artifacts' text never passes between processes.  ``flag`` and ``h1``
parse ``adlog.jsonl`` in pooled tasks too, one per span of whole lines, and
each span's integer columns come back through the pool
(``_read_ad_columns``): reading writes no file.
"""

from __future__ import annotations

import csv
import json
import os
from array import array
from contextlib import ExitStack
from itertools import starmap
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .config import PipelineConfig, load_pipeline_config
from .ecosim.sim import prepare_simulation
from .errors import ConfigError
from .evaluation import stage_evaluate
from .jsonio import (LineGrid, _check_fields, _check_strings, encode_int, encode_scalar,
                     encode_str, iter_jsonl, open_atomic, read_json, write_json)
from .parallel import cpus, fork_map
from .syncdetect import stage_syncdetect
from .tomography import (
    AdLog,
    Flags,
    corpus_columns,
    flag_records,
    group_run_vectors,
    h1_similarity_matrix,
    holdout_mask,
    run_inference,
)

T = TypeVar("T")

ARTIFACTS = ("adlog.jsonl", "requestlog.jsonl", "bidlog.jsonl", "personas.json",
             "world.json", "corpus.json", "records.jsonl", "report.json",
             "report.csv", "sync_pairs.json", "evaluation.json")


# --------------------------------------------------------------------------
# artifact (de)serialization
# --------------------------------------------------------------------------

def _persona_manifest(cfg: PipelineConfig) -> list[dict]:
    return [{"id": p.id, "group": p.group, "blocked": list(p.blocked),
             "is_control": p.is_control} for p in cfg.sim.personas]


def _check_personas(cfg: PipelineConfig, out_dir: Path) -> None:
    """``personas.json`` must be the config's persona manifest, entry for
    entry.  The personas come from the config; the file only records those
    the simulation ran, so one that differs names its first differing
    entry."""
    path = out_dir / "personas.json"
    personas, manifest = read_json(path), _persona_manifest(cfg)
    if not isinstance(personas, list):
        raise ConfigError("expected a JSON list of persona entries", str(path))
    if len(personas) != len(manifest):
        raise ConfigError(f"holds {len(personas)} persona entries, the config "
                          f"{len(manifest)}", str(path))
    for i, (entry, expected) in enumerate(zip(personas, manifest)):
        # ``is not``: 0 and 1 compare equal to the JSON bools false and true.
        if entry != expected or entry["is_control"] is not expected["is_control"]:
            raise ConfigError(f"differs from the config's persona {json.dumps(expected)}",
                              f"{path}: entry {i}")


def _ad_names(cfg: PipelineConfig) -> tuple[list[str], list[str], list[str]]:
    """The (personas, advertisers, tokens) an ad log of ``cfg`` may name,
    each sorted: the config's personas and advertisers, and the world's
    group vocabularies and generic pool.  ``AdLog``'s ids index them."""
    world = cfg.sim.world
    return (sorted(p.id for p in cfg.sim.personas), sorted(a.id for a in world.advertisers),
            sorted(set(world.generic_pool).union(*(g.vocabulary for g in world.groups))))


# adlog.jsonl is parsed in spans of whole lines, one per CPU but at most one
# per whole _SPAN_BYTES of the file: a log under twice that is parsed in
# process.
_SPAN_BYTES = 1 << 20


def _line_spans(path: Path, size: int, count: int) -> list[tuple[int, int]]:
    """``path``, of ``size`` bytes, cut into at most ``count`` near-equal
    byte ranges of whole lines.  Each cut is the first line start at or
    after its even share, found by seeking there, so the file is not read
    to cut it."""
    cuts = [0]
    with path.open("rb") as fh:
        for k in range(1, count):
            fh.seek(max(k * size // count, cuts[-1]) - 1)
            fh.readline()
            cuts.append(fh.tell())
    cuts.append(size)
    return [(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]


def _parse_ads(path: Path, runs: int, index: Sequence[dict[str, int]], start: int = 0,
               stop: int | None = None) -> list[array]:
    """The run, persona, advertiser, token offsets and token columns of the
    ads of the lines of ``path`` that start in bytes [start, stop), each
    line checked and appended as it is read.  ``index`` gives the persona,
    advertiser and token ids by name; a name it lacks is rejected at its
    line.  No object per ad or per token occurrence is kept."""
    persona_index, advertiser_index, token_index = index
    run, persona, advertiser, token = (array("i") for _ in range(4))
    offsets = array("q", [0])

    def check(r, lineno: int) -> str | None:
        if type(r["run"]) is not int:
            return "field 'run' must be a JSON integer"
        if not 0 <= r["run"] < runs:
            return f"field 'run' must be in [0, runs={runs}), got {r['run']}"
        for field in ("persona", "slot", "advertiser"):
            if type(r[field]) is not str:
                return f"field {field!r} must be a JSON string"
        tokens = r["tokens"]
        if type(tokens) is not list or not set(map(type, tokens)) <= {str}:
            return "field 'tokens' must be a JSON list of strings"
        p = persona_index.get(r["persona"])
        if p is None:
            return f"persona {r['persona']!r} is missing from the config"
        a = advertiser_index.get(r["advertiser"])
        if a is None:
            return f"advertiser {r['advertiser']!r} is missing from the config"
        try:
            token.extend(map(token_index.__getitem__, tokens))
        except KeyError as exc:
            return f"token {exc.args[0]!r} is missing from the config"
        run.append(r["run"])
        persona.append(p)
        advertiser.append(a)
        offsets.append(len(token))
        return None

    for _ in iter_jsonl(path, ("run", "persona", "slot", "advertiser", "tokens"), check,
                        start, stop):
        pass
    return [run, persona, advertiser, offsets, token]


def _read_ad_columns(out_dir: Path, runs: int,
                     names: tuple[list[str], list[str], list[str]]) -> AdLog:
    """``adlog.jsonl`` as integer columns, ids indexing the sorted persona,
    advertiser and token lists ``names`` (``_ad_names``).  The log is cut
    into spans of whole lines (``_line_spans``), one per CPU but at most one
    per whole ``_SPAN_BYTES``, and each span is parsed by one ``fork_map``
    task (``_parse_ads``) whose columns come back through the pool; a log
    under two ``_SPAN_BYTES`` is one span, parsed in process.  The parent
    joins the columns in span order, shifting each span's token offsets by
    the tokens of the spans before it; one span's columns are used as they
    come.  No file is written, and the error raised names the log's first
    bad line."""
    path = out_dir / "adlog.jsonl"
    size = path.stat().st_size
    index = [{name: i for i, name in enumerate(n)} for n in names]
    spans = _line_spans(path, size, max(1, min(cpus(), size // _SPAN_BYTES)))
    parts = [[np.frombuffer(c, dtype=c.typecode) for c in part]
             for part in fork_map(lambda span: _parse_ads(path, runs, index, *span), spans)]
    if not sum(len(part[0]) for part in parts):
        raise ConfigError("holds no ads", str(path))
    if len(parts) == 1:
        return AdLog(*parts[0], *names)
    for before, part in zip(parts, parts[1:]):  # a span's token offsets start at 0
        part[3] = part[3][1:] + before[3][-1]
    return AdLog(*map(np.concatenate, zip(*parts)), *names)


def _read_corpus(out_dir: Path) -> dict[str, int]:
    """Token -> corpus column, as ``corpus.json`` orders the tokens."""
    path = out_dir / "corpus.json"
    doc = read_json(path)
    _check_fields(doc, {"tokens": list}, str(path))
    _check_strings(doc["tokens"], "tokens", str(path))
    index: dict[str, int] = {}
    for i, token in enumerate(doc["tokens"]):
        if index.setdefault(token, i) != i:
            raise ConfigError(f"duplicate token {token!r}", str(path))
    return index


def _record_grid(cfg: PipelineConfig) -> tuple[list[str], list[str]]:
    """The sorted (advertisers, personas) of the record grid: the config's
    advertisers and non-control personas, over every run."""
    return (sorted(a.id for a in cfg.sim.world.advertisers),
            sorted(p.id for p in cfg.sim.personas if not p.is_control))


def _read_records(out_dir: Path, corpus: dict[str, int], advertisers: list[str],
                  personas: list[str], runs: int) -> Flags:
    """The flags of ``records.jsonl``, every field and token checked, and
    every cell of the grid ``advertisers`` x ``personas`` x ``runs``
    (``_record_grid``) filled exactly once (``LineGrid``); a record outside
    it is rejected at its line.  Only each cell's line and flag are kept, in
    one flat array each.  A ``null`` flag is a record flag did not write."""
    path = out_dir / "records.jsonl"
    advertiser_index = {a: i for i, a in enumerate(advertisers)}
    persona_index = {p: i for i, p in enumerate(personas)}
    grid = LineGrid("record", ("advertiser", "persona", "run"),
                    (advertisers, personas, range(runs)))
    flags = bytearray(len(grid.lines))

    def check(r, lineno: int) -> str | None:
        for field in ("advertiser", "persona"):
            if not isinstance(r[field], str):
                return f"field {field!r} must be a JSON string"
        run = r["run"]
        if type(run) is not int:
            return "field 'run' must be a JSON integer"
        if not 0 <= run < runs:
            return f"field 'run' must be in [0, runs={runs}), got {run}"
        flag = r["is_different_from_control"]
        if flag is None:
            return "flag stage required: field 'is_different_from_control' is null"
        if not isinstance(flag, bool):
            return "field 'is_different_from_control' must be a JSON bool"
        if not isinstance(r["counts"], dict):
            return "'counts' must be a JSON object of token -> count"
        for token, c in r["counts"].items():
            if token not in corpus:
                return f"token {token!r} is missing from corpus.json"
            if type(c) is not int or c < 1:
                return f"count of token {token!r} must be an integer >= 1, got {c!r}"
        a = advertiser_index.get(r["advertiser"])
        if a is None:
            return f"advertiser {r['advertiser']!r} is missing from the config"
        p = persona_index.get(r["persona"])
        if p is None:
            return f"persona {r['persona']!r} is not a non-control persona of the config"
        cell = (a * len(personas) + p) * runs + run
        flags[cell] = flag
        return grid.fill(cell, lineno)

    for _ in iter_jsonl(path, fields=("advertiser", "persona", "run", "counts",
                                      "is_different_from_control"), check=check):
        pass
    grid.check_full(str(path))
    flag = np.frombuffer(flags, dtype=np.uint8).reshape(len(advertisers), len(personas), runs)
    return Flags(advertisers, personas, flag)


# --------------------------------------------------------------------------
# stages
# --------------------------------------------------------------------------

def _write_pooled(out_dir: Path, names: Sequence[str],
                  texts_of: Callable[[T], Iterable[Iterable[str]]], items: Sequence[T]) -> None:
    """Write the artifacts ``names`` under ``out_dir``.  ``texts_of(item)``
    yields, per name in order, an iterable of text pieces; each artifact is
    the concatenation of its pieces over the items, in item order.  The
    items run through ``fork_map``.  Each task writes its pieces through a
    buffered UTF-8 writer (``writelines``) to part files of its own (under
    ``out_dir``, named with a leading dot) and returns only their sizes, so
    no task joins or encodes an item's text whole; the parent appends each
    part to its artifact with ``os.sendfile`` and deletes it, so no process
    holds more than one item's text and the parent opens one part at a
    time.  The artifacts are replaced only when every part is appended; if
    anything fails, every part file is deleted and the artifacts keep their
    previous content."""
    pid = os.getpid()

    def part(name: str, i: int) -> Path:
        return out_dir / f".{name}.{pid}.{i}.part"

    def write_parts(i: int) -> list[int]:
        sizes = []
        for name, pieces in zip(names, texts_of(items[i])):
            with part(name, i).open("w", encoding="utf-8", newline="") as fh:
                fh.writelines(pieces)
            sizes.append(part(name, i).stat().st_size)
        return sizes

    results = fork_map(write_parts, range(len(items)))
    try:
        with ExitStack() as stack:
            outs = [stack.enter_context(open_atomic(out_dir / name, binary=True))
                    for name in names]
            for i, sizes in enumerate(results):
                for name, out, size in zip(names, outs, sizes):
                    with part(name, i).open("rb") as src:
                        offset = 0
                        while offset < size:
                            sent = os.sendfile(out.fileno(), src.fileno(), offset,
                                               size - offset)
                            if not sent:
                                raise OSError(f"{src.name}: {size - offset} bytes short")
                            offset += sent
                    part(name, i).unlink()
    except BaseException:
        results.close()  # the pool is shut down: no task writes a part any more
        for i in range(len(items)):
            for name in names:
                part(name, i).unlink(missing_ok=True)
        raise


def stage_simulate(cfg: PipelineConfig, out_dir: Path) -> None:
    """Simulate the runs in a process pool.  Each task writes its run's
    adlog, requestlog and bidlog text to part files that are appended to
    the three logs in run order, so the logs come out in canonical (run,
    persona, slot) order."""
    out_dir.mkdir(parents=True, exist_ok=True)
    world = cfg.sim.world
    simulate_run = prepare_simulation(world, cfg.sim.personas, cfg.seed)
    _write_pooled(out_dir, ("adlog.jsonl", "requestlog.jsonl", "bidlog.jsonl"), simulate_run,
                  range(cfg.sim.runs))
    write_json(out_dir / "personas.json", _persona_manifest(cfg))
    write_json(out_dir / "world.json", world.canonical_dict())


def stage_flag(cfg: PipelineConfig, out_dir: Path) -> None:
    """Flag and encode every record of the grid (``_record_grid``) in a
    process pool, one task per advertiser (``flag_records``).  Every task
    inherits the integer columns of ``adlog.jsonl`` (``_read_ad_columns``),
    whose ids index the config's names (``_ad_names``), and copies none.
    It writes its lines, built from fragments encoded once before the pool
    forks, to a part file appended to ``records.jsonl`` in advertiser
    order: no process holds every line."""
    log = _read_ad_columns(out_dir, cfg.sim.runs, _ad_names(cfg))
    _check_personas(cfg, out_dir)
    advertisers, grid = _record_grid(cfg)
    controls = {p.id for p in cfg.sim.personas if p.is_control}
    control = np.array([p in controls for p in log.personas], dtype=bool)  # per persona id
    if not control[log.persona].any():
        raise ConfigError("flag stage requires a control persona with at least one ad",
                          str(out_dir / "adlog.jsonl"))
    tokens, column = corpus_columns(log)
    write_json(out_dir / "corpus.json", {"tokens": tokens})
    # '"token":' per corpus column, and ',"persona":P,"run":' per persona.
    token_keys = [encode_str(t) + ":" for t in tokens]
    persona_heads = {p: f',"persona":{encode_str(p)},"run":' for p in grid}

    def flag_advertiser(advertiser: str) -> tuple[Iterable[str]]:
        head = '{"advertiser":' + encode_str(advertiser)

        def line(persona: str, run: int, vector: dict[int, int], flag: bool) -> str:
            counts = ",".join([token_keys[i] + encode_int(c) for i, c in vector.items()])
            return (f'{head}{persona_heads[persona]}{encode_int(run)},"counts":{{{counts}}},'
                    f'"is_different_from_control":{encode_scalar(flag)}}}\n')

        return (starmap(line, flag_records(log, advertiser, column, grid, cfg.sim.runs,
                                           cfg.stats)),)

    _write_pooled(out_dir, ("records.jsonl",), flag_advertiser, advertisers)


def _report_meta(cfg: PipelineConfig) -> dict:
    return {
        "config": cfg.resolved,
        "notes": {
            "tests": "two-sided",
            "importances": "normalized to sum 1",
            "folds": cfg.folds,
            "inference_rule": "gain > mean + 1 population sigma, gated on holdout accuracy",
        },
    }


def stage_infer(cfg: PipelineConfig, out_dir: Path) -> None:
    _check_personas(cfg, out_dir)
    flags = _read_records(out_dir, _read_corpus(out_dir), *_record_grid(cfg), cfg.sim.runs)
    blocking = {p.id: p.blocked for p in cfg.sim.personas}
    trackers = list(cfg.sim.world.tracker_ids)
    holdout = holdout_mask(cfg.sim.runs, cfg.holdout_runs, cfg.seed)
    reports = run_inference(flags, holdout, cfg.grid, cfg.folds, cfg.seed, trackers,
                            blocking, cfg.accuracy_threshold)
    truth = cfg.sim.world.graph.as_pairs()
    payload = _report_meta(cfg)
    payload["trackers"] = trackers
    payload["advertisers"] = [
        {"advertiser": r.advertiser,
         "params": {"n_trees": r.params.n_trees, "max_depth": r.params.max_depth,
                    "features_per_split": r.params.features_per_split,
                    "min_leaf": r.params.min_leaf},
         "cv_accuracy": r.cv_accuracy,
         "holdout_accuracy": r.holdout_accuracy,
         "gains": r.gains,
         "inferred": list(r.inferred)}
        for r in reports]
    write_json(out_dir / "report.json", payload)
    with open_atomic(out_dir / "report.csv", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["advertiser", "cv_accuracy", "holdout_accuracy", "tracker",
                         "gain", "inferred", "in_ground_truth"])
        for r in reports:
            for t in trackers:
                writer.writerow([
                    r.advertiser, repr(r.cv_accuracy), repr(r.holdout_accuracy), t,
                    repr(r.gains[t]), t in r.inferred, (t, r.advertiser) in truth])


def stage_h1(cfg: PipelineConfig, out_dir: Path) -> None:
    log = _read_ad_columns(out_dir, cfg.sim.runs, _ad_names(cfg))
    _check_personas(cfg, out_dir)
    vectors = group_run_vectors(log, {p.id: p.group for p in cfg.sim.personas})
    result = h1_similarity_matrix(vectors, str(out_dir / "adlog.jsonl"))
    with open_atomic(out_dir / "h1_matrix.csv", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["group_a", "group_b", "mean_similarity", "welch_t",
                         "welch_df", "welch_p"])
        for g1 in result.groups:
            for g2 in result.groups:
                test = result.tests.get((g1, g2))
                writer.writerow([
                    g1, g2, repr(result.means[(g1, g2)]),
                    "" if test is None else repr(test.statistic),
                    "" if test is None else repr(test.df),
                    "" if test is None else repr(test.p_value)])


def run_pipeline(cfg: PipelineConfig, out_dir: Path) -> None:
    """simulate -> flag -> infer -> syncdetect -> evaluate."""
    stage_simulate(cfg, out_dir)
    stage_flag(cfg, out_dir)
    stage_infer(cfg, out_dir)
    stage_syncdetect(cfg, out_dir)
    stage_evaluate(cfg, out_dir)
