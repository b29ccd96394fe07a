"""The evaluate stage: precision and recall of the inferred sharing edges
against the planted graph.

It reads only ``report.json`` and the config's world, and needs no numpy, so
``adtomo evaluate`` starts without it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from .config import PipelineConfig
from .ecosim.types import World
from .errors import ConfigError
from .jsonio import _check_fields, _check_strings, read_json, write_json


def evaluate(inferred: Iterable[tuple[str, str]],
             truth: Iterable[tuple[str, str]]) -> tuple[float, float]:
    """Precision and recall of inferred (tracker, advertiser) edges.

    An empty side scores 1.0 by convention: no inferences means no false
    positives, an empty truth set means nothing was missed.
    """
    inferred = set(inferred)
    truth = set(truth)
    hits = len(inferred & truth)
    precision = hits / len(inferred) if inferred else 1.0
    recall = hits / len(truth) if truth else 1.0
    return precision, recall


def _read_inferred_edges(out_dir: Path, world: World) -> set[tuple[str, str]]:
    """The (tracker, advertiser) edges ``report.json`` infers.  Its
    advertisers entries must hold one row per advertiser of ``world``, and
    every tracker a row infers must be one of ``world``'s."""
    path = out_dir / "report.json"
    report = read_json(path)
    _check_fields(report, {"advertisers": list}, str(path))
    rows: dict[str, int] = {}  # advertiser -> its entry
    for i, row in enumerate(report["advertisers"]):
        where = f"{path}: advertisers entry {i}"
        _check_fields(row, {"advertiser": str, "inferred": list}, where)
        _check_strings(row["inferred"], "inferred", where)
        if row["advertiser"] not in world.advertiser_by_id:
            raise ConfigError(f"advertiser {row['advertiser']!r} is not an advertiser of "
                              "the config", where)
        if rows.setdefault(row["advertiser"], i) != i:
            raise ConfigError(f"advertiser {row['advertiser']!r} repeats entry "
                              f"{rows[row['advertiser']]}", where)
        unknown = [t for t in row["inferred"] if t not in world.tracker_by_id]
        if unknown:
            raise ConfigError(f"inferred tracker {unknown[0]!r} is not a tracker of the config",
                              where)
    missing = sorted(world.advertiser_by_id.keys() - rows.keys())
    if missing:
        raise ConfigError(f"no advertisers entry for advertiser {missing[0]!r}", str(path))
    return {(t, row["advertiser"]) for row in report["advertisers"] for t in row["inferred"]}


def stage_evaluate(cfg: PipelineConfig, out_dir: Path) -> None:
    inferred = _read_inferred_edges(out_dir, cfg.sim.world)
    truth = cfg.sim.world.graph.as_pairs()
    precision, recall = evaluate(inferred, truth)
    write_json(out_dir / "evaluation.json", {
        "precision": precision,
        "recall": recall,
        "inferred_edges": sorted(list(e) for e in inferred),
        "true_edges": sorted(list(e) for e in truth),
    })
