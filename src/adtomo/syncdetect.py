"""Cookie-sync detection over the request log.

A redirect hop evidences a sync partnership when the destination receives its
own cookie AND the request carries the source's user identifier as a
parameter: that is the full identifier-matching handshake.  Hops that carry a
cookie but no source uid are reported separately as weak candidates (the
looser any-cookie-in-a-redirect-chain reading), never merged into the main
result.  ``_hop_kind`` tells which of the two a hop is, if either.

Identifier ownership is read from the structured forms ``c:<domain>`` and
``uid:<domain>`` the simulator emits; unstructured identifiers fall back to
HTTP semantics (a cookie is the destination's, a uid parameter the source's).

``stage_syncdetect`` reads ``requestlog.jsonl`` as the grid of the config's
(run, persona, chain position) cells: each line must hold the config's hop
at its position (``_chain_hops``) and fill its cell once, and every cell
must be filled.  A log it accepts is thus the config's chain in every
(run, persona), so the pairs it writes to ``sync_pairs.json`` are those of
the config's chain, each with every (run, persona) as evidence.  In this
simulator the cookie-sync baseline therefore always sees every configured
pair.  The stage needs no numpy, so ``adtomo syncdetect`` starts without it.
"""

from __future__ import annotations

import json
from operator import itemgetter
from pathlib import Path
from typing import Sequence

from .config import PipelineConfig
from .ecosim.types import _chain_hops
from .jsonio import LineGrid, iter_jsonl, write_json

# The fields of a hop, in ``_chain_hops``' order.
_HOP_FIELDS = ("source_domain", "destination_domain", "cookie_sent", "uid_param")
_hop_of = itemgetter(*_HOP_FIELDS)


def _owner(value: str | None, prefix: str) -> str | None:
    """Domain that owns a structured identifier, else None (unknown)."""
    if value is None:
        return None
    if value.startswith(prefix):
        return value[len(prefix):]
    return None


def _hop_kind(source: str, destination: str, cookie: str | None,
              uid: str | None) -> str | None:
    """``"pairs"`` for a hop that delivers the destination its own cookie
    with the source's uid, ``"weak_candidates"`` for one that delivers the
    cookie without it, else None."""
    if cookie is None or source == destination:
        return None
    cookie_owner = _owner(cookie, "c:")
    if cookie_owner is not None and cookie_owner != destination:
        return None  # someone else's cookie: not a delivery to its owner
    uid_owner = _owner(uid, "uid:")
    has_source_uid = uid is not None and uid_owner in (None, source)
    return "pairs" if has_source_uid else "weak_candidates"


def _read_requestlog(path: Path, runs: int, personas: Sequence[str],
                     hops: Sequence[tuple[str, str, str, str | None]]) -> None:
    """Check that the request log ``path`` fills the grid of runs
    [0, ``runs``) x ``personas`` x the positions of the config's chain
    ``hops`` (``_chain_hops``) exactly once (``LineGrid``).  A run, persona
    or position outside it, a hop other than the one at its position, or a
    cell filled twice is rejected at its line."""
    persona_index = {p: i for i, p in enumerate(personas)}
    grid = LineGrid("request", ("run", "persona", "chain_position"),
                    (range(runs), personas, range(len(hops))))

    def check(r, lineno: int) -> str | None:
        for field in ("run", "chain_position"):
            if type(r[field]) is not int:
                return f"field {field!r} must be a JSON integer"
        if not 0 <= r["run"] < runs:
            return f"field 'run' must be in [0, runs={runs}), got {r['run']}"
        if r["chain_position"] < 0:
            return f"field 'chain_position' must be >= 0, got {r['chain_position']}"
        for field in ("persona", "source_domain", "destination_domain"):
            if type(r[field]) is not str:
                return f"field {field!r} must be a JSON string"
        p = persona_index.get(r["persona"])
        if p is None:
            return f"persona {r['persona']!r} is missing from the config"
        for field in ("cookie_sent", "uid_param"):
            if r[field] is not None and type(r[field]) is not str:
                return f"field {field!r} must be a JSON string or null"
        position = r["chain_position"]
        if position >= len(hops):
            return (f"field 'chain_position' must be < {len(hops)}, the length of the "
                    f"config's chain, got {position}")
        if _hop_of(r) != hops[position]:
            hop = dict(zip(_HOP_FIELDS, hops[position]))
            return f"differs from hop {position} of the config's chain {json.dumps(hop)}"
        return grid.fill((r["run"] * len(personas) + p) * len(hops) + position, lineno)

    for _ in iter_jsonl(path, fields=("run", "persona", "chain_position", *_HOP_FIELDS),
                        check=check):
        pass
    grid.check_full(str(path))


def stage_syncdetect(cfg: PipelineConfig, out_dir: Path) -> None:
    """Check ``requestlog.jsonl`` against the config's chain grid
    (``_read_requestlog``), then write ``sync_pairs.json``: per kind of
    ``_hop_kind``, every (initiator, receiver) of the config's chain, in
    sorted order, with its evidence, every (run, persona, chain position)
    of its positions in that order."""
    personas = sorted(p.id for p in cfg.sim.personas)
    world = cfg.sim.world
    hops = _chain_hops(world, sorted(world.slots, key=lambda s: s.id))
    _read_requestlog(out_dir / "requestlog.jsonl", cfg.sim.runs, personas, hops)
    found: dict[str, dict[tuple[str, str], list[int]]] = {"pairs": {}, "weak_candidates": {}}
    for position, hop in enumerate(hops):
        kind = _hop_kind(*hop)
        if kind is not None:
            found[kind].setdefault(hop[:2], []).append(position)
    write_json(out_dir / "sync_pairs.json", {
        kind: [{"initiator": source, "receiver": destination,
                "evidence": [[run, persona, position] for run in range(cfg.sim.runs)
                             for persona in personas for position in positions]}
               for (source, destination), positions in sorted(pairs.items())]
        for kind, pairs in found.items()})
