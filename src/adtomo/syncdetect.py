"""Cookie-sync detection over request logs.

A redirect hop evidences a sync partnership when the destination receives its
own cookie AND the request carries the source's user identifier as a
parameter: that is the full identifier-matching handshake.  Hops that carry a
cookie but no source uid are reported separately as weak candidates (the
looser any-cookie-in-a-redirect-chain reading), never merged into the main
result.

Identifier ownership is read from the structured forms ``c:<domain>`` and
``uid:<domain>`` the simulator emits; unstructured identifiers fall back to
HTTP semantics (a cookie is the destination's, a uid parameter the source's).

``stage_syncdetect`` reads ``requestlog.jsonl``, checks its chains against
the config's runs, personas and redirect hops, hop by hop, and writes
``sync_pairs.json``; it needs no numpy, so ``adtomo syncdetect`` starts
without it.
"""

from __future__ import annotations

import json
from collections import Counter
from operator import itemgetter
from pathlib import Path
from typing import Collection, Iterable, NamedTuple, Sequence

from .config import PipelineConfig
from .ecosim.types import RequestLogEntry, _chain_hops
from .errors import ConfigError
from .jsonio import iter_jsonl, write_json


class SyncPair(NamedTuple):
    initiator: str
    receiver: str
    evidence: tuple[tuple[int, str, int], ...]  # (run, persona, chain position)


class SyncReport(NamedTuple):
    pairs: tuple[SyncPair, ...]
    weak_candidates: tuple[SyncPair, ...]


def _owner(value: str | None, prefix: str) -> str | None:
    """Domain that owns a structured identifier, else None (unknown)."""
    if value is None:
        return None
    if value.startswith(prefix):
        return value[len(prefix):]
    return None


def _validate_chains(entries: list[RequestLogEntry], where: str) -> None:
    """ConfigError naming ``where`` and the chain unless every (run,
    persona) chain holds the positions 0 .. n - 1 once each."""
    chains: dict[tuple[int, str], list[int]] = {}
    for e in entries:
        chains.setdefault((e.run, e.persona), []).append(e.chain_position)
    for (run, persona), positions in chains.items():
        if sorted(positions) != list(range(len(positions))):
            raise ConfigError(f"position gaps in chain (run {run}, persona {persona!r})", where)


def detect_cookie_sync(log: Iterable[RequestLogEntry],
                       where: str = "requestlog.jsonl") -> SyncReport:
    """Scan redirect chains for cookie-sync hops; a chain with a gap raises
    ConfigError naming ``where``, the log's file.

    Order-invariant: chains are reconstructed per (run, persona) and read in
    position order regardless of how the log was shuffled.
    """
    entries = sorted(log, key=lambda e: (e.run, e.persona, e.chain_position))
    _validate_chains(entries, where)
    strict: dict[tuple[str, str], list[tuple[int, str, int]]] = {}
    weak: dict[tuple[str, str], list[tuple[int, str, int]]] = {}
    for e in entries:
        if e.cookie_sent is None or e.source_domain == e.destination_domain:
            continue
        cookie_owner = _owner(e.cookie_sent, "c:")
        if cookie_owner is not None and cookie_owner != e.destination_domain:
            continue  # someone else's cookie: not a delivery to its owner
        uid_owner = _owner(e.uid_param, "uid:")
        has_source_uid = e.uid_param is not None and uid_owner in (None, e.source_domain)
        bucket = strict if has_source_uid else weak
        bucket.setdefault((e.source_domain, e.destination_domain), []).append(
            (e.run, e.persona, e.chain_position))

    def as_pairs(found: dict) -> tuple[SyncPair, ...]:
        return tuple(SyncPair(src, dst, tuple(sorted(ev)))
                     for (src, dst), ev in sorted(found.items()))

    return SyncReport(pairs=as_pairs(strict), weak_candidates=as_pairs(weak))


# The fields of a hop, in ``_chain_hops``' order, and of a request log
# entry, in ``RequestLogEntry``'s.
_HOP_FIELDS = ("source_domain", "destination_domain", "cookie_sent", "uid_param")
_ENTRY_FIELDS = ("run", "persona", "chain_position", *_HOP_FIELDS)
_hop_of, _entry_of = itemgetter(*_HOP_FIELDS), itemgetter(*_ENTRY_FIELDS)


def _read_requestlog(path: Path, runs: int, personas: Collection[str],
                     hops: Sequence[tuple[str, str, str, str | None]]
                     ) -> list[RequestLogEntry]:
    """The entries of the request log ``path``, each built as its line is
    read; a run outside [0, ``runs``), a persona not in ``personas``, or a
    hop other than the one at its position of the config's chain ``hops``
    (``_chain_hops``) is rejected at its line."""
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
        if r["persona"] not in personas:
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
        return None

    return [RequestLogEntry(*_entry_of(r))
            for r in iter_jsonl(path, fields=_ENTRY_FIELDS, check=check)]


def _check_chain_lengths(entries: list[RequestLogEntry], runs: int, personas: list[str],
                         hops: int, where: str) -> None:
    """ConfigError naming ``where`` and the chain unless every (run,
    persona) of the config has a chain of the config's ``hops`` hops."""
    lengths = Counter((e.run, e.persona) for e in entries)
    for run in range(runs):
        for persona in personas:
            n = lengths[run, persona]
            if n != hops:
                raise ConfigError(f"no chain for (run {run}, persona {persona!r})" if not n
                                  else f"chain (run {run}, persona {persona!r}) holds {n} "
                                  f"hops, the config {hops}", where)


def stage_syncdetect(cfg: PipelineConfig, out_dir: Path) -> None:
    """Detect the cookie syncs of ``requestlog.jsonl``, whose chains must be
    those of the config: one per (run, persona), each the config's hops
    (``_chain_hops``).  A hop that differs from the config's at its
    position is rejected at its line; then a chain with a gap is reported
    as such before one of the wrong length."""
    path = out_dir / "requestlog.jsonl"
    personas = sorted(p.id for p in cfg.sim.personas)
    world = cfg.sim.world
    hops = _chain_hops(world, sorted(world.slots, key=lambda s: s.id))
    entries = _read_requestlog(path, cfg.sim.runs, set(personas), hops)
    report = detect_cookie_sync(entries, str(path))
    _check_chain_lengths(entries, cfg.sim.runs, personas, len(hops), str(path))

    def rows(pairs):
        return [{"initiator": p.initiator, "receiver": p.receiver,
                 "evidence": [list(e) for e in p.evidence]} for p in pairs]

    write_json(out_dir / "sync_pairs.json",
               {"pairs": rows(report.pairs),
                "weak_candidates": rows(report.weak_candidates)})
