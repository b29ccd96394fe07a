"""Simulation config parsing, validation, and world construction.

The canonical encoding is one JSON document, the ``sim`` of a pipeline
config:

    {"world": {"generic_pool": [...], "groups": [...], "websites": [...],
               "trackers": [...], "advertisers": [...], "edges": [...],
               "slots": [...], "sync_pairs": [...]},
     "run":   {"personas": ..., "runs": N}}

``run.personas`` is either an explicit list of persona objects or an
enumeration spec ``{"group": g, "controls": c}`` that creates one persona per
blocked-tracker combination (2^k of them, ids ``p-<bitmask>``) plus ``c``
unblocked control personas (ids ``ctrl-<i>``).  An explicit list needs at
least one persona that is not a control, because inference learns from
those alone, and a control persona blocks nothing.  ``SimConfig.personas``
is the only source of the personas: every stage takes them from here.

Every entry of a ``world`` list and of an explicit ``run.personas`` list is
an object holding only the keys its kind knows.  Every validation failure
raises ConfigError carrying the offending field's full path in the pipeline
config, e.g. ``sim.world.trackers[1].observe_prob`` or ``sim.run.runs``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ..errors import ConfigError, check_known_keys
from .types import (
    MECHANISMS,
    Advertiser,
    AuctionSlot,
    InterestGroup,
    Persona,
    SharingEdge,
    SharingGraph,
    TrackerOrg,
    Website,
    World,
)


class SimConfig(NamedTuple):
    world: World          # validated static world
    personas: tuple[Persona, ...]
    runs: int


def _typed(value, kind, path):
    """``value`` when it is a ``kind``; a JSON bool is not an int."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"expected {kind.__name__}, got {type(value).__name__}", path)
    return value


def _require(mapping, key, path, kind=None):
    if key not in mapping:
        raise ConfigError("missing required field", f"{path}.{key}")
    value = mapping[key]
    return value if kind is None else _typed(value, kind, f"{path}.{key}")


def _strings(value, path) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError("expected a list of strings", path)
    return value


def _entries(items, path, known):
    """(path, entry) for each entry of the list ``items``, each an object
    holding only keys in ``known``."""
    for i, entry in enumerate(items):
        where = f"{path}[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"expected an object, got {type(entry).__name__}", where)
        check_known_keys(entry, known, where + ".")
        yield where, entry


def _probability(value, path):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError("expected a number", path)
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"probability out of [0, 1]: {value}", path)
    return float(value)


def _non_negative(value, path):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError("expected a number", path)
    if not math.isfinite(value):
        raise ConfigError(f"must be a finite number, got {value}", path)
    if value < 0:
        raise ConfigError(f"must be non-negative, got {value}", path)
    return float(value)


def _unique_ids(items, path):
    seen = set()
    for i, item in enumerate(items):
        if item.id in seen:
            raise ConfigError(f"duplicate id {item.id!r}", f"{path}[{i}].id")
        seen.add(item.id)
    return seen


def _parse_world(w: dict) -> World:
    pool = tuple(sorted(set(_strings(_require(w, "generic_pool", "sim.world"),
                                      "sim.world.generic_pool"))))

    groups = []
    for path, g in _entries(_require(w, "groups", "sim.world", list), "sim.world.groups",
                            ("id", "vocabulary")):
        vocab_raw = _strings(_require(g, "vocabulary", path), f"{path}.vocabulary")
        if not vocab_raw:
            raise ConfigError("vocabulary must be non-empty", f"{path}.vocabulary")
        vocab = tuple(sorted(set(vocab_raw)))
        overlap = len(set(vocab) & set(pool)) / len(vocab)
        groups.append(InterestGroup(_require(g, "id", path, str), vocab, overlap))
    groups.sort(key=lambda g: g.id)
    group_ids = _unique_ids(groups, "sim.world.groups")

    websites = []
    for path, s in _entries(_require(w, "websites", "sim.world", list), "sim.world.websites",
                            ("id", "group")):
        group = s.get("group")
        if group is not None and not isinstance(group, str):
            raise ConfigError("expected a string or null", f"{path}.group")
        if group is not None and group not in group_ids:
            raise ConfigError(f"dangling group reference {group!r}", f"{path}.group")
        websites.append(Website(_require(s, "id", path, str), group))
    websites.sort(key=lambda s: s.id)
    site_ids = _unique_ids(websites, "sim.world.websites")

    trackers = []
    for path, t in _entries(_require(w, "trackers", "sim.world", list), "sim.world.trackers",
                            ("id", "site_coverage", "observe_prob")):
        coverage = tuple(sorted(set(_strings(_require(t, "site_coverage", path),
                                             f"{path}.site_coverage"))))
        for site in coverage:
            if site not in site_ids:
                raise ConfigError(f"dangling website reference {site!r}",
                                  f"{path}.site_coverage")
        trackers.append(TrackerOrg(
            _require(t, "id", path, str), coverage,
            _probability(t.get("observe_prob", 1.0), f"{path}.observe_prob")))
    trackers.sort(key=lambda t: t.id)
    tracker_ids = _unique_ids(trackers, "sim.world.trackers")

    advertisers = []
    for path, a in _entries(_require(w, "advertisers", "sim.world", list), "sim.world.advertisers",
                            ("id", "base_bid", "knowledge_boost", "bid_noise_sd",
                             "creative_length")):
        length = _require(a, "creative_length", path, int)
        if length < 1:
            raise ConfigError(f"creative_length must be >= 1, got {length}",
                              f"{path}.creative_length")
        advertisers.append(Advertiser(
            _require(a, "id", path, str),
            _non_negative(_require(a, "base_bid", path), f"{path}.base_bid"),
            _non_negative(a.get("knowledge_boost", 0.0), f"{path}.knowledge_boost"),
            _non_negative(a.get("bid_noise_sd", 0.0), f"{path}.bid_noise_sd"),
            length))
    advertisers.sort(key=lambda a: a.id)
    advertiser_ids = _unique_ids(advertisers, "sim.world.advertisers")

    overlap_ids = tracker_ids & advertiser_ids
    if overlap_ids:
        raise ConfigError(
            f"tracker and advertiser id spaces must be disjoint, both contain {sorted(overlap_ids)}",
            "sim.world")

    edges = []
    edge_pairs = set()
    for path, e in _entries(_typed(w.get("edges", []), list, "sim.world.edges"), "sim.world.edges",
                            ("tracker", "advertiser", "reliability")):
        tracker = _require(e, "tracker", path, str)
        advertiser = _require(e, "advertiser", path, str)
        if tracker not in tracker_ids:
            raise ConfigError(f"dangling tracker reference {tracker!r}", f"{path}.tracker")
        if advertiser not in advertiser_ids:
            raise ConfigError(f"dangling advertiser reference {advertiser!r}",
                              f"{path}.advertiser")
        if (tracker, advertiser) in edge_pairs:
            raise ConfigError(f"duplicate edge {(tracker, advertiser)}", path)
        edge_pairs.add((tracker, advertiser))
        edges.append(SharingEdge(
            tracker, advertiser,
            _probability(e.get("reliability", 1.0), f"{path}.reliability")))
    edges.sort(key=lambda e: (e.tracker, e.advertiser))

    slots = []
    for path, s in _entries(_require(w, "slots", "sim.world", list), "sim.world.slots",
                            ("id", "website", "floor_price", "mechanism", "timeout", "tiers")):
        website = _require(s, "website", path, str)
        if website not in site_ids:
            raise ConfigError(f"dangling website reference {website!r}", f"{path}.website")
        tiers = s.get("tiers")
        if tiers is not None:
            parsed_tiers = []
            for j, tier in enumerate(_typed(tiers, list, f"{path}.tiers")):
                for aid in _strings(tier, f"{path}.tiers[{j}]"):
                    if aid not in advertiser_ids:
                        raise ConfigError(f"dangling advertiser reference {aid!r}",
                                          f"{path}.tiers[{j}]")
                parsed_tiers.append(tuple(tier))
            tiers = tuple(parsed_tiers)
        timeout = _non_negative(s.get("timeout", 1.0), f"{path}.timeout")
        if timeout <= 0:
            raise ConfigError("timeout must be positive", f"{path}.timeout")
        slot_id = _require(s, "id", path, str)
        floor_price = _non_negative(_require(s, "floor_price", path), f"{path}.floor_price")
        mechanism = _require(s, "mechanism", path, str)
        if mechanism not in MECHANISMS:
            raise ConfigError(f"mechanism must be one of {MECHANISMS}, got {mechanism!r}",
                              f"{path}.mechanism")
        slots.append(AuctionSlot(slot_id, website, floor_price, mechanism, timeout, tiers))
    slots.sort(key=lambda s: s.id)
    _unique_ids(slots, "sim.world.slots")

    sync_pairs = []
    known_domains = tracker_ids | advertiser_ids
    for i, pair in enumerate(_typed(w.get("sync_pairs", []), list, "sim.world.sync_pairs")):
        path = f"sim.world.sync_pairs[{i}]"
        if len(_strings(pair, path)) != 2:
            raise ConfigError("expected [initiator, receiver]", path)
        src, dst = pair
        if src == dst:
            raise ConfigError("initiator and receiver must differ", path)
        for d in (src, dst):
            if d not in known_domains:
                raise ConfigError(f"dangling domain reference {d!r}", path)
        sync_pairs.append((src, dst))
    sync_pairs.sort()

    return World(
        groups=tuple(groups), websites=tuple(websites), trackers=tuple(trackers),
        advertisers=tuple(advertisers), graph=SharingGraph(tuple(edges)),
        slots=tuple(slots), sync_pairs=tuple(sync_pairs), generic_pool=pool)


def enumerate_personas(world: World, group: str, controls: int) -> tuple[Persona, ...]:
    """One persona per blocked-tracker combination, id ``p-<bits>`` with bit
    i set when the i-th tracker in id order is blocked, plus unblocked
    controls."""
    if group not in world.group_by_id:
        raise ConfigError(f"dangling group reference {group!r}", "sim.run.personas.group")
    k = len(world.tracker_ids)
    width = max(k, 1)
    personas = []
    for mask in range(1 << k):
        blocked = tuple(world.tracker_ids[i] for i in range(k) if mask >> i & 1)
        personas.append(Persona(f"p-{mask:0{width}b}", group, blocked, False))
    for c in range(controls):
        personas.append(Persona(f"ctrl-{c:03d}", group, (), True))
    return tuple(personas)


def _parse_personas(spec, world: World) -> tuple[Persona, ...]:
    path = "sim.run.personas"
    if isinstance(spec, dict):
        check_known_keys(spec, ("group", "controls"), path + ".")
        group = _require(spec, "group", path, str)
        controls = _typed(spec.get("controls", 0), int, f"{path}.controls")
        if controls < 0:
            raise ConfigError("controls must be a non-negative integer", f"{path}.controls")
        return enumerate_personas(world, group, controls)
    if not isinstance(spec, list) or not spec:
        raise ConfigError("personas must be a non-empty list or an enumeration spec", path)
    personas = []
    seen = set()
    for where, p in _entries(spec, path, ("id", "group", "blocked", "is_control")):
        pid = _require(p, "id", where, str)
        if pid in seen:
            raise ConfigError(f"duplicate id {pid!r}", f"{where}.id")
        seen.add(pid)
        group = _require(p, "group", where, str)
        if group not in world.group_by_id:
            raise ConfigError(f"dangling group reference {group!r}", f"{where}.group")
        blocked = tuple(sorted(set(_strings(p.get("blocked", []), f"{where}.blocked"))))
        for t in blocked:
            if t not in world.tracker_by_id:
                raise ConfigError(f"dangling tracker reference {t!r}", f"{where}.blocked")
        is_control = _typed(p.get("is_control", False), bool, f"{where}.is_control")
        if is_control and blocked:
            raise ConfigError("control personas must block nothing", f"{where}.blocked")
        personas.append(Persona(pid, group, blocked, is_control))
    if all(p.is_control for p in personas):
        raise ConfigError("inference needs a persona that is not a control", path)
    return tuple(sorted(personas, key=lambda p: p.id))


_SIM_KEYS = ("world", "run")
_RUN_KEYS = ("personas", "runs")
_WORLD_KEYS = ("generic_pool", "groups", "websites", "trackers", "advertisers", "edges",
               "slots", "sync_pairs")


def sim_config_from_dict(d: dict) -> SimConfig:
    """Parse and validate a full simulation config document.  An unknown key
    in the document, its ``run`` or its ``world`` is an error naming it."""
    if not isinstance(d, dict):
        raise ConfigError("expected an object", "sim")
    check_known_keys(d, _SIM_KEYS, "sim.")
    world_section = _require(d, "world", "sim", dict)
    run_section = _require(d, "run", "sim", dict)
    check_known_keys(run_section, _RUN_KEYS, "sim.run.")
    check_known_keys(world_section, _WORLD_KEYS, "sim.world.")
    runs = _require(run_section, "runs", "sim.run", int)
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, got {runs}", "sim.run.runs")
    world = _parse_world(world_section)
    personas = _parse_personas(_require(run_section, "personas", "sim.run"), world)
    return SimConfig(world=world, personas=personas, runs=runs)

