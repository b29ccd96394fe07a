"""Domain types for the synthetic ad ecosystem.

The world is immutable once built: interest groups with token vocabularies, a
generic token pool, websites (group sites are a persona's training itinerary;
ungrouped sites only host ad slots), tracker organizations, advertisers, the
planted tracker->advertiser sharing graph, auction slots, and configured
cookie-sync pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..errors import ConfigError

MECHANISMS = ("rtb_waterfall", "hb_client", "hb_server")


@dataclass(frozen=True)
class InterestGroup:
    id: str
    vocabulary: tuple[str, ...]            # sorted, deduplicated
    generic_overlap: float                 # |vocabulary & generic pool| / |vocabulary|

    def __post_init__(self):
        if not self.vocabulary:
            raise ConfigError("vocabulary must be non-empty", f"groups[{self.id}].vocabulary")


@dataclass(frozen=True)
class Website:
    id: str
    group: str | None = None


@dataclass(frozen=True)
class TrackerOrg:
    id: str
    site_coverage: tuple[str, ...]
    observe_prob: float = 1.0


@dataclass(frozen=True)
class Advertiser:
    id: str
    base_bid: float
    knowledge_boost: float = 0.0
    bid_noise_sd: float = 0.0
    creative_length: int = 8


@dataclass(frozen=True)
class SharingEdge:
    tracker: str
    advertiser: str
    reliability: float = 1.0


@dataclass(frozen=True)
class SharingGraph:
    edges: tuple[SharingEdge, ...]

    def as_pairs(self) -> set[tuple[str, str]]:
        return {(e.tracker, e.advertiser) for e in self.edges}

    def edges_into(self, advertiser: str) -> list[SharingEdge]:
        return sorted((e for e in self.edges if e.advertiser == advertiser),
                      key=lambda e: e.tracker)


@dataclass(frozen=True)
class AuctionSlot:
    id: str
    website: str
    floor_price: float
    mechanism: str
    timeout: float = 1.0
    tiers: tuple[tuple[str, ...], ...] | None = None  # rtb only; None = single tier of all

    def __post_init__(self):
        if self.mechanism not in MECHANISMS:
            raise ConfigError(
                f"mechanism must be one of {MECHANISMS}, got {self.mechanism!r}",
                f"slots[{self.id}].mechanism")


@dataclass(frozen=True)
class BlockingConfig:
    """Set of blocked tracker orgs plus its bitmask (bit i = i-th tracker in
    lexicographic order)."""

    blocked: tuple[str, ...]
    mask: int = 0


@dataclass(frozen=True)
class Persona:
    id: str
    group: str
    blocking: BlockingConfig
    is_control: bool = False

    def __post_init__(self):
        if self.is_control and self.blocking.blocked:
            raise ConfigError("control personas must block nothing",
                              f"personas[{self.id}].blocking")


@dataclass(frozen=True)
class AdCreative:
    advertiser: str
    tokens: tuple[str, ...]
    slot: str
    run: int


@dataclass(frozen=True)
class RequestLogEntry:
    run: int
    persona: str
    chain_position: int
    source_domain: str
    destination_domain: str
    cookie_sent: str | None = None
    uid_param: str | None = None


@dataclass(frozen=True)
class World:
    """Immutable simulation world, fully determined by the configuration."""

    groups: tuple[InterestGroup, ...]
    websites: tuple[Website, ...]
    trackers: tuple[TrackerOrg, ...]
    advertisers: tuple[Advertiser, ...]
    graph: SharingGraph
    slots: tuple[AuctionSlot, ...]
    sync_pairs: tuple[tuple[str, str], ...]
    generic_pool: tuple[str, ...]

    @cached_property
    def group_by_id(self) -> dict[str, InterestGroup]:
        return {g.id: g for g in self.groups}

    @cached_property
    def tracker_by_id(self) -> dict[str, TrackerOrg]:
        return {t.id: t for t in self.trackers}

    @cached_property
    def advertiser_by_id(self) -> dict[str, Advertiser]:
        return {a.id: a for a in self.advertisers}

    @cached_property
    def tracker_ids(self) -> tuple[str, ...]:
        """Lexicographic tracker universe; fixes blocking-bitmask bit order."""
        return tuple(t.id for t in self.trackers)

    @cached_property
    def visited_by_group(self) -> dict[str, frozenset[str]]:
        return {g.id: frozenset(w.id for w in self.websites if w.group == g.id)
                for g in self.groups}

    def visited_sites(self, group_id: str) -> frozenset[str]:
        return self.visited_by_group[group_id]

    def canonical_dict(self) -> dict:
        """World content in a fixed order."""
        return {
            "groups": [{"id": g.id, "vocabulary": list(g.vocabulary),
                        "generic_overlap": g.generic_overlap} for g in self.groups],
            "websites": [{"id": w.id, "group": w.group} for w in self.websites],
            "trackers": [{"id": t.id, "site_coverage": list(t.site_coverage),
                          "observe_prob": t.observe_prob} for t in self.trackers],
            "advertisers": [{"id": a.id, "base_bid": a.base_bid,
                             "knowledge_boost": a.knowledge_boost,
                             "bid_noise_sd": a.bid_noise_sd,
                             "creative_length": a.creative_length}
                            for a in self.advertisers],
            "edges": [{"tracker": e.tracker, "advertiser": e.advertiser,
                       "reliability": e.reliability} for e in self.graph.edges],
            "slots": [{"id": s.id, "website": s.website, "floor_price": s.floor_price,
                       "mechanism": s.mechanism, "timeout": s.timeout,
                       "tiers": None if s.tiers is None else [list(t) for t in s.tiers]}
                      for s in self.slots],
            "sync_pairs": [list(p) for p in self.sync_pairs],
            "generic_pool": list(self.generic_pool),
        }
