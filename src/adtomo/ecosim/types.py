"""Domain types for the synthetic ad ecosystem.

The world is immutable once built: interest groups with token vocabularies, a
generic token pool, websites (group sites are a persona's training itinerary;
ungrouped sites only host ad slots), tracker organizations, advertisers, the
planted tracker->advertiser sharing graph, auction slots, and configured
cookie-sync pairs.  A persona is one group's itinerary with one set of
blocked trackers; it exists only as the config gives it
(``SimConfig.personas``), and ``personas.json`` merely records it.

Each type is a ``NamedTuple`` and checks nothing itself: the config loader
(``ecosim.config``) validates every value it builds one from, and names
the offending config path when it rejects one.  ``World`` is a plain class
so that it can build its id lookups once, when it is built.
``_chain_hops`` is the redirect chain every (run, persona) emits: the
simulator writes it, and ``syncdetect`` checks the request log's chains
against it, hop by hop.
"""

from __future__ import annotations

from typing import NamedTuple

MECHANISMS = ("rtb_waterfall", "hb_client", "hb_server")


class InterestGroup(NamedTuple):
    id: str
    vocabulary: tuple[str, ...]            # sorted, deduplicated, non-empty
    generic_overlap: float                 # |vocabulary & generic pool| / |vocabulary|


class Website(NamedTuple):
    id: str
    group: str | None = None


class TrackerOrg(NamedTuple):
    id: str
    site_coverage: tuple[str, ...]
    observe_prob: float = 1.0


class Advertiser(NamedTuple):
    id: str
    base_bid: float
    knowledge_boost: float = 0.0
    bid_noise_sd: float = 0.0
    creative_length: int = 8


class SharingEdge(NamedTuple):
    tracker: str
    advertiser: str
    reliability: float = 1.0


class SharingGraph(NamedTuple):
    edges: tuple[SharingEdge, ...]

    def as_pairs(self) -> set[tuple[str, str]]:
        return {(e.tracker, e.advertiser) for e in self.edges}

    def edges_into(self, advertiser: str) -> list[SharingEdge]:
        return sorted((e for e in self.edges if e.advertiser == advertiser),
                      key=lambda e: e.tracker)


class AuctionSlot(NamedTuple):
    id: str
    website: str
    floor_price: float
    mechanism: str                         # one of MECHANISMS
    timeout: float = 1.0
    tiers: tuple[tuple[str, ...], ...] | None = None  # rtb only; None = single tier of all


class Persona(NamedTuple):
    id: str
    group: str
    blocked: tuple[str, ...]               # sorted tracker ids; empty for a control
    is_control: bool = False


class AdCreative(NamedTuple):
    advertiser: str
    tokens: tuple[str, ...]
    slot: str
    run: int


class RequestLogEntry(NamedTuple):
    run: int
    persona: str
    chain_position: int
    source_domain: str
    destination_domain: str
    cookie_sent: str | None = None
    uid_param: str | None = None


class World:
    """Simulation world, fully determined by the configuration and never
    changed once built.  The id lookups are built once, with the world."""

    def __init__(self, groups: tuple[InterestGroup, ...], websites: tuple[Website, ...],
                 trackers: tuple[TrackerOrg, ...], advertisers: tuple[Advertiser, ...],
                 graph: SharingGraph, slots: tuple[AuctionSlot, ...],
                 sync_pairs: tuple[tuple[str, str], ...], generic_pool: tuple[str, ...]):
        self.groups = groups
        self.websites = websites
        self.trackers = trackers
        self.advertisers = advertisers
        self.graph = graph
        self.slots = slots
        self.sync_pairs = sync_pairs
        self.generic_pool = generic_pool
        self.group_by_id = {g.id: g for g in groups}
        self.tracker_by_id = {t.id: t for t in trackers}
        self.advertiser_by_id = {a.id: a for a in advertisers}
        # Lexicographic tracker universe; bit i of a ``p-<bits>`` persona id
        # is tracker i.
        self.tracker_ids = tuple(t.id for t in trackers)
        self.visited_by_group = {g.id: frozenset(w.id for w in websites if w.group == g.id)
                                 for g in groups}

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


def _chain_hops(world: World, slots) -> list[tuple[str, str, str, str | None]]:
    """(source, destination, cookie, uid) of every hop of the redirect chain
    each (run, persona) emits: collection-site tracker hops (cookie only)
    followed by the configured cookie-sync hops (cookie + uid).  The chain
    does not depend on blocking because all trackers are unblocked during
    ad collection."""
    hops = [(slot.website, tracker.id, f"c:{tracker.id}", None)
            for slot in slots for tracker in world.trackers
            if slot.website in tracker.site_coverage]
    hops.extend((src, dst, f"c:{dst}", f"uid:{src}") for src, dst in world.sync_pairs)
    return hops
