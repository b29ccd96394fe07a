"""Ad-delivery simulation: knowledge propagation, creative generation, and
the run x persona x slot auction loop.

Knowledge is resolved once per (run, persona, advertiser): the training crawl
happens once per run, so whether an advertiser learned a persona's interest
is fixed before the persona tours the ad-collection slots.  Each (run,
persona) pair owns a hash-derived random substream, which makes the outputs
independent of persona scheduling; logs are emitted in canonical
(run, persona, slot) order.

A round's logs come out as the text of ``adlog.jsonl``, ``requestlog.jsonl``
and ``bidlog.jsonl``: one JSON line per row in the byte format ``jsonio``
defines, built from fragments encoded once per world.  Every id and token is
encoded once, and the requestlog text after a line's persona is the same for
every persona and round, so a round encodes only its bids.

Draw order.  Every artifact depends byte for byte on the order in which a
(run, persona) substream is consumed:

1. knowledge: for each advertiser in id order, two uniforms per incoming
   edge in tracker order (observe, then reliability), all from one
   ``random(2E)`` call for the E edges of the graph;
2. for each slot in id order: one ``standard_normal(n_adv)`` call, one
   normal per advertiser in id order (the bid noise is ``0.0 + sd * z``),
   followed, when the slot is sold, by the winner's ``creative_length``
   token indices from one ``integers(0, len(source), size=...)`` call.

Each batched call consumes the stream exactly as the equivalent scalar
calls would: one ``random()`` per draw, one ``normal(0.0, sd)`` per
advertiser, and ``choice(len(source), size=...)``.  ``tests/test_rng.py``
pins these identities of numpy's ``Generator``.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from ..errors import ConfigError
from ..jsonio import encode_float, encode_int, encode_scalar, encode_str
from ..rng import substream
from .auctions import auction_hb, auction_rtb
from .types import (
    AdCreative,
    InterestGroup,
    Persona,
    SharingEdge,
    TrackerOrg,
    World,
    _chain_hops,
)

# One collection round's (adlog, requestlog, bidlog) text.
RunLogs = tuple[str, str, str]


def _incoming(world: World, advertiser: str) -> tuple[tuple[TrackerOrg, SharingEdge], ...]:
    """(tracker, edge) of every sharing edge into the advertiser, in tracker
    order."""
    return tuple((world.tracker_by_id[e.tracker], e)
                 for e in world.graph.edges_into(advertiser))


def _knows(incoming, visited: frozenset[str], blocked: frozenset[str], draws) -> bool:
    """The knowledge rule over an advertiser's ``incoming`` edges and their
    draws, two per edge (observe, then reliability).  An edge (t ->
    advertiser) fires when the persona does not block t, t covers at least
    one site the persona visited during training, the visit is observed
    (observe draw below observe_prob), and the reliability draw is below the
    edge's reliability."""
    for i, (tracker, edge) in enumerate(incoming):
        if (tracker.id not in blocked and not visited.isdisjoint(tracker.site_coverage)
                and draws[2 * i] < tracker.observe_prob
                and draws[2 * i + 1] < edge.reliability):
            return True
    return False


def knowledge_state(advertiser: str, persona: Persona, world: World,
                    rng: np.random.Generator) -> bool:
    """True iff any sharing edge into the advertiser fires for this persona.

    Two draws are consumed per incoming edge regardless of outcome, so the
    stream position never depends on the blocking configuration.
    """
    if advertiser not in world.advertiser_by_id:
        raise ConfigError(f"unknown advertiser {advertiser!r}")
    if persona.group not in world.group_by_id:
        raise ConfigError(f"unknown group {persona.group!r}")
    incoming = _incoming(world, advertiser)
    return _knows(incoming, world.visited_sites(persona.group),
                  frozenset(persona.blocked),
                  rng.random(2 * len(incoming)).tolist())


def _creative_tokens(length: int, known: bool, source: Sequence[str],
                     rng: np.random.Generator) -> list[str]:
    """``length`` creative tokens drawn from ``source``, the group
    vocabulary when ``known`` and the generic pool otherwise, or from their
    encoded tokens."""
    if not source:
        raise ConfigError("empty vocabulary" if known else "empty generic pool")
    return [source[i] for i in rng.integers(0, len(source), size=length).tolist()]


def generate_creative(advertiser: str, known: bool, group: InterestGroup,
                      world: World, rng: np.random.Generator, *,
                      slot: str = "", run: int = 0) -> AdCreative:
    """Creative tokens drawn uniformly with replacement from the group
    vocabulary when the advertiser knows the persona's interest, from the
    generic pool otherwise."""
    adv = world.advertiser_by_id.get(advertiser)
    if adv is None:
        raise ConfigError(f"unknown advertiser {advertiser!r}")
    return AdCreative(
        advertiser,
        tuple(_creative_tokens(adv.creative_length, known,
                               group.vocabulary if known else world.generic_pool, rng)),
        slot, run)


def prepare_simulation(world: World, personas, seed: int) -> Callable[[int], RunLogs]:
    """The body of one collection round, ``simulate_run(run)``, after
    sorting the personas by id and preparing what every round shares: the
    incoming edges and draw offsets of each advertiser, the auction tiers of
    each slot, and the encoded ids, tokens and redirect hops.

    Per persona in id order, ``simulate_run`` resolves knowledge per
    advertiser, emits the redirect chain, then auctions every slot in id
    order (bid = base + boost*known + N(0, sd), truncated at 0) and logs the
    winner's creative.  Client-side HB slots also log every on-time bid;
    server-side HB suppresses the bid log.  It returns the round's adlog,
    requestlog and bidlog text.  Rounds share no state, because each (run,
    persona) draws from its own substream, so they may run in any order or
    process."""
    if not world.slots:
        raise ConfigError("no ad-collection slots configured")
    personas = sorted(personas, key=lambda p: p.id)
    advertisers = sorted(world.advertisers, key=lambda a: a.id)
    ids = [a.id for a in advertisers]
    position = {aid: i for i, aid in enumerate(ids)}
    incoming = [_incoming(world, aid) for aid in ids]
    # Advertiser i's knowledge draws are draws[offsets[i]:offsets[i + 1]].
    offsets = list(accumulate((2 * len(edges) for edges in incoming), initial=0))
    noise_sd = [a.bid_noise_sd for a in advertisers]
    slots = sorted(world.slots, key=lambda s: s.id)
    # Per slot: the tiers of an RTB waterfall as advertiser positions, None
    # for header bidding.
    tiers_of = [None if s.mechanism != "rtb_waterfall"
                else [range(len(ids))] if s.tiers is None
                else [[position[aid] for aid in tier] for tier in s.tiers]
                for s in slots]
    # Every line starts '{"run":R,"persona":P'.  What follows P: per hop, the
    # rest of its requestlog line; per slot and advertiser, the adlog line
    # up to the first token and the bidlog line up to the bid.
    request_tails = [f',"chain_position":{encode_int(pos)},"source_domain":{encode_str(src)},'
                     f'"destination_domain":{encode_str(dst)},'
                     f'"cookie_sent":{encode_scalar(cookie)},"uid_param":{encode_scalar(uid)}}}\n'
                     for pos, (src, dst, cookie, uid) in enumerate(_chain_hops(world, slots))]
    ad_heads = [[f',"slot":{encode_str(s.id)},"advertiser":{encode_str(aid)},"tokens":['
                 for aid in ids] for s in slots]
    bid_heads = [{aid: f',"slot":{encode_str(s.id)},"advertiser":{encode_str(aid)},"bid":'
                  for aid in ids} for s in slots]
    generic = [encode_str(t) for t in world.generic_pool]
    vocabulary = {g.id: [encode_str(t) for t in g.vocabulary] for g in world.groups}
    persona_ids = [encode_str(p.id) for p in personas]

    def simulate_run(run: int) -> RunLogs:
        ads: list[str] = []
        requests: list[str] = []
        bids: list[str] = []
        run_head = f'{{"run":{encode_int(run)},"persona":'
        for persona, pid in zip(personas, persona_ids):
            head = run_head + pid
            rng = substream(seed, "sim", run, persona.id)
            visited = world.visited_sites(persona.group)
            blocked = frozenset(persona.blocked)
            draws = rng.random(offsets[-1]).tolist()
            known = [_knows(edges, visited, blocked, draws[lo:hi])
                     for edges, lo, hi in zip(incoming, offsets, offsets[1:])]
            level = [a.base_bid + (a.knowledge_boost if k else 0.0)
                     for a, k in zip(advertisers, known)]
            requests.extend(head + tail for tail in request_tails)
            for slot, tiers, ad_head, bid_head in zip(slots, tiers_of, ad_heads, bid_heads):
                z = rng.standard_normal(len(ids)).tolist()
                bid = [max(0.0, lv + (0.0 + sd * x)) for lv, sd, x in zip(level, noise_sd, z)]
                if tiers is not None:
                    outcome = auction_rtb(slot, [[(ids[i], bid[i]) for i in tier]
                                                 for tier in tiers])
                else:
                    outcome, recorded = auction_hb(
                        slot, [(aid, b, 0.0) for aid, b in zip(ids, bid)], slot.timeout)
                    if slot.mechanism == "hb_client":
                        bids.extend(f"{head}{bid_head[aid]}{encode_float(value)}}}\n"
                                    for aid, value in recorded)
                if outcome.filled:
                    w = position[outcome.winner]
                    source = vocabulary[persona.group] if known[w] else generic
                    tokens = _creative_tokens(advertisers[w].creative_length, known[w],
                                              source, rng)
                    ads.append(f"{head}{ad_head[w]}{','.join(tokens)}]}}\n")
        return "".join(ads), "".join(requests), "".join(bids)

    return simulate_run
