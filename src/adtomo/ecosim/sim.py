"""Ad-delivery simulation: knowledge propagation, auctions and creatives of
every collection round.

Knowledge is resolved once per (run, persona, advertiser): the training crawl
happens once per run, so whether an advertiser learned a persona's interest
is fixed before the persona tours the ad-collection slots.  Each (run,
persona) pair owns a hash-derived random substream, which makes the outputs
independent of persona scheduling; logs are emitted in canonical
(run, persona, slot) order.

A round is computed slot-major over all of its personas at once: knowledge,
bid levels, bids and auction winners are (personas x advertisers) arrays,
and only the draws, each from its persona's own substream, and the text of
the lines stay in loops over the personas.  An RTB waterfall sells to the top bid of the first tier
whose top bid clears the floor, header bidding to the top bid of all, if it
clears the floor (every bid arrives on time).  Ties break to the lowest
advertiser id, and sales are first-price.

A round's logs come out as pieces of the text of ``adlog.jsonl``,
``requestlog.jsonl`` and ``bidlog.jsonl``, one piece per persona and log:
one JSON line per row in the byte format ``jsonio`` defines, built from
fragments encoded once per world.  Every id and token is encoded once, and
the requestlog text after a line's persona is the same for every persona
and round, so a round encodes only its bids.

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
pins these identities of numpy's ``Generator``.  Streams are independent,
so drawing slot s for every persona before slot s + 1 for any leaves each
stream's order as listed.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import ConfigError
from ..jsonio import encode_float, encode_int, encode_scalar, encode_str
from ..rng import substream
from .types import World, _chain_hops

# One collection round's (adlog, requestlog, bidlog) text, one piece per
# persona in id order.
RunLogs = tuple[list[str], list[str], list[str]]


def prepare_simulation(world: World, personas, seed: int) -> Callable[[int], RunLogs]:
    """The body of one collection round, ``simulate_run(run)``, after
    sorting the personas by id and preparing what every round shares: the
    sharing edges in draw order and which of them each persona can use,
    the auction tiers of each slot, and the encoded ids, tokens and
    redirect hops.

    ``simulate_run`` resolves every persona's knowledge of every
    advertiser, then auctions every slot in id order (bid = base +
    boost*known + N(0, sd), truncated at 0) and logs each winner's
    creative.  Client-side HB slots also log every bid; server-side HB
    suppresses the bid log.  Every persona's redirect chain is the same.
    It returns the round's adlog, requestlog and bidlog text, one piece
    per persona.  Rounds share no state, because each (run, persona) draws
    from its own substream, so they may run in any order or process."""
    if not world.slots:
        raise ConfigError("no ad-collection slots configured")
    personas = sorted(personas, key=lambda p: p.id)
    advertisers = sorted(world.advertisers, key=lambda a: a.id)
    ids = [a.id for a in advertisers]
    position = {aid: i for i, aid in enumerate(ids)}
    n_personas, n_ads = len(personas), len(ids)
    # The sharing edges in knowledge-draw order: by advertiser, then tracker.
    edges = [e for aid in ids for e in world.graph.edges_into(aid)]
    trackers = [world.tracker_by_id[e.tracker] for e in edges]
    observe = np.array([t.observe_prob for t in trackers], dtype=float)
    reliability = np.array([e.reliability for e in edges], dtype=float)
    # into[e, a]: edge e points into advertiser a.
    into = np.zeros((len(edges), n_ads), dtype=bool)
    into[np.arange(len(edges)), [position[e.advertiser] for e in edges]] = True
    # usable[p, e]: persona p does not block edge e's tracker, and the
    # tracker covers a site p visits in training.
    usable = np.array([[t.id not in p.blocked
                        and not world.visited_sites(p.group).isdisjoint(t.site_coverage)
                        for t in trackers] for p in personas],
                      dtype=bool).reshape(n_personas, len(edges))
    base = np.array([a.base_bid for a in advertisers], dtype=float)
    boost = np.array([a.knowledge_boost for a in advertisers], dtype=float)
    noise_sd = np.array([a.bid_noise_sd for a in advertisers], dtype=float)
    length = [a.creative_length for a in advertisers]
    slots = sorted(world.slots, key=lambda s: s.id)
    # Per slot: its tiers as sorted advertiser positions, so that the first
    # top bid of a tier is the lowest id's.  Header bidding and an RTB slot
    # without tiers have one tier of every advertiser; an empty tier never
    # sells, so it is left out.  Sorted in Python: np.unique imports numpy.ma
    # on first use, about 1 MB in every simulating process.
    tiers_of = []
    for s in slots:
        listed = s.tiers if s.mechanism == "rtb_waterfall" and s.tiers is not None else [ids]
        tiers_of.append([np.array(sorted({position[aid] for aid in tier})) for tier in listed
                         if tier])
    # Every line starts '{"run":R,"persona":P'.  What follows P: per hop, the
    # rest of its requestlog line; per slot and advertiser, the adlog line
    # up to the first token and the bidlog line up to the bid.
    request_tails = [f',"chain_position":{encode_int(pos)},"source_domain":{encode_str(src)},'
                     f'"destination_domain":{encode_str(dst)},'
                     f'"cookie_sent":{encode_scalar(cookie)},"uid_param":{encode_scalar(uid)}}}\n'
                     for pos, (src, dst, cookie, uid) in enumerate(_chain_hops(world, slots))]
    ad_heads = [[f',"slot":{encode_str(s.id)},"advertiser":{encode_str(aid)},"tokens":['
                 for aid in ids] for s in slots]
    bid_heads = [[f',"slot":{encode_str(s.id)},"advertiser":{encode_str(aid)},"bid":'
                  for aid in ids] for s in slots]
    generic = [encode_str(t) for t in world.generic_pool]
    vocabulary = {g.id: [encode_str(t) for t in g.vocabulary] for g in world.groups}
    persona_ids = [encode_str(p.id) for p in personas]

    def simulate_run(run: int) -> RunLogs:
        rngs = [substream(seed, "sim", run, p.id) for p in personas]
        run_head = f'{{"run":{encode_int(run)},"persona":'
        heads = [run_head + pid for pid in persona_ids]
        draws = np.empty((n_personas, 2 * len(edges)))
        for rng, row in zip(rngs, draws):
            row[:] = rng.random(2 * len(edges))
        fires = usable & (draws[:, 0::2] < observe) & (draws[:, 1::2] < reliability)
        known = fires @ into
        level = base + np.where(known, boost, 0.0)
        # sources[i][a]: the tokens persona i sees in advertiser a's creatives.
        sources = [[vocabulary[p.group] if k else generic for k in row]
                   for p, row in zip(personas, known.tolist())]
        ads, bids = [""] * n_personas, [""] * n_personas
        z = np.empty((n_personas, n_ads))
        for slot, tiers, ad_head, bid_head in zip(slots, tiers_of, ad_heads, bid_heads):
            for rng, row in zip(rngs, z):
                row[:] = rng.standard_normal(n_ads)
            v = level + (0.0 + noise_sd * z)
            bid = np.where(v > 0.0, v, 0.0)
            winner = np.full(n_personas, -1)
            for tier in tiers:
                offers = bid[:, tier]
                best = offers.argmax(axis=1)
                sells = (winner < 0) & (offers.max(axis=1) >= slot.floor_price)
                winner[sells] = tier[best[sells]]
            if slot.mechanism == "hb_client":
                for i, (head, values) in enumerate(zip(heads, bid.tolist())):
                    bids[i] += "".join([f"{head}{h}{encode_float(b)}}}\n"
                                        for h, b in zip(bid_head, values)])
            for i, w in enumerate(winner.tolist()):
                if w < 0:
                    continue
                source = sources[i][w]
                if not source:
                    raise ConfigError("empty generic pool" if source is generic
                                      else "empty vocabulary")
                picks = rngs[i].integers(0, len(source), size=length[w]).tolist()
                tokens = ",".join([source[t] for t in picks])
                ads[i] += f"{heads[i]}{ad_head[w]}{tokens}]}}\n"
        return ads, ["".join(head + tail for tail in request_tails) for head in heads], bids

    return simulate_run
