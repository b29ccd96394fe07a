"""Auction mechanics: RTB waterfall and (client/server) header bidding.

RTB scans supply-side tiers in publisher-preference order and sells to the
first tier whose top bid clears the floor; the impression can go unsold even
when a later tier holds a higher bid.  Header bidding collects every bid that
arrives within the timeout and sells to the overall maximum.  Ties break to
the lowest advertiser id throughout, and sales are first-price.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .types import AuctionSlot


class AuctionOutcome(NamedTuple):
    winner: str | None
    price: float | None

    @property
    def filled(self) -> bool:
        return self.winner is not None


UNFILLED = AuctionOutcome(None, None)


def _top_bid(bids: Iterable[tuple[str, float]]) -> tuple[str, float] | None:
    best = None
    for advertiser, value in bids:
        if best is None or value > best[1] or (value == best[1] and advertiser < best[0]):
            best = (advertiser, value)
    return best


def auction_rtb(slot: AuctionSlot,
                tiers: Sequence[Sequence[tuple[str, float]]]) -> AuctionOutcome:
    """Waterfall over SSP tiers: first tier whose max bid >= floor sells."""
    for tier in tiers:
        for advertiser, value in tier:
            if value < 0:
                raise ValueError(f"negative bid {value} from {advertiser}")
        best = _top_bid(tier)
        if best is not None and best[1] >= slot.floor_price:
            return AuctionOutcome(*best)
    return UNFILLED


def auction_hb(slot: AuctionSlot, bids: Iterable[tuple[str, float, float]],
               timeout: float) -> tuple[AuctionOutcome, list[tuple[str, float]]]:
    """Simultaneous auction among bids arriving within ``timeout``.

    Returns the outcome plus the recorded on-time bid list (what a browser
    sees under client-side header bidding; callers model server-side HB by
    discarding it).
    """
    if timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")
    on_time = []
    for advertiser, value, latency in bids:
        if latency < 0:
            raise ValueError(f"negative latency {latency} from {advertiser}")
        if latency <= timeout:
            on_time.append((advertiser, value))
    best = _top_bid(on_time)
    if best is None or best[1] < slot.floor_price:
        return UNFILLED, on_time
    return AuctionOutcome(*best), on_time
