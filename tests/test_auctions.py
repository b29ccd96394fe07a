import pytest

from adtomo.ecosim import AuctionSlot
from oracles import auction_hb, auction_rtb


def slot(floor=1.0, mechanism="rtb_waterfall"):
    return AuctionSlot(id="s1", website="w1", floor_price=floor, mechanism=mechanism)


class TestRtbWaterfall:
    def test_single_bidder_first_price(self):
        out = auction_rtb(slot(floor=1.0), [[("a1", 5.0)]])
        assert out.winner == "a1"
        assert out.price == 5.0

    def test_waterfall_falls_through_to_second_tier(self):
        # Tier 1 cannot clear the floor, so the auction restarts at tier 2.
        out = auction_rtb(slot(floor=1.0), [[("a1", 0.9)], [("a2", 2.0)]])
        assert out.winner == "a2"

    def test_early_tier_wins_even_when_later_tier_bids_higher(self):
        out = auction_rtb(slot(floor=1.0), [[("a1", 1.5)], [("a2", 5.0)]])
        assert out.winner == "a1"
        assert out.price == 1.5

    def test_unfilled_when_nothing_clears(self):
        out = auction_rtb(slot(floor=10.0), [[("a1", 0.5)], [("a2", 9.9)]])
        assert not out.filled

    def test_tie_breaks_to_lowest_id(self):
        out = auction_rtb(slot(floor=1.0), [[("b", 3.0), ("a", 3.0)]])
        assert out.winner == "a"

    def test_negative_bid_rejected(self):
        with pytest.raises(ValueError):
            auction_rtb(slot(), [[("a1", -0.1)]])


class TestHeaderBidding:
    def test_simultaneous_max_wins_and_all_bids_logged(self):
        out, log = auction_hb(slot(floor=1.0), [("a", 3.0, 0.1), ("b", 5.0, 0.2)],
                              timeout=1.0)
        assert out.winner == "b"
        assert sorted(log) == [("a", 3.0), ("b", 5.0)]

    def test_late_bid_excluded(self):
        out, log = auction_hb(slot(floor=1.0), [("a", 3.0, 0.1), ("b", 5.0, 2.0)],
                              timeout=1.0)
        assert out.winner == "a"
        assert log == [("a", 3.0)]

    def test_all_late_unfilled_empty_log(self):
        out, log = auction_hb(slot(floor=1.0), [("a", 3.0, 5.0), ("b", 5.0, 2.0)],
                              timeout=1.0)
        assert not out.filled
        assert log == []

    def test_tie_breaks_to_lowest_id(self):
        out, _ = auction_hb(slot(floor=1.0), [("b", 2.0, 0.0), ("a", 2.0, 0.0)],
                            timeout=1.0)
        assert out.winner == "a"

    def test_below_floor_unfilled_but_logged(self):
        out, log = auction_hb(slot(floor=4.0), [("a", 3.0, 0.0)], timeout=1.0)
        assert not out.filled
        assert log == [("a", 3.0)]

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            auction_hb(slot(), [("a", 1.0, -0.5)], timeout=1.0)

    def test_non_positive_timeout_rejected(self):
        with pytest.raises(ValueError):
            auction_hb(slot(), [("a", 1.0, 0.0)], timeout=0.0)


def test_rtb_hb_divergence_witness():
    # Same bids, different winners: the waterfall sells in tier order while
    # header bidding lets every bid compete at once.
    tiers = [[("a1", 1.5)], [("a2", 5.0)]]
    rtb_out = auction_rtb(slot(floor=1.0), tiers)
    hb_out, _ = auction_hb(slot(floor=1.0),
                           [("a1", 1.5, 0.0), ("a2", 5.0, 0.0)], timeout=1.0)
    assert rtb_out.winner == "a1"
    assert hb_out.winner == "a2"
    assert rtb_out.winner != hb_out.winner
