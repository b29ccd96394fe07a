"""The ad-ecosystem simulator.

The package exports the world types, config parsing and auctions, none of
which needs numpy.  The simulation itself (``prepare_simulation``,
``generate_creative``, ``knowledge_state``) is in ``adtomo.ecosim.sim``,
imported by the stages that simulate.
"""

from .auctions import AuctionOutcome, auction_hb, auction_rtb
from .config import (
    SimConfig,
    enumerate_personas,
    make_blocking,
    sim_config_from_dict,
)
from .types import (
    AdCreative,
    Advertiser,
    AuctionSlot,
    BlockingConfig,
    InterestGroup,
    Persona,
    RequestLogEntry,
    SharingEdge,
    SharingGraph,
    TrackerOrg,
    Website,
    World,
)

__all__ = [
    "AdCreative", "Advertiser", "AuctionOutcome", "AuctionSlot",
    "BlockingConfig", "InterestGroup", "Persona",
    "RequestLogEntry", "SharingEdge", "SharingGraph", "SimConfig",
    "TrackerOrg", "Website", "World", "auction_hb", "auction_rtb",
    "enumerate_personas", "make_blocking", "sim_config_from_dict",
]
