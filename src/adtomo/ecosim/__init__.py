"""The ad-ecosystem simulator.

The package exports the world and persona types, config parsing and
auctions, none of which needs numpy.  The config (``sim_config_from_dict``)
is the only source of the personas.  The simulation itself
(``prepare_simulation``, ``generate_creative``, ``knowledge_state``) is in
``adtomo.ecosim.sim``, imported by the stages that simulate.
"""

from .auctions import AuctionOutcome, auction_hb, auction_rtb
from .config import SimConfig, enumerate_personas, sim_config_from_dict
from .types import (
    AdCreative,
    Advertiser,
    AuctionSlot,
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
    "AdCreative", "Advertiser", "AuctionOutcome", "AuctionSlot", "InterestGroup",
    "Persona", "RequestLogEntry", "SharingEdge", "SharingGraph", "SimConfig",
    "TrackerOrg", "Website", "World", "auction_hb", "auction_rtb",
    "enumerate_personas", "sim_config_from_dict",
]
