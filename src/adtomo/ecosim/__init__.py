"""The ad-ecosystem simulator.

The package exports the world and persona types and config parsing,
none of which needs numpy.  The config (``sim_config_from_dict``) is the
only source of the personas.  The simulation itself
(``prepare_simulation``), which computes each round's knowledge, bids and
auctions slot by slot as (personas x advertisers) arrays, is in
``adtomo.ecosim.sim``, imported by the stages that simulate.
"""

from .config import SimConfig, enumerate_personas, sim_config_from_dict
from .types import (
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

__all__ = [
    "Advertiser", "AuctionSlot", "InterestGroup", "Persona", "SharingEdge",
    "SharingGraph", "SimConfig", "TrackerOrg", "Website", "World",
    "enumerate_personas", "sim_config_from_dict",
]
