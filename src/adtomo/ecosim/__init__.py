from .auctions import AuctionOutcome, auction_hb, auction_rtb
from .config import (
    SimConfig,
    enumerate_personas,
    make_blocking,
    sim_config_from_dict,
)
from .sim import generate_creative, knowledge_state, prepare_simulation
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
    "enumerate_personas", "generate_creative",
    "knowledge_state", "make_blocking", "prepare_simulation",
    "sim_config_from_dict",
]
