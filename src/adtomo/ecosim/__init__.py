from .auctions import AuctionOutcome, auction_hb, auction_rtb
from .config import (
    SimConfig,
    build_world,
    enumerate_personas,
    make_blocking,
    sim_config_from_dict,
)
from .sim import SimLogs, generate_creative, knowledge_state, prepare_simulation, run_simulation
from .types import (
    AdCreative,
    Advertiser,
    AuctionSlot,
    BidRecord,
    BlockingConfig,
    DeliveredAd,
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
    "AdCreative", "Advertiser", "AuctionOutcome", "AuctionSlot", "BidRecord",
    "BlockingConfig", "DeliveredAd", "InterestGroup", "Persona",
    "RequestLogEntry", "SharingEdge", "SharingGraph", "SimConfig", "SimLogs",
    "TrackerOrg", "Website", "World", "auction_hb", "auction_rtb",
    "build_world", "enumerate_personas", "generate_creative",
    "knowledge_state", "make_blocking", "prepare_simulation", "run_simulation",
    "sim_config_from_dict",
]
