import json
import sys
from pathlib import Path

from adtomo.ecosim import prepare_simulation

sys.path.insert(0, str(Path(__file__).parent))

CONFIG_DIR = Path(__file__).parent.parent / "configs"


def load_config(name: str, seed: int | None = None) -> dict:
    """The ready-made config ``configs/<name>.json``, with its top-level seed
    replaced when ``seed`` is given."""
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text(encoding="utf-8"))
    if seed is not None:
        doc["seed"] = seed
    return doc


def simulate_logs(world, personas, runs: int, seed: int) -> tuple[list, list, list]:
    """(ads, requests, bids): the adlog, requestlog and bidlog rows of runs
    0 .. runs - 1 in run order, as ``stage_simulate`` writes them."""
    simulate_run = prepare_simulation(world, personas, seed)
    logs = ([], [], [])
    for run in range(runs):
        for log, rows in zip(logs, simulate_run(run)):
            log.extend(rows)
    return logs
