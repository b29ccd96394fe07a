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


def simulate_texts(world, personas, runs: int, seed: int) -> tuple[str, str, str]:
    """The adlog, requestlog and bidlog text of runs 0 .. runs - 1 in run
    order, as ``stage_simulate`` writes them."""
    simulate_run = prepare_simulation(world, personas, seed)
    logs = ([], [], [])
    for run in range(runs):
        for log, text in zip(logs, simulate_run(run)):
            log.append(text)
    return tuple("".join(log) for log in logs)


def simulate_logs(world, personas, runs: int, seed: int) -> tuple[list, list, list]:
    """(ads, requests, bids): the rows of the three logs of
    ``simulate_texts``, one per line.  Lines end at LF only: a string may
    hold U+2028, which the encoder does not escape."""
    return tuple([json.loads(line) for line in text.split("\n")[:-1]]
                 for text in simulate_texts(world, personas, runs, seed))
