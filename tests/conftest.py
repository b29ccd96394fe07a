import json
import sys
from pathlib import Path

import numpy as np

from adtomo.ecosim.sim import prepare_simulation
from adtomo.tomography import AdLog

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
    order, as ``stage_simulate`` writes them: each run's pieces, one per
    persona, joined."""
    simulate_run = prepare_simulation(world, personas, seed)
    logs = ([], [], [])
    for run in range(runs):
        for log, pieces in zip(logs, simulate_run(run)):
            log.extend(pieces)
    return tuple("".join(log) for log in logs)


def simulate_logs(world, personas, runs: int, seed: int) -> tuple[list, list, list]:
    """(ads, requests, bids): the rows of the three logs of
    ``simulate_texts``, one per line.  Lines end at LF only: a string may
    hold U+2028, which the encoder does not escape."""
    return tuple([json.loads(line) for line in text.split("\n")[:-1]]
                 for text in simulate_texts(world, personas, runs, seed))


def ad_log(ads, personas=None, advertisers=None, tokens=None) -> AdLog:
    """The columns of the ads ``ads`` (objects with ``run``, ``persona``,
    ``advertiser`` and ``tokens``), built one row at a time, their ids
    numbered by the persona, advertiser and token lists given; each list
    left out is the sorted names the ads hold."""
    ads = list(ads)
    if personas is None:
        personas = sorted({ad.persona for ad in ads})
    if advertisers is None:
        advertisers = sorted({ad.advertiser for ad in ads})
    if tokens is None:
        tokens = sorted({t for ad in ads for t in ad.tokens})
    persona_id, advertiser_id, token_id = ({name: i for i, name in enumerate(names)}
                                           for names in (personas, advertisers, tokens))
    runs, persona, advertiser, token, offsets = [], [], [], [], [0]
    for ad in ads:
        runs.append(ad.run)
        persona.append(persona_id[ad.persona])
        advertiser.append(advertiser_id[ad.advertiser])
        token += [token_id[t] for t in ad.tokens]
        offsets.append(len(token))
    return AdLog(np.array(runs, dtype=np.int32), np.array(persona, dtype=np.int32),
                 np.array(advertiser, dtype=np.int32), np.array(offsets, dtype=np.int64),
                 np.array(token, dtype=np.int32), list(personas), list(advertisers),
                 list(tokens))
