import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

CONFIG_DIR = Path(__file__).parent.parent / "configs"


def load_config(name: str, seed: int | None = None) -> dict:
    """The ready-made config ``configs/<name>.json``, with its top-level seed
    replaced when ``seed`` is given."""
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text(encoding="utf-8"))
    if seed is not None:
        doc["seed"] = seed
    return doc
