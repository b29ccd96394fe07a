"""Run one ``adtomo`` CLI command with every layer traced.

    python3 perfbench/traced_cli.py STATE_FILE <adtomo arguments...>

Behaves like ``python3 -m adtomo.cli <adtomo arguments...>`` and writes the
tracer state (spans and counters) to STATE_FILE as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracing import Tracer, install_layers, install_stages


def main() -> int:
    state_file, argv = sys.argv[1], sys.argv[2:]
    from adtomo import cli

    tracer = Tracer()
    install_layers(tracer)
    install_stages(tracer, getattr(cli, "_STAGES", {}))
    code = cli.main(argv)
    Path(state_file).write_text(json.dumps(tracer.finish()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
