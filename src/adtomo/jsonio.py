"""Canonical JSON / JSON-lines readers and writers.

All artifacts are UTF-8 with LF line endings, fixed field order, compact
separators for JSON-lines, and no timestamps or environment-dependent
content, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from .errors import ConfigError


def dumps_line(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False, separators=(",", ":"))


def write_jsonl(path, records: Iterable[dict]) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(dumps_line(rec))
            fh.write("\n")


def _decode_error(path, lineno: int, exc: json.JSONDecodeError) -> ConfigError:
    return ConfigError(f"invalid JSON ({exc.msg}, column {exc.colno})", f"{path}:{lineno}")


def read_jsonl(path) -> list[dict]:
    """Records of a JSON-lines file; a malformed line raises ConfigError
    naming the file and line."""
    out = []
    with Path(path).open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                try:
                    out.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise _decode_error(path, lineno, exc) from None
    return out


def write_json(path, payload) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def read_json(path):
    with Path(path).open(encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise _decode_error(path, exc.lineno, exc) from None
