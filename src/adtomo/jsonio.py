"""Canonical JSON / JSON-lines readers and writers.

All artifacts are UTF-8 with LF line endings, fixed field order, compact
separators for JSON-lines, and no timestamps or environment-dependent
content, so identical inputs produce byte-identical files.  Every writer
replaces its file atomically: an interrupted write leaves the previous
artifact in place, never a truncated one.

This module owns the byte format.  A JSON line is what ``json.dumps``
gives with ``ensure_ascii=False`` and ``separators=(",", ":")``, followed by
LF.  The writers build many lines of one shape from a few values: they
encode each value once with ``encode_str``, ``encode_int``, ``encode_float``
or ``encode_scalar`` and join the fragments, which gives those bytes.

``iter_jsonl`` is the one reader of JSON-lines files.  It reads bytes,
decodes each line on its own and parses it with the C scanner behind
``json.loads``, and it can read a byte range of whole lines, so a file can
be parsed in spans by separate processes.  ``LineGrid`` checks a file
whose lines must fill a grid of cells exactly once: a line that fills a
filled cell is rejected at its line, and the first empty cell after the
read.
"""

from __future__ import annotations

import json
import math
import os
from array import array
from contextlib import contextmanager
from json.encoder import encode_basestring
from json.scanner import make_scanner
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence

from .errors import ConfigError


# The line encoding of a value, for lines built from fragments: a string
# goes through the encoder's own escaping function, an int is its repr.
encode_str = encode_basestring
encode_int = int.__repr__


def encode_float(value: float) -> str:
    """A float as a JSON line holds it: its repr when finite, else
    ``NaN``, ``Infinity`` or ``-Infinity``."""
    if math.isfinite(value):
        return float.__repr__(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


def encode_scalar(value) -> str:
    """A JSON scalar (str, int, float, bool or None) as a JSON line holds
    it."""
    if isinstance(value, str):
        return encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return encode_int(value)
    if isinstance(value, float):
        return encode_float(value)
    raise TypeError(f"not a JSON scalar: {value!r}")


@contextmanager
def open_atomic(path, newline: str = "\n", binary: bool = False) -> Iterator[IO]:
    """A UTF-8 text file, or with ``binary`` a byte file, to write ``path``
    through: it is written beside ``path`` under a temporary name and moved
    into place by ``os.replace`` when the block ends.  If the block raises,
    the temporary file is removed and ``path`` keeps its previous content."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with (tmp.open("wb") if binary
              else tmp.open("w", encoding="utf-8", newline=newline)) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _decode_error(where: str, exc: json.JSONDecodeError) -> ConfigError:
    return ConfigError(f"invalid JSON ({exc.msg}, column {exc.colno})", where)


def _utf8_error(where: str, line: bytes, exc: UnicodeDecodeError) -> ConfigError:
    return ConfigError(f"invalid UTF-8 (byte 0x{line[exc.start]:02x} at byte "
                       f"{exc.start + 1} of the line)", where)


def _first_utf8_error(path) -> ConfigError:
    """ConfigError naming the first line of ``path`` that is not UTF-8, for
    a reader that decoded the whole file at once.  Lines end at LF, CRLF or
    a lone CR, as for ``iter_jsonl`` and a JSON error's line number."""
    lineno = 0
    with Path(path).open("rb") as fh:
        for raw in fh:
            for line in raw.splitlines() if b"\r" in raw else (raw,):
                lineno += 1
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    return _utf8_error(f"{path}:{lineno}", line, exc)
    return ConfigError("invalid UTF-8", str(path))


def _lines_before(path, offset: int) -> int:
    """The number of lines in the first ``offset`` bytes of ``path``, which
    end just after a line."""
    with Path(path).open("rb") as fh:
        head = fh.read(offset)
    return head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")


def _span(fh, size: int) -> Iterator[bytes]:
    """The LF-terminated lines of ``fh`` that start in its next ``size``
    bytes."""
    for raw in fh:
        if size <= 0:
            return
        yield raw
        size -= len(raw)


# The scanner json.loads parses with, without json.loads' checks for a BOM
# and for data after the value.  A line that the scanner does not read
# whole goes to json.loads, which raises its error, so every line reads as
# json.loads reads it.
_scan = make_scanner(json.JSONDecoder())


def iter_jsonl(path, fields: Iterable[str] = (),
               check: Callable[[dict, int], str | None] | None = None,
               start: int = 0, stop: int | None = None) -> Iterator[dict]:
    """The records of a JSON-lines file, each yielded as its line is read.
    With ``start`` and ``stop``, only the lines that start in that byte
    range are read; both must be 0, the file's size or just after an LF.

    Lines end at LF, CRLF or a lone CR, as Python's universal newlines read
    them.  Each line is decoded on its own, so an error names the first bad
    line: a line that is not UTF-8 or not JSON, a line that is not an object
    holding every name in ``fields``, or a record for which
    ``check(record, lineno)`` returns a message raises ConfigError naming the
    file and line.  ``lineno`` counts from ``start``'s line; the lines before
    it are counted only to name a bad line."""
    required = set(fields)

    def where(lineno: int) -> str:
        return f"{path}:{lineno + (_lines_before(path, start) if start else 0)}"

    lineno = 0
    with Path(path).open("rb") as fh:
        fh.seek(start)
        for raw in fh if stop is None else _span(fh, stop - start):
            for piece in raw.splitlines() if b"\r" in raw else (raw,):
                lineno += 1
                try:
                    line = piece.decode("utf-8").strip()
                except UnicodeDecodeError as exc:
                    raise _utf8_error(where(lineno), piece, exc) from None
                if not line:
                    continue
                try:
                    record, end = _scan(line, 0)
                except (StopIteration, json.JSONDecodeError):
                    end = -1
                if end != len(line):
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise _decode_error(where(lineno), exc) from None
                if required and not (isinstance(record, dict) and record.keys() >= required):
                    raise _field_error(where(lineno), record, required)
                problem = check(record, lineno) if check else None
                if problem:
                    raise ConfigError(problem, where(lineno))
                yield record


class LineGrid:
    """The grid of cells a JSON-lines file must fill exactly once, each by
    one line: ``axes`` holds the coordinates along each axis ``names``
    names, and a cell is numbered row-major by its coordinates' indices.
    Only each cell's first line (0 while unseen) is kept, in one flat
    array; ``what`` names a line's kind in the messages."""

    def __init__(self, what: str, names: Sequence[str], axes: Sequence[Sequence]):
        self.what, self.names, self.axes = what, ", ".join(names), axes
        self.lines = array("i", [0]) * math.prod(map(len, axes))

    def fill(self, cell: int, lineno: int) -> str | None:
        """Fill ``cell`` from line ``lineno``: the message for a cell an
        earlier line filled, else None."""
        first = self.lines[cell]
        if first:
            return (f"duplicate {self.what} for ({self.names}) {self._coordinates(cell)}, "
                    f"first seen at line {first}")
        self.lines[cell] = lineno
        return None

    def check_full(self, where: str) -> None:
        """ConfigError naming ``where`` and the first cell no line filled."""
        if 0 in self.lines:
            raise ConfigError(f"no {self.what} for ({self.names}) "
                              f"{self._coordinates(self.lines.index(0))}", where)

    def _coordinates(self, cell: int) -> tuple:
        coordinates = []
        for axis in reversed(self.axes):
            cell, i = divmod(cell, len(axis))
            coordinates.append(axis[i])
        return tuple(reversed(coordinates))


def _field_error(where: str, record, required: set) -> ConfigError:
    if not isinstance(record, dict):
        return ConfigError("expected a JSON object", where)
    missing = ", ".join(repr(f) for f in sorted(required - record.keys()))
    return ConfigError(f"missing field {missing}", where)


def write_json(path, payload) -> None:
    with open_atomic(path) as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def read_json(path):
    """The JSON document of ``path``; a file that is not UTF-8 or not JSON
    raises ConfigError naming the file and line."""
    with Path(path).open(encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise _decode_error(f"{path}:{exc.lineno}", exc) from None
        except UnicodeDecodeError:
            raise _first_utf8_error(path) from None


def _check_fields(entry, fields: dict[str, type], where: str) -> None:
    """ConfigError at ``where`` unless ``entry`` is a JSON object holding
    every field of ``fields`` with its type."""
    if not isinstance(entry, dict):
        raise ConfigError("expected a JSON object", where)
    for field, kind in fields.items():
        if field not in entry:
            raise ConfigError(f"missing field {field!r}", where)
        if not isinstance(entry[field], kind):
            name = {str: "string", dict: "object"}.get(kind, kind.__name__)  # as JSON names it
            raise ConfigError(f"field {field!r} must be a JSON {name}", where)


def _check_strings(values: list, field: str, where: str) -> None:
    if not all(isinstance(v, str) for v in values):
        raise ConfigError(f"field {field!r} must be a JSON list of strings", where)
