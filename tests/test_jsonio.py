import json

import pytest

from adtomo.errors import ConfigError
from adtomo.jsonio import encode_float, encode_int, encode_scalar, encode_str, iter_jsonl, \
    open_atomic, read_json, write_json

from oracles import dumps_line, jsonl_lines

RECORDS = [
    {"token": "créative-ß", "emoji": "\U0001f600", "quote": "a\"b\\c\n\t "},
    {"nested": [[1, 2, [3]], {"k": {"deep": [None, True, False]}}], "empty": [{}, []]},
    {"floats": [0.1, -2.5e-300, 1e21, 3.0, -0.0, float("inf"), float("nan")],
     "ints": [0, -7, 2 ** 70]},
    {"bool": True, "none": None, "": "", "ключ": "значение"},
    {},
]


# Values whose encodings are easy to get wrong: every escape the encoder
# writes (quote, backslash, each control character), characters it writes
# raw (U+2028, non-ASCII, an astral-plane emoji), floats at the edges of
# repr, non-finite floats, and the JSON literals.
SCALARS = [
    "", "plain", 'a"b', "back\\slash", "".join(map(chr, range(0x20))), "\x7f",
    "line\u2028sep\u2029", "créative-ß ключ", "\U0001f600",
    0, -7, 2 ** 70, -0.0, 5e-324, 1e16, 0.1 + 0.2, 1e-7, 123456789.0,
    float("nan"), float("inf"), float("-inf"), True, False, None,
]


@pytest.mark.parametrize("python_encoder", [False, True], ids=["c_encoder", "python_encoder"])
@pytest.mark.parametrize("value", SCALARS, ids=range(len(SCALARS)))
def test_fragments_equal_the_line_encoder(monkeypatch, python_encoder, value):
    if python_encoder:
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    typed = {str: encode_str, int: encode_int, float: encode_float}.get(type(value))
    for fragment in ([encode_scalar(value)] + ([typed(value)] if typed else [])):
        assert dumps_line([value]) == f"[{fragment}]"
        assert dumps_line({"k": value}) == f'{{"k":{fragment}}}'
        assert next(jsonl_lines([[value, value]])) == f"[{fragment},{fragment}]\n"
    if isinstance(value, str):
        assert dumps_line({value: 1}) == f"{{{encode_str(value)}:1}}"


def test_encode_scalar_rejects_containers():
    for value in ([], {}, (1,), b"x"):
        with pytest.raises(TypeError):
            encode_scalar(value)


def write_jsonl(path, records):
    """A JSON-lines file written the way the stages write theirs."""
    with open_atomic(path) as fh:
        fh.writelines(jsonl_lines(records))


@pytest.mark.parametrize("record", RECORDS, ids=range(len(RECORDS)))
def test_dumps_line_equals_json_dumps(record):
    assert dumps_line(record) == json.dumps(record, ensure_ascii=False, separators=(",", ":"))


def test_write_jsonl_writes_one_dumps_line_per_record(tmp_path):
    path = tmp_path / "out.jsonl"
    write_jsonl(path, iter(RECORDS))
    expected = "".join(json.dumps(r, ensure_ascii=False, separators=(",", ":")) + "\n"
                       for r in RECORDS)
    assert path.read_bytes() == expected.encode("utf-8")


def test_write_jsonl_lines_equal_dumps_line(tmp_path):
    path = tmp_path / "out.jsonl"
    records = RECORDS + [(1, "x"), "top-level string", 2.5, None]
    write_jsonl(path, iter(records))
    assert path.read_bytes() == "".join(dumps_line(r) + "\n" for r in records).encode("utf-8")


def test_failed_encode_does_not_poison_later_writes(tmp_path):
    # A record that fails mid-encode leaves its circular-reference marker
    # set; the next file must not see it and call the record circular.
    record = {"ok": 1, "bad": object()}
    with pytest.raises(TypeError):
        write_jsonl(tmp_path / "bad.jsonl", [record])
    del record["bad"]
    write_jsonl(tmp_path / "good.jsonl", [record])
    assert (tmp_path / "good.jsonl").read_text() == '{"ok":1}\n'


def _failing_records():
    yield {"line": 1}
    raise RuntimeError("generator failed mid-write")


def test_interrupted_writes_keep_the_old_artifact(tmp_path):
    jsonl, doc, csv = tmp_path / "out.jsonl", tmp_path / "out.json", tmp_path / "out.csv"
    write_jsonl(jsonl, iter(RECORDS))
    write_json(doc, {"old": True})
    csv.write_text("old,row\n")
    before = {p: p.read_bytes() for p in (jsonl, doc, csv)}

    with pytest.raises(RuntimeError):
        write_jsonl(jsonl, _failing_records())
    with pytest.raises(TypeError):
        write_json(doc, {"new": object()})
    with pytest.raises(RuntimeError):
        with open_atomic(csv, newline="") as fh:
            fh.write("new,row\n")
            raise RuntimeError("writer failed mid-write")

    assert {p: p.read_bytes() for p in (jsonl, doc, csv)} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.json", "out.jsonl"]


def test_completed_write_replaces_the_artifact(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"old": True})
    write_json(path, {"new": True})
    assert json.loads(path.read_text()) == {"new": True}
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def _read(path, **kwargs) -> list:
    return list(iter_jsonl(path, **kwargs))


def test_first_bad_line_is_named(tmp_path):
    # Line 2 is not JSON and line 3 not UTF-8: the reader names line 2.
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"a":1}\n{"a":\n{"a":"\xff"}\n')
    with pytest.raises(ConfigError) as info:
        _read(path)
    assert str(info.value) == f"{path}:2: invalid JSON (Expecting value, column 6)"


# Lines the scanner alone would read differently from json.loads, or whose
# errors it would word differently: data after the value, a BOM, whitespace
# only str.strip removes, non-finite numbers, duplicate keys, big ints,
# non-object values and unfinished or malformed values.
TRICKY_LINES = [
    '{"a":1} x', '{"a":1}{"b":2}', '{"a":1}  ,', '\ufeff{"a":1}', '\ufeff',
    '\x0c{"a":1}\x0c', '\x1c\x1d{"a":1}\x1e\x1f', '\xa0{"a":1}\u3000',
    '\x0c', '\x85', '{"a":1}\u2028', '{"a":"x\u2028y"}',
    'NaN', '[NaN,Infinity,-Infinity]', '{"a":nan}', '{"a":1e400,"b":-1e400}',
    '{"a":1,"a":2,"b":{"c":3,"c":[4]}}', '12345678901234567890123456789',
    '-0', '-0.0', '1.5e-400', '"text"', 'true', 'null', '[]',
    '{"a":', '{"a":1,}', '[1,]', "{'a':1}", '{"a":"\\x"}', '{"a":"\x01"}',
    '{"a":"\\ud800"}', '{"\\u00e9":"\\U"}', '{"a" 1}', 'tru', '01', '1.',
]


@pytest.mark.parametrize("line", TRICKY_LINES, ids=range(len(TRICKY_LINES)))
def test_scanner_reads_as_json_loads(tmp_path, line):
    path = tmp_path / "log.jsonl"
    path.write_bytes(line.encode("utf-8") + b"\n")
    stripped = line.strip()
    try:
        expected = [json.loads(stripped)] if stripped else []
    except json.JSONDecodeError as exc:
        with pytest.raises(ConfigError) as info:
            _read(path)
        assert str(info.value) == f"{path}:1: invalid JSON ({exc.msg}, column {exc.colno})"
    else:
        assert repr(_read(path)) == repr(expected)


def test_lines_end_as_universal_newlines_read_them(tmp_path):
    path = tmp_path / "log.jsonl"
    text = '{"a":1}\r\n\r\n{"a":2}\r{"a":3}\n\n\r\r{"a":4}\r\r\n \x0c{"a":5}'
    path.write_bytes(text.encode("utf-8"))
    assert [r["a"] for r in _read(path)] == [1, 2, 3, 4, 5]
    lines = []
    _read(path, check=lambda r, lineno: lines.append(lineno))
    with open(path, encoding="utf-8") as fh:  # universal newlines
        assert lines == [i for i, line in enumerate(fh, 1) if line.strip()]
    path.write_bytes((text + '\r{"a":\r').encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        assert len(list(fh)) == 11
    with pytest.raises(ConfigError, match=r"log.jsonl:11: invalid JSON \(Expecting value"):
        _read(path)
    path.write_bytes(b'{"a":1}\r{"a":"\xff"}\n')
    with pytest.raises(ConfigError) as info:
        _read(path)
    assert str(info.value) == f"{path}:2: invalid UTF-8 (byte 0xff at byte 7 of the line)"


def test_read_json_numbers_lines_as_universal_newlines_read_them(tmp_path):
    # A UTF-8 error and a JSON error on the third CR-terminated line both
    # name line 3.
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"a":\r1,\r"b":}')
    with pytest.raises(ConfigError) as info:
        read_json(path)
    assert str(info.value) == f"{path}:3: invalid JSON (Expecting value, column 5)"
    path.write_bytes(b'{"a":\r1,\r"b":"\xff"}')
    with pytest.raises(ConfigError) as info:
        read_json(path)
    assert str(info.value) == f"{path}:3: invalid UTF-8 (byte 0xff at byte 6 of the line)"


def test_byte_ranges_read_their_lines(tmp_path):
    path = tmp_path / "log.jsonl"
    lines = [b'{"a":%d}' % i + (b"\r\n", b"\n", b"\r\n\n")[i % 3] for i in range(12)]
    path.write_bytes(b"".join(lines))
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))
    for cut in starts:
        head = _read(path, start=0, stop=cut)
        assert head + _read(path, start=cut, stop=starts[-1]) == _read(path)
        assert [r["a"] for r in head] == list(range(starts.index(cut)))
    lines[9] = b'{"a":9,}\n'
    path.write_bytes(b"".join(lines))
    with open(path, encoding="utf-8") as fh:
        bad = next(i for i, line in enumerate(fh, 1) if line.startswith('{"a":9'))
    for start in starts[:10]:
        with pytest.raises(ConfigError, match=f"log.jsonl:{bad}: invalid JSON"):
            _read(path, start=start, stop=starts[-1])
    assert len(_read(path, start=starts[10], stop=starts[-1])) == 2
