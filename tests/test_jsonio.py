import json

import pytest

from adtomo.jsonio import encode_float, encode_int, encode_scalar, encode_str, open_atomic, \
    write_json

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
