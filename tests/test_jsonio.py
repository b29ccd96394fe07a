import json

import pytest

from adtomo.jsonio import dumps_line, write_jsonl

RECORDS = [
    {"token": "créative-ß", "emoji": "\U0001f600", "quote": "a\"b\\c\n\t "},
    {"nested": [[1, 2, [3]], {"k": {"deep": [None, True, False]}}], "empty": [{}, []]},
    {"floats": [0.1, -2.5e-300, 1e21, 3.0, -0.0, float("inf"), float("nan")],
     "ints": [0, -7, 2 ** 70]},
    {"bool": True, "none": None, "": "", "ключ": "значение"},
    {},
]


@pytest.mark.parametrize("record", RECORDS, ids=range(len(RECORDS)))
def test_dumps_line_equals_json_dumps(record):
    assert dumps_line(record) == json.dumps(record, ensure_ascii=False, separators=(",", ":"))


def test_write_jsonl_writes_one_dumps_line_per_record(tmp_path):
    path = tmp_path / "out.jsonl"
    write_jsonl(path, iter(RECORDS))
    expected = "".join(json.dumps(r, ensure_ascii=False, separators=(",", ":")) + "\n"
                       for r in RECORDS)
    assert path.read_bytes() == expected.encode("utf-8")
