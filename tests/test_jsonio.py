import ast
from pathlib import Path

import pytest

import clara
from clara.errors import ParseError
from clara.jsonio import read_json, read_jsonl, write_json, write_jsonl


def test_read_jsonl_skips_blank_lines_and_numbers_records(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"a": 1}\n\n  \n{"b": 2}\n', encoding="utf-8")
    assert list(read_jsonl(path)) == [(1, {"a": 1}), (4, {"b": 2})]


@pytest.mark.parametrize("line", ["{not json", "[1, 2]", "null", '"text"'])
def test_read_jsonl_rejects_non_objects_with_their_line(tmp_path, line):
    path = tmp_path / "records.jsonl"
    path.write_text(f'{{"a": 1}}\n{line}\n', encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        list(read_jsonl(path))
    assert exc.value.line == 2


def test_read_json_names_the_line_of_invalid_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{\n  "a": 1,\n  oops\n}\n', encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        read_json(path)
    assert exc.value.line == 3


def test_errors_name_their_file(tmp_path):
    whole, lines = tmp_path / "bad.json", tmp_path / "bad.jsonl"
    whole.write_text("{bad", encoding="utf-8")
    lines.write_text('{"a": 1}\n[1]\n', encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        read_json(whole)
    assert exc.value.path == whole
    assert str(exc.value).startswith(f"{whole}: line 1: invalid JSON")
    with pytest.raises(ParseError) as exc:
        list(read_jsonl(lines))
    assert str(exc.value) == f"{lines}: line 2: record is not a JSON object"


def test_read_json_rejects_a_non_object(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("[1]", encoding="utf-8")
    with pytest.raises(ParseError, match="not a JSON object"):
        read_json(path)


def test_writers_fix_the_byte_layout(tmp_path):
    jsonl, whole = tmp_path / "out.jsonl", tmp_path / "out.json"
    write_jsonl(jsonl, [{"b": "é", "a": 1}, {}])
    write_json(whole, {"b": "é", "a": [1]})
    assert jsonl.read_bytes() == '{"a": 1, "b": "é"}\n{}\n'.encode("utf-8")
    assert whole.read_bytes() == b'{\n  "a": [\n    1\n  ],\n  "b": "\\u00e9"\n}\n'
    assert read_json(whole) == {"b": "é", "a": [1]}


def test_only_jsonio_and_htc_import_json():
    """The file formats stay behind one module; htc keeps json for its npz metadata."""
    importers = set()
    for source in Path(clara.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name == "json" or name.startswith("json.") for name in names):
                importers.add(source.name)
    assert importers == {"jsonio.py", "htc.py"}
