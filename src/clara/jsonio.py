"""The JSON and JSON-lines file formats: every file clara reads or writes.

Readers return only JSON objects and raise :class:`ParseError` naming the file,
and the line where the file has lines; writers fix the byte layout (sorted keys,
final newline).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Iterator

from .errors import ParseError


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield ``(lineno, record)`` for each non-blank line; every record is an object."""
    with Path(path).open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc.msg}", line=lineno, path=path) from exc
            if not isinstance(record, dict):
                raise ParseError("record is not a JSON object", line=lineno, path=path)
            yield lineno, record


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    with Path(path).open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")


def read_json(path: str | Path) -> dict:
    """Read a whole-file JSON object."""
    try:
        value = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, path=path) from exc
    if not isinstance(value, dict):
        raise ParseError("file is not a JSON object", path=path)
    return value


def write_json(path: str | Path, value: Any) -> None:
    Path(path).write_text(json.dumps(value, indent=2, sort_keys=True) + "\n", encoding="utf-8")
