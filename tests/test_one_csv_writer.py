"""Every CSV the package writes goes through ``dataset.write_csv``, and
every JSON text it writes or reads through one function as well.

That one writer owns the cell rules (floats as ``repr``, booleans as
``true``/``false``), so a second ``csv.writer`` in ``src/`` would let
one output file drift from the others. Likewise JSON files are written
only by ``dataset.write_json`` and frames only by
``protocol.encode_message``, and every JSON text is read by
``dataset.parse_json``, which refuses an object that repeats a key. The
sources are scanned for each.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chaincontrib"
# (module, function) that may build a csv.writer.
ALLOWED = {("dataset.py", "write_csv")}
# The calls of the json module that one function each may make.
JSON_OWNERS = {
    ("dump", "dumps"): {("dataset.py", "write_json"), ("protocol.py", "encode_message")},
    ("load", "loads"): {("dataset.py", "parse_json")},
}


def csv_writer_uses(source: str) -> list[tuple[int, str | None]]:
    """(line, enclosing top-level function) of every ``csv.writer(`` call."""
    return module_calls(source, "csv", ("writer",))


def module_calls(source: str, module: str, names) -> list[tuple[int, str | None]]:
    """(line, enclosing top-level function) of every ``<module>.<name>(``
    call for each of ``names``."""
    tree = ast.parse(source)
    owner = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for inner in ast.walk(node):
                owner[id(inner)] = node.name
    return sorted(
        (node.lineno, owner.get(id(node)))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in names
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == module
    )


@pytest.mark.parametrize(
    ("source", "expected"),
    [
        ("import csv\ndef f(fh):\n    w = csv.writer(fh)\n", [(3, "f")]),
        ("import csv\nclass R:\n    def save(self, fh):\n        csv.writer(fh)\n", [(4, "R")]),
        ("import csv\nW = csv.writer(open('x', 'w'))\n", [(2, None)]),
        ("import csv\ndef f(fh):\n    return csv.reader(fh)\n", []),
    ],
)
def test_scan_finds_each_writer(source: str, expected: list) -> None:
    assert csv_writer_uses(source) == expected


def test_package_has_one_csv_writer() -> None:
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    uses = [
        (path.name, line, owner)
        for path in sources
        for line, owner in csv_writer_uses(path.read_text(encoding="utf-8"))
    ]
    stray = [
        f"{PACKAGE.parent.name}/{PACKAGE.name}/{name}:{line}: csv.writer( in {owner or 'module scope'}"
        for name, line, owner in uses
        if (name, owner) not in ALLOWED
    ]
    assert not stray, "write CSV files through dataset.write_csv:\n" + "\n".join(stray)
    assert [(name, owner) for name, _, owner in uses] == sorted(ALLOWED)


def test_scan_finds_each_json_call() -> None:
    source = "import json\ndef f(x):\n    return json.loads(json.dumps(x))\n"
    assert module_calls(source, "json", ("dumps",)) == [(3, "f")]
    assert module_calls(source, "json", ("load", "loads")) == [(3, "f")]


@pytest.mark.parametrize("names", JSON_OWNERS, ids=["json-writer", "json-reader"])
def test_package_has_one_json_writer_and_reader(names) -> None:
    allowed = JSON_OWNERS[names]
    uses = {
        (path.name, owner)
        for path in sorted(PACKAGE.glob("*.py"))
        for _, owner in module_calls(path.read_text(encoding="utf-8"), "json", names)
    }
    assert uses == allowed, (
        f"json.{'/'.join(names)}( may be called only in "
        f"{sorted(allowed)}; found in {sorted(uses)}"
    )
