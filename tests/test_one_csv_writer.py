"""Every CSV the package writes goes through ``dataset.write_csv``.

That one writer owns the cell rules (floats as ``repr``, booleans as
``true``/``false``), so a second ``csv.writer`` in ``src/`` would let
one output file drift from the others. The sources are scanned for it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chaincontrib"
# (module, function) that may build a csv.writer.
ALLOWED = {("dataset.py", "write_csv")}


def csv_writer_uses(source: str) -> list[tuple[int, str | None]]:
    """(line, enclosing top-level function) of every ``csv.writer(`` call."""
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
        and node.func.attr == "writer"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "csv"
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
