"""Each set-up record has one maker: tables are cut in ``dataset`` alone,
the CLI builds no data record by hand, and ``protocol`` alone builds the
noise reference and the metric rescaling.

``RawTable.select`` is the one way to cut a table, so a ``RawTable(``
call outside ``dataset.py`` would let a second cutting rule drift from
it. The ingest command hands rows to ``build_metric_series`` and
``partition_actors``, so it has no reason to build a ``MetricSeries``
either. Both routes rank or pool the noise actor of
``protocol.noise_actor`` and rescale with ``MetricTransform.unit_spread``,
so a ``make_noise_actor(`` or ``MetricTransform(`` call outside
``protocol.py`` would be a second recipe that ``compare`` silently
relies on matching. The sources are scanned for all four.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chaincontrib"
# Constructor name -> the modules that must not call it.
FORBIDDEN = {
    "RawTable": lambda name: name != "dataset.py",
    "MetricSeries": lambda name: name == "cli.py",
    "make_noise_actor": lambda name: name != "protocol.py",
    "MetricTransform": lambda name: name != "protocol.py",
}


def constructor_calls(source: str, constructor: str) -> list[int]:
    """Line of every ``constructor(`` or ``module.constructor(`` call."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == constructor)
            or (isinstance(node.func, ast.Attribute) and node.func.attr == constructor)
        )
    )


@pytest.mark.parametrize(
    ("source", "expected"),
    [
        ("def f(t):\n    return RawTable(t.id_column, (), (), t.values[:0])\n", [2]),
        ("import chaincontrib.dataset as d\nT = d.RawTable('id', (), (), [])\n", [2]),
        ("def f(t):\n    return t.select(['a'])\n", []),
        ("# RawTable( in a comment\nx = 'RawTable('\n", []),
    ],
)
def test_scan_finds_each_call(source: str, expected: list) -> None:
    assert constructor_calls(source, "RawTable") == expected


def test_no_table_or_series_is_built_by_hand() -> None:
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    stray = [
        f"{PACKAGE.parent.name}/{PACKAGE.name}/{path.name}:{line}: {constructor}("
        for path in sources
        for constructor, forbidden in FORBIDDEN.items()
        if forbidden(path.name)
        for line in constructor_calls(path.read_text(encoding="utf-8"), constructor)
    ]
    assert not stray, (
        "cut tables with RawTable.select, build metrics in dataset, and the "
        "noise actor and metric rescaling in protocol:\n"
        + "\n".join(stray)
    )
