"""The package runs on every NumPy that pyproject.toml allows (>= 1.24).

NumPy 2 added names that 1.x lacks; a use of one in ``src/`` passes on a
NumPy 2 test host and breaks on 1.x, so the sources are scanned for them.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chaincontrib"

# Name of each NumPy-2-only construct, with a pattern that finds it.
NUMPY2_ONLY = {
    ".mT / .mH": re.compile(r"\.m[TH]\b"),
    "np.vecdot": re.compile(r"\bnp\.vecdot\b"),
    "np.concat": re.compile(r"\bnp\.concat\b"),
    "np.permute_dims": re.compile(r"\bnp\.permute_dims\b"),
    "np.matrix_transpose": re.compile(r"\bnp\.matrix_transpose\b"),
    "np.unstack": re.compile(r"\bnp\.unstack\b"),
    # Nested parentheses one level deep, across lines.
    "copy= on asarray": re.compile(r"\basarray\((?:[^()]|\([^()]*\))*?\bcopy\s*="),
}


def numpy2_uses(text: str) -> list[tuple[int, str]]:
    """(line, construct) of every NumPy-2-only use in ``text``."""
    found = []
    for name, pattern in NUMPY2_ONLY.items():
        for match in pattern.finditer(text):
            found.append((text.count("\n", 0, match.start()) + 1, name))
    return sorted(found)


@pytest.mark.parametrize(
    ("source", "name"),
    [
        ("y = x.mT @ x\n", ".mT / .mH"),
        ("y = x.mH\n", ".mT / .mH"),
        ("v = np.vecdot(a, b)\n", "np.vecdot"),
        ("v = np.concat([a, b])\n", "np.concat"),
        ("v = np.permute_dims(a, (1, 0))\n", "np.permute_dims"),
        ("v = np.matrix_transpose(a)\n", "np.matrix_transpose"),
        ("a, b = np.unstack(x)\n", "np.unstack"),
        ("v = np.asarray(x, copy=False)\n", "copy= on asarray"),
        ("v = np.asarray(\n    f(x),\n    dtype=float, copy=True,\n)\n", "copy= on asarray"),
    ],
)
def test_scan_finds_each_numpy2_only_name(source: str, name: str) -> None:
    assert [use for _, use in numpy2_uses("import numpy as np\n" + source)] == [name]


@pytest.mark.parametrize(
    "source",
    [
        "v = np.concatenate([a, b])\n",
        "v = np.asarray(x, dtype=float)\n",
        "v = np.array(x, copy=True)\n",
        "v = x.T @ x.mean()\n",
    ],
)
def test_scan_passes_numpy1_code(source: str) -> None:
    assert numpy2_uses(source) == []


def test_package_uses_no_numpy2_only_names() -> None:
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    found = [
        f"{path.relative_to(PACKAGE.parent.parent)}:{line}: {name}"
        for path in sources
        for line, name in numpy2_uses(path.read_text(encoding="utf-8"))
    ]
    assert not found, "NumPy-2-only names (pyproject allows numpy>=1.24):\n" + "\n".join(found)
