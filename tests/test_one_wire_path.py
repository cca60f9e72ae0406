"""Every frame crosses the wire through one path in ``protocol``.

Both transports hand their replies to one exchange, which decodes them
and checks their kind, and an actor decodes its call in
``LocalActor.respond``. A ``decode_message(`` call anywhere else would
let a second reply rule drift from the first, so that one transport
crashes on a frame the other turns into a timeout. Sockets are opened
only in ``protocol``, and the actor server is the standard library's,
so no module runs an accept loop of its own. The sources are scanned
for all three.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chaincontrib"
# (module, enclosing function) that may call decode_message.
DECODERS = {("protocol.py", "LocalActor.respond"), ("protocol.py", "_exchange")}
SOCKET_MODULES = {"socket", "socketserver"}


def _owners(tree: ast.Module) -> dict[int, str]:
    """Dotted name of the innermost class or function around each node."""
    owner: dict[int, str] = {}

    def visit(node: ast.AST, name: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            inner = name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{name}.{child.name}" if name else child.name
            if inner is not None:
                owner[id(child)] = inner
            visit(child, inner)

    visit(tree, None)
    return owner


def wire_breaches(source: str, module: str) -> list[tuple[int, str]]:
    """(line, what) of each way ``source`` leaves the one wire path."""
    tree = ast.parse(source)
    owner = _owners(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            where = owner.get(id(node))
            if name == "decode_message" and (module, where) not in DECODERS:
                found.append((node.lineno, f"decode_message( in {where or 'module scope'}"))
            if isinstance(func, ast.Attribute) and func.attr == "accept":
                found.append((node.lineno, ".accept( call"))
        if module != "protocol.py":
            if isinstance(node, ast.Import):
                imported = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported = [(node.module or "").split(".")[0]]
            else:
                continue
            for name in sorted(SOCKET_MODULES.intersection(imported)):
                found.append((node.lineno, f"imports {name}"))
    return sorted(found)


@pytest.mark.parametrize(
    ("source", "module", "expected"),
    [
        (
            "class LocalActor:\n    def respond(self, f):\n        return decode_message(f)\n",
            "protocol.py",
            [],
        ),
        ("def _exchange(t, p, f, s):\n    return decode_message(s(f))\n", "protocol.py", []),
        (
            "class T:\n    def request(self, f):\n        return protocol.decode_message(f)\n",
            "protocol.py",
            [(3, "decode_message( in T.request")],
        ),
        (
            "def _exchange(t, p, f, s):\n    return decode_message(s(f))\n",
            "cli.py",
            [(2, "decode_message( in _exchange")],
        ),
        ("R = decode_message(b'')\n", "protocol.py", [(1, "decode_message( in module scope")]),
        ("def serve(s):\n    conn, _ = s.accept()\n", "protocol.py", [(2, ".accept( call")]),
        ("import socket\n", "protocol.py", []),
        ("import socket, json\n", "cli.py", [(1, "imports socket")]),
        ("from socketserver import TCPServer\n", "cli.py", [(1, "imports socketserver")]),
        ("import socketserver as ss\n", "evaluation.py", [(1, "imports socketserver")]),
        ("from . import protocol\nimport json\n", "cli.py", []),
        ("# decode_message( and .accept( in a comment\nx = 'import socket'\n", "cli.py", []),
    ],
)
def test_scan_finds_each_breach(source: str, module: str, expected: list) -> None:
    assert wire_breaches(source, module) == expected


def test_package_has_one_wire_path() -> None:
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    stray = [
        f"{PACKAGE.parent.name}/{PACKAGE.name}/{path.name}:{line}: {what}"
        for path in sources
        for line, what in wire_breaches(path.read_text(encoding="utf-8"), path.name)
    ]
    assert not stray, (
        "decode frames in protocol._exchange or LocalActor.respond, and keep "
        "sockets inside protocol:\n" + "\n".join(stray)
    )
