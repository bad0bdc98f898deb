"""Reading and writing signed graphs.

Text format ".sg": first non-comment line "n m", then m lines "u v s" with
s in {+, -}; '#' starts a comment; ASCII with LF line endings.  The JSON
mirror is {"n": ..., "edges": [[u, v, 1|-1], ...]}.
"""

from __future__ import annotations

import json
from pathlib import Path

from .core import SignedGraph, new_signed_graph

__all__ = [
    "to_sg_text",
    "from_sg_text",
    "to_json_obj",
    "from_json_obj",
    "write_graph",
    "read_graph",
]


def to_sg_text(g: SignedGraph) -> str:
    lines = [f"{g.n} {g.m}"]
    for (u, v), s in zip(g.edges, g.signs):
        lines.append(f"{u} {v} {'+' if s == 1 else '-'}")
    return "\n".join(lines) + "\n"


def from_sg_text(text: str) -> SignedGraph:
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line)
    if not rows:
        raise ValueError("empty .sg input")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError(f"bad header {rows[0]!r}, expected 'n m'")
    n, m = int(head[0]), int(head[1])
    if len(rows) - 1 != m:
        raise ValueError(f"header declares {m} edges but {len(rows) - 1} present")
    edges = []
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 3 or parts[2] not in ("+", "-"):
            raise ValueError(f"bad edge line {line!r}, expected 'u v +|-'")
        edges.append((int(parts[0]), int(parts[1]), 1 if parts[2] == "+" else -1))
    return new_signed_graph(n, edges)


def to_json_obj(g: SignedGraph) -> dict:
    return {"n": g.n, "edges": [[u, v, s] for (u, v), s in zip(g.edges, g.signs)]}


def from_json_obj(obj) -> SignedGraph:
    if not isinstance(obj, dict) or "n" not in obj or not isinstance(obj.get("edges"), list):
        raise ValueError('JSON graph must be an object with "n" and a list "edges"')
    try:
        return new_signed_graph(int(obj["n"]), [(int(u), int(v), int(s)) for u, v, s in obj["edges"]])
    except TypeError as exc:
        raise ValueError(f"bad JSON graph: {exc}") from exc


def write_graph(g: SignedGraph, path) -> None:
    """Write a graph; .json suffix selects the JSON mirror, anything else .sg text."""
    p = Path(path)
    if p.suffix == ".json":
        p.write_text(json.dumps(to_json_obj(g)) + "\n")
    else:
        p.write_text(to_sg_text(g))


def read_graph(path) -> SignedGraph:
    p = Path(path)
    text = p.read_text()
    if p.suffix == ".json":
        return from_json_obj(json.loads(text))
    return from_sg_text(text)
