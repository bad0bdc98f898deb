"""Correctness checks on every op's JSON report.

Two layers of checks:

* pins: the SHA-256 of each op's canonical JSON (``wall_time_s`` dropped,
  keys sorted, separators fixed), recorded in pins.json by make_pins.py;
* invariants that hold whatever the pins say: exit code 0, ``ok: true`` on
  verify targets, and for every reported graph an index equal to
  ``numpy.linalg.eigvalsh`` to 1e-9, an unbalanced signature, the reported
  unbalanced-triangle count, freedom from the forbidden configuration, and
  (for search) no switching isomorphism to an excluded class plus one best
  index per restart.

Balance and the tc3/book predicates are recomputed here with numpy from the
adjacency matrix, independently of sgx: a signed graph is balanced exactly
when it is cospectral with its underlying graph, and for signed adjacency A
the unbalanced triangles on edge uv number (|A|^2 - A_uv A^2)_uv / 2.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

INDEX_TOL = 1e-9


def canonical_digest(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "wall_time_s"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def op_key(argv) -> str:
    return " ".join(argv)


def _adjacency(graph_sg: str) -> np.ndarray:
    rows = [line.split("#", 1)[0].split() for line in graph_sg.splitlines()]
    rows = [r for r in rows if r]
    n = int(rows[0][0])
    a = np.zeros((n, n))
    for u, v, s in rows[1:]:
        a[int(u), int(v)] = a[int(v), int(u)] = 1.0 if s == "+" else -1.0
    return a


def _graph_problems(entry: dict, forbid: str, excluded: list[str]) -> list[str]:
    from sgx.core import is_switching_isomorphic
    from sgx.forbidden import is_forbidden_free, parse_forbidden
    from sgx.sgio import from_sg_text

    a = _adjacency(entry["graph_sg"])
    u = np.abs(a)
    g = from_sg_text(entry["graph_sg"])
    problems = []
    lam = np.linalg.eigvalsh(a)
    if abs(entry["index"] - lam[-1]) > INDEX_TOL:
        problems.append(f"index {entry['index']!r} != eigvalsh {lam[-1]!r}")
    if np.allclose(lam, np.linalg.eigvalsh(u), rtol=0.0, atol=INDEX_TOL):
        problems.append("graph is balanced")
    unbalanced = round((np.trace(u @ u @ u) - np.trace(a @ a @ a)) / 12)
    if unbalanced != entry["unbalanced_triangles"]:
        problems.append(f"unbalanced triangles {entry['unbalanced_triangles']} != {unbalanced}")
    spec = parse_forbidden(forbid)
    if spec.kind in ("tc3", "c3"):
        free = unbalanced < spec.t
    elif spec.kind == "book":
        pages = (u @ u - a * (a @ a)) / 2 * (u > 0)
        free = round(pages.max(initial=0.0)) < spec.t
    else:
        free = is_forbidden_free(g, spec)
    if not free:
        problems.append(f"graph contains {forbid}")
    if any(is_switching_isomorphic(g, from_sg_text(ex)) for ex in excluded):
        problems.append("graph is switching isomorphic to an excluded class")
    return problems


def check_report(argv, rc, report: dict | None, pins: dict[str, str]) -> list[str]:
    """Problems found with one op's outcome; empty when it is correct."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if report is None:
        return problems + ["no report written"]
    want = pins.get(op_key(argv))
    if want is not None and canonical_digest(report) != want:
        problems.append("canonical digest differs from pin")
    if argv[0] == "verify":
        if report.get("ok") is not True:
            problems.append("verify target not ok")
        return problems
    entries = report.get("entries") or []
    if not entries:
        problems.append("no entries")
    for entry in entries:
        problems += _graph_problems(entry, report["forbidden"], report.get("excluded", []))
    if argv[0] == "search":
        restarts = int(argv[argv.index("--restarts") + 1])
        if len(report.get("restart_best_indices") or []) != restarts:
            problems.append("restart_best_indices does not hold one index per restart")
    return problems
