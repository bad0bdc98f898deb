"""Command-line surface: construct, inspect, check, enumerate, search, verify.

Exit codes: 0 on success (and passing assertions), 1 on assertion failure,
2 on usage errors (bad flags, unparseable specs or files).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .core import unbalanced_triangles
from .families import parse_family
from .forbidden import (
    book_count,
    count_unbalanced_triangles,
    friendship_count,
    is_forbidden_free,
    parse_forbidden,
)
from .search import (
    enumerate_extremal,
    local_search,
    verify_crossing,
    verify_extremal,
    verify_identities,
    verify_spectral_bound,
    verify_u1_gap,
)
from .sgio import read_graph, to_sg_text, write_graph
from .spectra import char_poly_exact, eigenvalues_symmetric

VERIFY_TARGETS = ("thm1", "lq1", "lqq1", "identities", "c3bound")


class UsageError(Exception):
    pass


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}, expected lo:hi") from exc
    if lo_i > hi_i:
        raise UsageError(f"bad range {text!r}: lo > hi")
    return lo_i, hi_i


def _emit(report, fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        text = json.dumps(report.to_json_dict(), indent=2) + "\n"
    else:
        text = report.render_table() + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sgx",
        description="signed-graph spectral toolkit: extremal families, exact "
        "characteristic polynomials, switching-class search",
    )
    ap.add_argument("--version", action="version", version=f"sgx {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named family member")
    p.add_argument("family", help="gamma:n,t | sigma:s,t,r | u1:n | knminus:n:u-v;u-v")
    p.add_argument("-o", "--output", help="output path (.sg or .json); stdout if omitted")

    for name, desc in (
        ("index", "largest adjacency eigenvalue"),
        ("spectrum", "full adjacency spectrum"),
        ("charpoly", "exact characteristic polynomial of the adjacency matrix"),
        ("triangles", "unbalanced triangles"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("graph", help="input graph file (.sg or .json)")
        if name in ("index", "spectrum"):
            p.add_argument(
                "--tol", type=float, default=1e-12,
                help="eigensolver off-diagonal termination tolerance (default 1e-12)",
            )

    p = sub.add_parser("check", help="test a forbidden-configuration predicate")
    p.add_argument("--forbid", required=True, help="tc3:t | book:t | friendship:t | c3")
    p.add_argument("graph", help="input graph file (.sg or .json)")

    p = sub.add_parser("enumerate", help="exhaustive top classes by index (n <= 7)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--forbid", required=True)
    p.add_argument("--top", type=int, default=1)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.add_argument("-o", "--output")

    p = sub.add_parser("search", help="seeded stochastic hill-climbing search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--forbid", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--restarts", type=int, required=True)
    p.add_argument(
        "--exclude",
        action="append",
        default=[],
        help="family spec of a class to reject as incumbent (repeatable)",
    )
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.add_argument("-o", "--output")

    p = sub.add_parser("verify", help="run a verification target")
    p.add_argument("--target", choices=VERIFY_TARGETS, required=True)
    p.add_argument("--range", default=None, help="lo:hi (meaning depends on target)")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.add_argument("-o", "--output")
    return ap


def _run(args) -> int:
    cmd = args.command
    if cmd == "construct":
        g = parse_family(args.family)
        if args.output:
            write_graph(g, args.output)
        else:
            sys.stdout.write(to_sg_text(g))
        return 0

    if cmd in ("index", "spectrum", "charpoly", "triangles", "check"):
        g = read_graph(args.graph)
        if cmd == "index":
            spectrum = eigenvalues_symmetric(g.adjacency_matrix(), tol=args.tol)
            print(f"{spectrum.lambda1:.9f}")
            return 0
        if cmd == "spectrum":
            spectrum = eigenvalues_symmetric(g.adjacency_matrix(), tol=args.tol)
            print(" ".join(f"{v:.9f}" for v in spectrum.values))
            return 0
        if cmd == "charpoly":
            cp = char_poly_exact(g.adjacency_matrix())
            print(str(cp))
            print("coeffs (ascending):", list(cp.coeffs))
            return 0
        if cmd == "triangles":
            tris = unbalanced_triangles(g)
            for tri in tris:
                print(" ".join(str(v) for v in tri))
            print(f"count: {len(tris)}")
            return 0
        spec = parse_forbidden(args.forbid)
        free = is_forbidden_free(g, spec)
        if spec.kind in ("tc3", "c3"):
            detail = f"unbalanced triangles = {count_unbalanced_triangles(g)}"
        elif spec.kind == "book":
            edge, cnt = book_count(g)
            detail = f"max book size = {cnt} at edge {edge}"
        else:
            v, cnt = friendship_count(g)
            detail = f"max friendship size = {cnt} at vertex {v}"
        print(f"free: {'true' if free else 'false'} ({detail})")
        return 0 if free else 1

    if cmd == "enumerate":
        spec = parse_forbidden(args.forbid)
        report = enumerate_extremal(args.n, spec, top_k=args.top, workers=args.workers)
        _emit(report, args.format, args.output)
        return 0

    if cmd == "search":
        spec = parse_forbidden(args.forbid)
        exclude = [parse_family(s) for s in args.exclude]
        report = local_search(
            args.n, spec, seed=args.seed, restarts=args.restarts, exclude=exclude
        )
        _emit(report, args.format, args.output)
        return 0

    if cmd == "verify":
        target = args.target
        if target == "identities":
            lo, hi = _parse_range(args.range or "9:20")
            report = verify_identities(lo, hi)
        elif target == "lq1":
            lo, hi = _parse_range(args.range or "9:12")
            report = verify_crossing(lo, hi)
        elif target == "lqq1":
            lo, hi = _parse_range(args.range or "9:12")
            report = verify_u1_gap(lo, hi)
        elif target == "thm1":
            lo, hi = _parse_range(args.range or "6:6")
            if lo != hi:
                raise UsageError("thm1 verifies one order at a time; use --range n:n")
            report = verify_extremal(lo, workers=args.workers)
        else:
            lo, hi = _parse_range(args.range or "6:6")
            if lo != hi:
                raise UsageError("c3bound verifies one order at a time; use --range n:n")
            report = verify_spectral_bound(lo)
        _emit(report, args.format, args.output)
        return 0 if report.ok else 1

    raise UsageError(f"unknown command {cmd!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return _run(args)
    except (UsageError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
