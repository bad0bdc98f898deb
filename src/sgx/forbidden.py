"""Forbidden-configuration predicates on unbalanced triangles.

Three configurations, each parameterized by a threshold t:

* ``tc3``        -- t distinct unbalanced triangles anywhere (overlap allowed);
* ``book``       -- t unbalanced triangles sharing one common edge;
* ``friendship`` -- t unbalanced triangles pairwise sharing exactly one common
  vertex (detected as a matching of size t in the link graph of that vertex).

``c3`` is shorthand for a single unbalanced triangle (tc3 with t = 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import SignedGraph, unbalanced_triangles

__all__ = [
    "ForbiddenSpec",
    "parse_forbidden",
    "count_unbalanced_triangles",
    "is_forbidden_free",
    "triangles_free",
    "book_count",
    "friendship_count",
    "max_matching_size",
]

KINDS = ("tc3", "book", "friendship", "c3")


@dataclass(frozen=True)
class ForbiddenSpec:
    kind: str
    t: int = 1

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown forbidden kind {self.kind!r}")
        if self.kind == "c3" and self.t != 1:
            raise ValueError("c3 has no threshold parameter")
        if self.t < 1:
            raise ValueError(f"threshold must be >= 1, got {self.t}")

    def __str__(self) -> str:
        return "c3" if self.kind == "c3" else f"{self.kind}:{self.t}"


def parse_forbidden(spec: str) -> ForbiddenSpec:
    """Parse spec strings like "tc3:4", "book:3", "friendship:2", "c3"."""
    kind, _, rest = spec.strip().lower().partition(":")
    if kind == "c3" and not rest:
        return ForbiddenSpec("c3", 1)
    if kind in ("tc3", "book", "friendship"):
        try:
            return ForbiddenSpec(kind, int(rest))
        except ValueError as exc:
            raise ValueError(f"bad threshold in forbidden spec {spec!r}") from exc
    raise ValueError(f"unknown forbidden spec {spec!r}")


def count_unbalanced_triangles(g: SignedGraph) -> int:
    return len(unbalanced_triangles(g))


def _edge_counts(tris) -> dict[tuple[int, int], int]:
    """Unbalanced triangles per edge, for edges that carry at least one."""
    per_edge: dict[tuple[int, int], int] = {}
    for a, b, c in tris:
        for e in ((a, b), (a, c), (b, c)):
            per_edge[e] = per_edge.get(e, 0) + 1
    return per_edge


def book_count(g: SignedGraph) -> tuple[tuple[int, int], int]:
    """Edge carrying the most unbalanced triangles and that count.

    Ties break to the lexicographically smallest edge; an edgeless graph
    reports ((0, 1), 0) by convention.
    """
    per_edge = {e: 0 for e in g.edges}
    per_edge.update(_edge_counts(unbalanced_triangles(g)))
    if not per_edge:
        return (0, 1), 0
    best = max(sorted(per_edge), key=lambda e: per_edge[e])
    return best, per_edge[best]


def max_matching_size(n: int, edges) -> int:
    """Exact maximum matching size by branch-and-bound augmentation search.

    Branches on the lowest-id vertex that still has available neighbors
    (match it or skip it), bounding with floor(available/2).  Exponential in
    the worst case; intended for the small link graphs used here.
    """
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    full = (1 << n) - 1
    best = 0

    def greedy(avail: int) -> int:
        size = 0
        while avail:
            v = (avail & -avail).bit_length() - 1
            avail &= ~(1 << v)
            nbrs = adj[v] & avail
            if nbrs:
                w = (nbrs & -nbrs).bit_length() - 1
                avail &= ~(1 << w)
                size += 1
        return size

    def rec(avail: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        # drop vertices with no available neighbor
        while avail:
            v = (avail & -avail).bit_length() - 1
            if adj[v] & avail:
                break
            avail &= ~(1 << v)
        if not avail:
            return
        if size + avail.bit_count() // 2 <= best:
            return
        v = (avail & -avail).bit_length() - 1
        rest = avail & ~(1 << v)
        nbrs = adj[v] & avail
        while nbrs:
            w = (nbrs & -nbrs).bit_length() - 1
            nbrs &= ~(1 << w)
            rec(rest & ~(1 << w), size + 1)
        rec(rest, size)  # leave v unmatched

    best = greedy(full)
    rec(full, 0)
    return best


def _hub_matching(n: int, tris) -> tuple[int, int]:
    """Hub vertex with the largest matching in its link graph, and that size.

    The link graph of v has vertex set N(v) and an edge xy whenever vxy is an
    unbalanced triangle; a matching of size t there is t unbalanced triangles
    pairwise sharing only v.  Ties break to the smallest vertex id.
    """
    link: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, b, c in tris:
        link[a].append((b, c))
        link[b].append((a, c))
        link[c].append((a, b))
    best_v, best = 0, 0
    for v in range(n):
        if not link[v]:
            continue
        verts = sorted({x for e in link[v] for x in e})
        ids = {x: i for i, x in enumerate(verts)}
        size = max_matching_size(len(verts), [(ids[x], ids[y]) for x, y in link[v]])
        if size > best:
            best_v, best = v, size
    return best_v, best


def friendship_count(g: SignedGraph) -> tuple[int, int]:
    """Hub vertex with the largest unbalanced-triangle matching in its link graph."""
    return _hub_matching(g.n, unbalanced_triangles(g))


def triangles_free(n: int, tris, spec: ForbiddenSpec) -> bool:
    """True iff the unbalanced triangles ``tris`` of a graph on n vertices,
    each a vertex triple a < b < c, hold no copy of the forbidden configuration."""
    if spec.kind == "book":
        return max(_edge_counts(tris).values(), default=0) < spec.t
    if spec.kind == "friendship":
        return _hub_matching(n, tris)[1] < spec.t
    return len(tris) < spec.t


def is_forbidden_free(g: SignedGraph, spec: ForbiddenSpec) -> bool:
    """True iff ``g`` contains no copy of the forbidden configuration."""
    return triangles_free(g.n, unbalanced_triangles(g), spec)
