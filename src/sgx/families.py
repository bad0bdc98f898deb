"""Named extremal families and their closed-form polynomials.

Families (one negative edge each, everything else positive):

* ``gamma(n, t)``   -- all-positive complete graph on ids 0..n-2 plus a vertex
  u = n-1 joined to ids 0..t-2, with edge (0, n-1) negative.  Has exactly
  t-2 unbalanced triangles.
* ``sigma(s, t, r)`` -- negative edge (0, 1) hung on an all-positive complete
  graph on the remaining s+t+r ids; vertex 0 also joins the s-block and the
  t-block, vertex 1 joins the t-block and the r-block.  Exactly t unbalanced
  triangles.
* ``u1(n)``         -- negative edge (0, 1); both endpoints join every vertex
  of the complete part except the last id.  Exactly n-3 unbalanced triangles.
* ``kn_minus(n, neg_edges)`` -- complete graph with the listed edges negative.

The cubic ``g_poly(n, t)`` has the index of gamma(n, t) as its largest root;
``q1_matrix``/``pq1_poly`` and ``q2_matrix``/``pq2_poly`` are the 5x5 and 4x4
equitable quotient matrices of sigma(1, t-1, n-t-2) and u1(n) with their
characteristic polynomials in closed form.
"""

from __future__ import annotations

import numpy as np

from .core import SignedGraph, new_signed_graph
from .spectra import CharPoly

__all__ = [
    "gamma",
    "sigma",
    "u1",
    "kn_minus",
    "g_poly",
    "q1_matrix",
    "pq1_poly",
    "q2_matrix",
    "pq2_poly",
    "q1_partition",
    "q2_partition",
    "parse_family",
]


def gamma(n: int, t: int) -> SignedGraph:
    """Complete graph on n-1 vertices plus a pendant-clique vertex, one negative edge."""
    if n < 4 or not (3 <= t <= n):
        raise ValueError(f"gamma requires n >= 4 and 3 <= t <= n, got (n={n}, t={t})")
    edges = [(i, j, 1) for i in range(n - 1) for j in range(i + 1, n - 1)]
    u = n - 1
    for i in range(t - 1):
        edges.append((i, u, -1 if i == 0 else 1))
    return new_signed_graph(n, edges)


def sigma(s: int, t: int, r: int) -> SignedGraph:
    """Negative edge with s private, t common, r private positive attachments to a clique."""
    n = s + t + r + 2
    if s < 0 or t < 1 or r < 0 or n < 5:
        raise ValueError(
            f"sigma requires s >= 0, t >= 1, r >= 0 and s+t+r+2 >= 5, got (s={s}, t={t}, r={r})"
        )
    s_block = range(2, 2 + s)
    t_block = range(2 + s, 2 + s + t)
    r_block = range(2 + s + t, n)
    edges = [(0, 1, -1)]
    edges += [(i, j, 1) for i in range(2, n) for j in range(i + 1, n)]
    edges += [(0, v, 1) for v in s_block]
    edges += [(0, v, 1) for v in t_block]
    edges += [(1, v, 1) for v in t_block]
    edges += [(1, v, 1) for v in r_block]
    return new_signed_graph(n, edges)


def u1(n: int) -> SignedGraph:
    """Negative edge whose endpoints both miss exactly one vertex of the clique."""
    if n < 5:
        raise ValueError(f"u1 requires n >= 5, got n={n}")
    edges = [(0, 1, -1)]
    edges += [(i, j, 1) for i in range(2, n) for j in range(i + 1, n)]
    edges += [(0, v, 1) for v in range(2, n - 1)]
    edges += [(1, v, 1) for v in range(2, n - 1)]
    return new_signed_graph(n, edges)


def kn_minus(n: int, neg_edges) -> SignedGraph:
    """Complete graph with the listed edges negative, the rest positive."""
    neg = set()
    for u, v in neg_edges:
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"invalid edge ({u},{v}) for K_{n}")
        neg.add((min(u, v), max(u, v)))
    edges = [
        (i, j, -1 if (i, j) in neg else 1) for i in range(n) for j in range(i + 1, n)
    ]
    return new_signed_graph(n, edges)


def g_poly(n: int, t: int) -> CharPoly:
    """Cubic whose largest root is the index of gamma(n, t)."""
    if n < 4 or not (3 <= t <= n):
        raise ValueError(f"g_poly requires n >= 4 and 3 <= t <= n, got (n={n}, t={t})")
    return CharPoly((-t * t + (n + 4) * t - n - 7, -(n + t - 3), -(n - 3), 1))


def q1_matrix(n: int, t: int) -> np.ndarray:
    """5x5 equitable quotient matrix of sigma(1, t-1, n-t-2)."""
    return np.array(
        [
            [0, -1, 1, t - 1, 0],
            [-1, 0, 0, t - 1, n - t - 2],
            [1, 0, 0, t - 1, n - t - 2],
            [1, 1, 1, t - 2, n - t - 2],
            [0, 1, 1, t - 1, n - t - 3],
        ],
        dtype=np.int64,
    )


def pq1_poly(n: int, t: int) -> CharPoly:
    """Closed-form characteristic polynomial of q1_matrix(n, t)."""
    return CharPoly(
        (
            4 * n - 12,
            2 * n * t + 4 * n - 2 * t * t - 2 * t - 16,
            n * t - n - t * t - 2 * t - 1,
            9 - 3 * n - t,
            5 - n,
            1,
        )
    )


def q2_matrix(n: int) -> np.ndarray:
    """4x4 equitable quotient matrix of u1(n)."""
    return np.array(
        [
            [0, -1, n - 3, 0],
            [-1, 0, n - 3, 0],
            [1, 1, n - 4, 1],
            [0, 0, n - 3, 0],
        ],
        dtype=np.int64,
    )


def pq2_poly(n: int) -> CharPoly:
    """Closed-form characteristic polynomial of q2_matrix(n)."""
    return CharPoly((n - 3, 3 * n - 10, 8 - 3 * n, 4 - n, 1))


def q1_partition(n: int, t: int) -> list[tuple[int, ...]]:
    """Vertex partition of sigma(1, t-1, n-t-2) matching q1_matrix(n, t).

    Blocks: the two negative-edge endpoints, the private clique vertex, the
    t-1 common neighbors, and the n-t-2 remaining clique vertices.
    """
    return [
        (0,),
        (1,),
        (2,),
        tuple(range(3, 3 + (t - 1))),
        tuple(range(3 + (t - 1), n)),
    ]


def q2_partition(n: int) -> list[tuple[int, ...]]:
    """Vertex partition of u1(n) matching q2_matrix(n)."""
    return [(0,), (1,), tuple(range(2, n - 1)), (n - 1,)]


# CLI-facing family specifiers: "gamma:n,t", "sigma:s,t,r", "u1:n",
# "knminus:n:u-v;u-v;..."


def parse_family(spec: str) -> SignedGraph:
    """Build a family member from its CLI specifier string."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    try:
        if kind == "gamma":
            n, t = (int(x) for x in rest.split(","))
            return gamma(n, t)
        if kind == "sigma":
            s, t, r = (int(x) for x in rest.split(","))
            return sigma(s, t, r)
        if kind == "u1":
            return u1(int(rest))
        if kind == "knminus":
            n_str, _, edge_str = rest.partition(":")
            n = int(n_str)
            neg = []
            if edge_str.strip():
                for tok in edge_str.split(";"):
                    u, v = (int(x) for x in tok.split("-"))
                    neg.append((u, v))
            return kn_minus(n, neg)
    except ValueError as exc:
        if "requires" in str(exc) or "invalid edge" in str(exc):
            raise
        raise ValueError(f"unparseable family spec {spec!r}") from exc
    raise ValueError(f"unknown family kind {kind!r} in spec {spec!r}")
