"""Signed graphs: construction, switching, balance, cycle signs, switching classes.

A signed graph is a simple undirected graph whose edges carry a sign in
{+1, -1}.  Vertices are 0-based contiguous integers.  All values here are
immutable and every operation is a pure function, so graphs can be shared
freely across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "SignedGraph",
    "NormalForm",
    "SizeLimitError",
    "new_signed_graph",
    "switch",
    "relabel",
    "is_balanced",
    "cycle_sign",
    "unbalanced_triangles",
    "switching_normal_form",
    "switching_representative",
    "is_switching_equivalent",
    "is_switching_isomorphic",
]

ISO_SIZE_LIMIT = 10


class SizeLimitError(ValueError):
    """Raised when an exact search is requested above its configured size cap."""


@dataclass(frozen=True)
class SignedGraph:
    """Immutable signed graph on vertices 0..n-1.

    ``edges`` is lexicographically sorted with u < v in each pair, and
    ``signs`` is aligned with it (each entry +1 or -1).
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"vertex count must be positive, got {self.n}")
        if len(self.edges) != len(self.signs):
            raise ValueError("edges and signs must have equal length")
        seen = set()
        for (u, v), s in zip(self.edges, self.signs):
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range or not normalized for n={self.n}")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            if s not in (1, -1):
                raise ValueError(f"sign of edge ({u},{v}) must be +1 or -1, got {s}")
            seen.add((u, v))
        if list(self.edges) != sorted(self.edges):
            raise ValueError("edges must be sorted lexicographically")

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _sign_map(self) -> dict[tuple[int, int], int]:
        return dict(zip(self.edges, self.signs))

    @cached_property
    def _neighbor_masks(self) -> tuple[int, ...]:
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self._sign_map

    def sign(self, u: int, v: int) -> int:
        """Sign of edge uv; raises KeyError if uv is not an edge."""
        if u > v:
            u, v = v, u
        return self._sign_map[(u, v)]

    def neighbors(self, v: int) -> tuple[int, ...]:
        mask = self._neighbor_masks[v]
        return tuple(i for i in range(self.n) if mask >> i & 1)

    def degree(self, v: int) -> int:
        return self._neighbor_masks[v].bit_count()

    def adjacency_matrix(self) -> np.ndarray:
        """Signed adjacency matrix A with A[u,v] = sign(uv) on edges, 0 elsewhere."""
        a = np.zeros((self.n, self.n), dtype=np.int64)
        for (u, v), s in zip(self.edges, self.signs):
            a[u, v] = s
            a[v, u] = s
        return a

    def with_signs(self, signs: dict[tuple[int, int], int]) -> "SignedGraph":
        """Same underlying graph with signs replaced on the given edges."""
        new = []
        for (u, v), s in zip(self.edges, self.signs):
            new.append(signs.get((u, v), s))
        return SignedGraph(self.n, self.edges, tuple(new))


def new_signed_graph(n: int, signed_edges) -> SignedGraph:
    """Build a SignedGraph from (u, v, sign) triples, normalizing edge order."""
    pairs = []
    for u, v, s in signed_edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u > v:
            u, v = v, u
        pairs.append(((u, v), s))
    pairs.sort()
    edges = tuple(p for p, _ in pairs)
    signs = tuple(s for _, s in pairs)
    return SignedGraph(n, edges, signs)


def switch(g: SignedGraph, u_set) -> SignedGraph:
    """Flip the sign of every edge with exactly one endpoint in ``u_set``."""
    uset = frozenset(u_set)
    for v in uset:
        if not (0 <= v < g.n):
            raise ValueError(f"switch set vertex {v} out of range for n={g.n}")
    signs = []
    for (u, v), s in zip(g.edges, g.signs):
        if (u in uset) != (v in uset):
            s = -s
        signs.append(s)
    return SignedGraph(g.n, g.edges, tuple(signs))


def relabel(g: SignedGraph, perm) -> SignedGraph:
    """Relabel vertices by ``perm`` (perm[old] = new)."""
    perm = list(perm)
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    return new_signed_graph(
        g.n, [(perm[u], perm[v], s) for (u, v), s in zip(g.edges, g.signs)]
    )


def _bfs_forest(adj) -> tuple[list[int], list[int], list[int]]:
    """Deterministic rooted spanning forest of the graph with neighbor bitmasks ``adj``.

    Roots are the minimum-id vertex of each component; traversal is BFS with
    neighbors visited in ascending id.  Returns (parent, component, order)
    where parent[root] = -1 and component labels count up from 0.
    """
    n = len(adj)
    parent = [-1] * n
    comp = [-1] * n
    order = []
    label = 0
    for root in range(n):
        if comp[root] >= 0:
            continue
        comp[root] = label
        order.append(root)
        head = len(order) - 1
        while head < len(order):
            v = order[head]
            head += 1
            nb = adj[v]
            while nb:
                b = nb & -nb
                nb ^= b
                w = b.bit_length() - 1
                if comp[w] < 0:
                    comp[w] = label
                    parent[w] = v
                    order.append(w)
        label += 1
    return parent, comp, order


def _forest_potential(g: SignedGraph) -> tuple[list[int], list[int], list[int]]:
    """(parent, component, theta): theta(v) is the sign product along the
    forest path from v's root, so switching by theta makes the forest positive."""
    parent, comp, order = _bfs_forest(g._neighbor_masks)
    theta = [1] * g.n
    for v in order:
        p = parent[v]
        if p >= 0:
            theta[v] = theta[p] * g.sign(p, v)
    return parent, comp, theta


@dataclass(frozen=True)
class NormalForm:
    """Switching normal form: forest edges forced positive, residual signs kept.

    Two signatures on the same underlying graph are switching equivalent
    exactly when their normal forms are equal, because the residual entries
    are the signs of the fundamental cycles.
    """

    n: int
    parent: tuple[int, ...]
    component: tuple[int, ...]
    residual: tuple[tuple[int, int, int], ...]  # (u, v, sign), u < v, sorted

    @property
    def all_positive(self) -> bool:
        return all(s == 1 for _, _, s in self.residual)


def switching_normal_form(g: SignedGraph) -> NormalForm:
    """Canonical representative of the switching class of ``g``'s signature."""
    parent, comp, theta = _forest_potential(g)
    forest = {(min(v, p), max(v, p)) for v, p in enumerate(parent) if p >= 0}
    residual = []
    for (u, v), s in zip(g.edges, g.signs):
        if (u, v) not in forest:
            residual.append((u, v, theta[u] * theta[v] * s))
    return NormalForm(g.n, tuple(parent), tuple(comp), tuple(residual))


def switching_representative(g: SignedGraph) -> SignedGraph:
    """The switched copy of ``g`` whose BFS forest edges are all positive."""
    nf = switching_normal_form(g)
    res = {(u, v): s for u, v, s in nf.residual}
    signs = tuple(res.get(e, 1) for e in g.edges)
    return SignedGraph(g.n, g.edges, signs)


def is_balanced(g: SignedGraph) -> bool:
    """True iff some vertex potential theta realizes every sign as theta(u)*theta(v)."""
    _, _, theta = _forest_potential(g)
    return all(s == theta[u] * theta[v] for (u, v), s in zip(g.edges, g.signs))


def cycle_sign(g: SignedGraph, cycle) -> int:
    """Product of edge signs along a cycle given as a distinct vertex sequence."""
    cyc = list(cycle)
    if len(cyc) < 3:
        raise ValueError("cycle must have at least 3 vertices")
    if len(set(cyc)) != len(cyc):
        raise ValueError("cycle vertices must be distinct")
    s = 1
    for i, u in enumerate(cyc):
        v = cyc[(i + 1) % len(cyc)]
        if not g.has_edge(u, v):
            raise ValueError(f"({u},{v}) is not an edge")
        s *= g.sign(u, v)
    return s


def unbalanced_triangles(g: SignedGraph) -> tuple[tuple[int, int, int], ...]:
    """All vertex triples inducing a triangle with negative sign product, lex sorted."""
    out = []
    masks = g._neighbor_masks
    for (u, v), s_uv in zip(g.edges, g.signs):
        common = masks[u] & masks[v]
        common >>= v + 1  # w > v keeps each triple once
        w = v + 1
        while common:
            if common & 1 and s_uv * g.sign(u, w) * g.sign(v, w) == -1:
                out.append((u, v, w))
            common >>= 1
            w += 1
    out.sort()
    return tuple(out)


def is_switching_equivalent(g: SignedGraph, h: SignedGraph) -> bool:
    """Equality of switching classes of two signatures on the same underlying graph."""
    if g.n != h.n or g.edges != h.edges:
        raise ValueError(
            "underlying graphs differ; use is_switching_isomorphic for relabelings"
        )
    return switching_normal_form(g) == switching_normal_form(h)


def _vertex_invariants(g: SignedGraph) -> list[tuple]:
    """Per-vertex labels invariant under switching and relabeling."""
    tri_inc = [0] * g.n
    for a, b, c in unbalanced_triangles(g):
        tri_inc[a] += 1
        tri_inc[b] += 1
        tri_inc[c] += 1
    base = [(g.degree(v), tri_inc[v]) for v in range(g.n)]
    # one refinement round: append the sorted multiset of neighbor labels
    return [
        base[v] + (tuple(sorted(base[w] for w in g.neighbors(v))),) for v in range(g.n)
    ]


def is_switching_isomorphic(g: SignedGraph, h: SignedGraph) -> bool:
    """True iff some relabeling of ``g`` is switching equivalent to ``h``.

    Exact backtracking over vertex bijections, pruned by switching-invariant
    vertex labels and by unbalanced-triangle structure; factorial-time in the
    worst case, hence the size cap.
    """
    if g.n != h.n:
        return False
    if g.n > ISO_SIZE_LIMIT:
        raise SizeLimitError(
            f"size limit: exact switching isomorphism capped at n={ISO_SIZE_LIMIT}, got n={g.n}"
        )
    if g.m != h.m:
        return False
    tri_g = unbalanced_triangles(g)
    tri_h = set(unbalanced_triangles(h))
    if len(tri_g) != len(tri_h):
        return False
    inv_g = _vertex_invariants(g)
    inv_h = _vertex_invariants(h)
    if sorted(inv_g) != sorted(inv_h):
        return False

    tri_g_set = set(tri_g)
    nf_h = switching_normal_form(h)
    candidates = [
        [w for w in range(h.n) if inv_h[w] == inv_g[v]] for v in range(g.n)
    ]
    # most-constrained vertices first
    vorder = sorted(range(g.n), key=lambda v: (len(candidates[v]), -g.degree(v), v))
    phi = [-1] * g.n
    used = [False] * h.n

    def consistent(v: int, w: int, depth: int) -> bool:
        for j in range(depth):
            v2 = vorder[j]
            w2 = phi[v2]
            if g.has_edge(v, v2) != h.has_edge(w, w2):
                return False
        for j in range(depth):
            v2 = vorder[j]
            if not g.has_edge(v, v2):
                continue
            for k in range(j + 1, depth):
                v3 = vorder[k]
                if g.has_edge(v, v3) and g.has_edge(v2, v3):
                    tg = tuple(sorted((v, v2, v3)))
                    th = tuple(sorted((w, phi[v2], phi[v3])))
                    if (tg in tri_g_set) != (th in tri_h):
                        return False
        return True

    def extend(depth: int) -> bool:
        if depth == g.n:
            return switching_normal_form(relabel(g, phi)) == nf_h
        v = vorder[depth]
        for w in candidates[v]:
            if used[w] or not consistent(v, w, depth):
                continue
            phi[v] = w
            used[w] = True
            if extend(depth + 1):
                return True
            used[w] = False
            phi[v] = -1
        return False

    return extend(0)
