"""Exhaustive switching-class enumeration, stochastic search, and verifiers.

The enumerator scans the underlying graphs on n vertices up to isomorphism:
one canonical labeling each (34 / 156 / 1,044 graphs at n = 5 / 6 / 7),
grown by vertex addition and keyed by the minimum slot mask over the
labelings that respect an iterated degree refinement.  For each graph it
fixes a spanning forest all-positive and ranges the residual edge signs over
{+,-}^(m-n+c): switching classes of signatures on a fixed graph correspond
one-to-one with residual sign assignments, which cuts 3^m raw signatures
down to 2^(m-n+c) classes.

Pruning is by spectral dominance: the index of any signature is at most the
index of the underlying all-positive graph, which is itself at most
sqrt(2m - n' + 1) (n' = non-isolated vertices).  Graphs are processed in
decreasing order of that bound, so once the bound falls below the running
top-pool floor the remaining graphs can be discarded wholesale.  Pruned
graphs still contribute to the visited totals, which count labeled graphs
and labeled switching classes.

Reports are those of a scan over every labeled graph.  Only the
representatives the report can reach, in decreasing index down to the
top_k-th class minus 2 * CLASS_TOL, are expanded to their labeled orbits
(all n! relabellings, each switched to its forest-positive form); every
distinct labeled copy is solved with the same kernel, and the copies are
merged into classes as a labeled scan merges them.  This is sound because
relabelling does not change the spectrum, and each Jacobi value lies within
its 1e-12 off-diagonal norm of the true eigenvalue (Weyl), which is far
inside the CLASS_TOL margin.  A post-pass requires the representative pool
to reach below that band or to hold every candidate, so pruning can never
change the report.
"""

from __future__ import annotations

import bisect
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import permutations, product

from .core import (
    ISO_SIZE_LIMIT,
    SignedGraph,
    _bfs_forest,
    is_balanced,
    is_switching_isomorphic,
    new_signed_graph,
)
from .families import g_poly, gamma, pq1_poly, pq2_poly, q1_matrix, q2_matrix, sigma, u1
from .forbidden import (
    ForbiddenSpec,
    count_unbalanced_triangles,
    is_forbidden_free,
    triangles_free,
)
from .rng import SplitMix64
from .sgio import to_sg_text
from .spectra import (
    _diagonalise,
    _top_pair,
    char_poly_exact,
    index,
    poly_mul,
    poly_sub,
)

__all__ = [
    "ClassificationTag",
    "ClassEntry",
    "SearchReport",
    "VerifyReport",
    "classify",
    "enumerate_extremal",
    "local_search",
    "total_switching_classes",
    "verify_extremal",
    "verify_crossing",
    "verify_u1_gap",
    "verify_identities",
    "verify_spectral_bound",
    "spectral_bound_value",
]

ENUM_CAP = 7
BOUND_CAP = 6
LOCAL_SEARCH_CAP = 64
CLASS_TOL = 1e-9
IMPROVE_TOL = 1e-10
DEFAULT_POOL = 1024
MAX_STEPS = 400
SCREEN_GAP = 1e-6  # below this lambda_1 - lambda_2 the move screen solves every move
EIG_ERR = 1e-10  # allowance for the error of one computed eigenvalue (see _screen)
WORKERS_ENV = "SGX_WORKERS"


# ---------------------------------------------------------------------------
# slot geometry: vertex pairs in lexicographic order, one bit per pair

_PAIRS_CACHE: dict[int, tuple[tuple[tuple[int, int], ...], dict[tuple[int, int], int]]] = {}


def _pairs(n: int):
    if n not in _PAIRS_CACHE:
        ps = tuple((u, v) for u in range(n) for v in range(u + 1, n))
        _PAIRS_CACHE[n] = (ps, {p: k for k, p in enumerate(ps)})
    return _PAIRS_CACHE[n]


def _mask_graph(n: int, gmask: int, sigmask: int) -> SignedGraph:
    pairs, _ = _pairs(n)
    triples = []
    for k, (u, v) in enumerate(pairs):
        if gmask >> k & 1:
            triples.append((u, v, -1 if sigmask >> k & 1 else 1))
    return new_signed_graph(n, triples)


def _decode_adj(n: int, gmask: int):
    pairs, _ = _pairs(n)
    adj = [0] * n
    slots = []
    for k, (u, v) in enumerate(pairs):
        if gmask >> k & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            slots.append(k)
    return slots, adj


def _forest_residual(slots, adj, slot_of):
    """Lex-BFS spanning forest; returns (component count, residual slot list)."""
    parent, comp, _ = _bfs_forest(adj)
    forest = {slot_of[(p, v) if p < v else (v, p)] for v, p in enumerate(parent) if p >= 0}
    return max(comp) + 1, [k for k in slots if k not in forest]


def _forest_positive(n: int, gmask: int, sigmask: int) -> int:
    """The switched sign mask of (gmask, sigmask) whose lex-BFS forest edges
    are all positive: the residual form the scan enumerates."""
    pairs, slot_of = _pairs(n)
    slots, adj = _decode_adj(n, gmask)
    parent, _, order = _bfs_forest(adj)
    minus = 0  # vertices whose potential is -1
    for v in order:
        p = parent[v]
        if p >= 0 and (minus >> p ^ sigmask >> slot_of[(p, v) if p < v else (v, p)]) & 1:
            minus |= 1 << v
    out = 0
    for k in slots:
        if (sigmask >> k ^ minus >> pairs[k][0] ^ minus >> pairs[k][1]) & 1:
            out |= 1 << k
    return out


def _balanced(n: int, gmask: int, sigmask: int) -> bool:
    """Mask form of core.is_balanced: switching the lex-BFS forest positive
    leaves no negative edge."""
    return _forest_positive(n, gmask, sigmask) == 0


# ---------------------------------------------------------------------------
# relabelling: graphs up to isomorphism and labeled orbits

_PERMS_CACHE: dict[int, list[tuple[int, ...]]] = {}
_GRAPHS_CACHE: dict[int, tuple[int, ...]] = {}


def _map_mask(mask: int, image) -> int:
    """The slot mask with bit image[k] set for every bit k of mask."""
    out = 0
    while mask:
        b = mask & -mask
        out |= 1 << image[b.bit_length() - 1]
        mask ^= b
    return out


def _slot_perms(n: int) -> list[tuple[int, ...]]:
    """For each of the n! vertex maps p, the image slot of every slot."""
    if n not in _PERMS_CACHE:
        pairs, slot_of = _pairs(n)
        _PERMS_CACHE[n] = [
            tuple(slot_of[(p[u], p[v]) if p[u] < p[v] else (p[v], p[u])] for u, v in pairs)
            for p in permutations(range(n))
        ]
    return _PERMS_CACHE[n]


def _canonical_mask(n: int, gmask: int) -> int:
    """Isomorphism-invariant labeling of the graph gmask: the minimum slot
    mask over the labelings that give the cells of the iterated degree
    refinement consecutive labels, cells in order of their colour."""
    _, adj = _decode_adj(n, gmask)
    nbrs = [[w for w in range(n) if a >> w & 1] for a in adj]
    color = [0] * n
    ncolors = 1
    while True:
        keys = [(color[v], tuple(sorted(color[w] for w in nbrs[v]))) for v in range(n)]
        rank = {key: i for i, key in enumerate(sorted(set(keys)))}
        if len(rank) == ncolors:
            break
        color = [rank[key] for key in keys]
        ncolors = len(rank)
    cells = [[v for v in range(n) if color[v] == c] for c in range(ncolors)]
    pairs, slot_of = _pairs(n)
    bit = [[0] * n for _ in range(n)]
    for (a, b), k in slot_of.items():
        bit[a][b] = bit[b][a] = 1 << k
    edges = [pairs[k] for k in range(len(pairs)) if gmask >> k & 1]
    best = None
    perm = [0] * n
    for choice in product(*(permutations(cell) for cell in cells)):
        label = 0
        for cell in choice:
            for v in cell:
                perm[v] = label
                label += 1
        mask = 0
        for u, v in edges:
            mask |= bit[perm[u]][perm[v]]
        if best is None or mask < best:
            best = mask
    return best


def _graphs(n: int) -> tuple[int, ...]:
    """Canonical slot masks of the graphs on n vertices, one per isomorphism
    class, ascending; grown from the graphs on n - 1 vertices by adding
    vertex n - 1 with every neighbourhood."""
    if n not in _GRAPHS_CACHE:
        if n <= 1:
            _GRAPHS_CACHE[n] = (0,)
        else:
            _, slot_of = _pairs(n)
            smaller, _ = _pairs(n - 1)
            embed = [slot_of[p] for p in smaller]
            star = [slot_of[(u, n - 1)] for u in range(n - 1)]
            out = set()
            for g in _graphs(n - 1):
                base = _map_mask(g, embed)
                for nb in range(1 << (n - 1)):
                    out.add(_canonical_mask(n, base | _map_mask(nb, star)))
            _GRAPHS_CACHE[n] = tuple(sorted(out))
    return _GRAPHS_CACHE[n]


def _orbit(n: int, gmask: int, sigmask: int) -> set[tuple[int, int]]:
    """Every labeled copy of the switching class of (gmask, sigmask), each
    as (gmask, forest-positive sign mask)."""
    cosets: dict[int, tuple[int, ...]] = {}  # image graph -> one map onto it
    autos = []
    for image in _slot_perms(n):
        g2 = _map_mask(gmask, image)
        cosets.setdefault(g2, image)
        if g2 == gmask:
            autos.append(image)
    sigs = {_forest_positive(n, gmask, _map_mask(sigmask, a)) for a in autos}
    return {
        (g2, _forest_positive(n, g2, _map_mask(s, image)))
        for g2, image in cosets.items()
        for s in sigs
    }


def _residual_signatures(residual):
    """Every nonzero sign assignment on the residual slots, as a slot mask,
    in counting order over ``residual``."""
    res_bits = [1 << k for k in residual]
    for s in range(1, 1 << len(residual)):
        sig = 0
        while s:
            b = s & -s
            sig |= res_bits[b.bit_length() - 1]
            s ^= b
        yield sig


def _triangle_masks(slots, adj, slot_of, pairs):
    """One (slot mask, vertex triple u < v < w) per triangle, grouped by its
    first edge uv in ``slots`` order."""
    tris = []
    for k in slots:
        u, v = pairs[k]
        common = (adj[u] & adj[v]) >> (v + 1)
        w = v + 1
        while common:
            if common & 1:
                tris.append(((1 << k) | (1 << slot_of[(u, w)]) | (1 << slot_of[(v, w)]), (u, v, w)))
            common >>= 1
            w += 1
    return tris


def _unbalanced(sigmask: int, tris) -> list[tuple[int, int, int]]:
    """The triples of ``tris`` that sigmask makes unbalanced: an odd number
    of negative slots."""
    return [tri for tm, tri in tris if (sigmask & tm).bit_count() & 1]


def _rows(n: int, gmask: int, sigmask: int) -> list[list[float]]:
    """Adjacency matrix of the signed graph (gmask, sigmask), as float rows."""
    pairs, _ = _pairs(n)
    rows = [[0.0] * n for _ in range(n)]
    for k, (u, v) in enumerate(pairs):
        if gmask >> k & 1:
            rows[u][v] = rows[v][u] = -1.0 if sigmask >> k & 1 else 1.0
    return rows


def _eig_extremes(n: int, gmask: int, sigmask: int) -> tuple[float, float]:
    """(lambda_1, lambda_n) of the signed graph (gmask, sigmask)."""
    diag = _diagonalise(_rows(n, gmask, sigmask), n)
    return max(diag), min(diag)


# ---------------------------------------------------------------------------
# visited totals, exactly and in O(n^2): sum over labeled graphs of
# 2^(m - n + c) via the exponential formula on (edges, components) counts


def total_switching_classes(n: int) -> int:
    """Sum of 2^(m - n + c) over all labeled graphs on n vertices (exact)."""
    conn = [0] * (n + 1)  # sum of 2^m over connected labeled graphs on k vertices
    for k in range(1, n + 1):
        total = 3 ** math.comb(k, 2)
        for j in range(1, k):
            total -= math.comb(k - 1, j - 1) * conn[j] * 3 ** math.comb(k - j, 2)
        conn[k] = total
    b = [1] * (n + 1)  # sum of 2^(m + c) over all labeled graphs on k vertices
    for k in range(1, n + 1):
        b[k] = sum(
            math.comb(k - 1, j - 1) * 2 * conn[j] * b[k - j] for j in range(1, k + 1)
        )
    total, rem = divmod(b[n], 1 << n)
    if rem:
        raise ArithmeticError("class total not divisible by 2^n")
    return total


# ---------------------------------------------------------------------------
# range scan (one worker)


def _hong(n: int, gmask: int) -> float:
    """sqrt(2m - n' + 1) (at least 1): Hong's bound on the index of the
    underlying graph, n' its non-isolated vertices."""
    _, adj = _decode_adj(n, gmask)
    support = sum(1 for a in adj if a)
    return math.sqrt(max(2 * gmask.bit_count() - support + 1, 1))


def _scan_extremal_range(args):
    """Top ``pool_cap`` representatives (index, gmask, sigmask) over the
    generated graphs ``_graphs(n)[lo:hi]``, plus the scan counters."""
    (n, kind, t, lo, hi, pool_cap) = args
    pairs, slot_of = _pairs(n)
    order = sorted(((_hong(n, g), g) for g in _graphs(n)[lo:hi]), key=lambda e: (-e[0], e[1]))

    pool: list[tuple[float, int, int]] = []
    theta = -math.inf
    full = False
    stats = {"graphs_eig": 0, "graphs_enum": 0, "classes_enum": 0, "survivors": 0}

    def flush():
        nonlocal theta, full
        pool.sort(key=lambda e: (-e[0], e[1], e[2]))
        del pool[pool_cap:]
        full = len(pool) == pool_cap
        if full:
            theta = pool[-1][0]

    spec = ForbiddenSpec(kind, t)

    for h, gmask in order:
        if full and h < theta - CLASS_TOL:
            break
        if gmask == 0:
            continue
        lam_g, _ = _eig_extremes(n, gmask, 0)
        stats["graphs_eig"] += 1
        if full and lam_g < theta - CLASS_TOL:
            continue
        slots, adj = _decode_adj(n, gmask)
        _, residual = _forest_residual(slots, adj, slot_of)
        r = len(residual)
        if r == 0:
            continue  # forests carry a single, balanced switching class
        tris = _triangle_masks(slots, adj, slot_of, pairs)
        stats["graphs_enum"] += 1
        stats["classes_enum"] += 1 << r
        for sig in _residual_signatures(residual):
            if not triangles_free(n, _unbalanced(sig, tris), spec):
                continue
            lam, _ = _eig_extremes(n, gmask, sig)
            stats["survivors"] += 1
            if full and lam < theta - CLASS_TOL:
                continue
            pool.append((lam, gmask, sig))
            if len(pool) >= 2 * pool_cap or (not full and len(pool) >= pool_cap):
                flush()
    flush()
    return pool, stats


def _resolve_workers(workers) -> int:
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        workers = int(env) if env else 1
    if workers < 1:
        raise ValueError("worker count must be >= 1")
    return workers


# ---------------------------------------------------------------------------
# classification against the named families


@dataclass(frozen=True)
class ClassificationTag:
    """Family membership of a switching-isomorphism class.

    ``gamma(n, n)`` doubles as the single-negative-edge complete graph.
    """

    kind: str  # "gamma" | "sigma" | "u1" | "other"
    params: tuple[int, ...] = ()

    def __str__(self) -> str:
        if self.kind == "other":
            return "other"
        return f"{self.kind}({', '.join(str(p) for p in self.params)})"


def classify(g: SignedGraph) -> ClassificationTag:
    """Match a graph against the gamma/sigma/u1 grids consistent with its
    order, size and unbalanced-triangle count; ``other`` when nothing fits."""
    if g.n > ISO_SIZE_LIMIT:
        raise ValueError(f"classify capped at n={ISO_SIZE_LIMIT}, got n={g.n}")
    n, m = g.n, g.m
    cnt = count_unbalanced_triangles(g)

    t = cnt + 2
    if n >= 4 and 3 <= t <= n and m == math.comb(n - 1, 2) + t - 1:
        if is_switching_isomorphic(g, gamma(n, t)):
            return ClassificationTag("gamma", (n, t))
    t = cnt
    if t >= 1 and n - t - 2 >= 0 and m == math.comb(n - 2, 2) + n + t - 1 and n >= 5:
        for s in range(0, n - t - 1):
            r = n - t - 2 - s
            if is_switching_isomorphic(g, sigma(s, t, r)):
                return ClassificationTag("sigma", (s, t, r))
    if n >= 5 and cnt == n - 3 and m == math.comb(n - 2, 2) + 2 * (n - 3) + 1:
        if is_switching_isomorphic(g, u1(n)):
            return ClassificationTag("u1", (n,))
    return ClassificationTag("other")


# ---------------------------------------------------------------------------
# reports


@dataclass
class ClassEntry:
    index: float
    unbalanced_triangles: int
    graph: SignedGraph
    tag: ClassificationTag
    multiplicity: int

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "unbalanced_triangles": self.unbalanced_triangles,
            "tag": str(self.tag),
            "multiplicity": self.multiplicity,
            "graph_sg": to_sg_text(self.graph),
        }


@dataclass
class SearchReport:
    """Ranked extremal classes plus totals.

    ``to_json_dict(canonical=True)`` drops the wall-time field; canonical
    reports are byte-identical across runs and worker counts.  "Visited"
    totals count the whole covered space, including graphs discarded by the
    sound spectral bound.  ``scan_stats`` holds the run's counters: for
    enumeration, the scan counters summed over workers and pool rounds,
    labeled copies expanded and pool rounds, which depend on the worker
    count; for local search, summed over restarts, the steps, feasible
    moves, solved moves, screen eigendecompositions and states checked
    against the excluded classes, where the solved moves may depend on the
    LAPACK build.  They are shown in the table footer and kept out of the
    JSON.
    """

    mode: str
    n: int
    forbidden: str
    top_k: int
    entries: list[ClassEntry]
    graphs_visited: int | None = None
    classes_visited: int | None = None
    seed: int | None = None
    restarts: int | None = None
    excluded: list[str] = field(default_factory=list)
    restart_best_indices: list[float | None] | None = None
    notes: list[str] = field(default_factory=list)
    scan_stats: dict[str, int] | None = None
    wall_time_s: float = 0.0

    def to_json_dict(self, canonical: bool = False) -> dict:
        out = {
            "schema": "sgx/1",
            "mode": self.mode,
            "n": self.n,
            "forbidden": self.forbidden,
            "top_k": self.top_k,
            "entries": [e.to_json_dict() for e in self.entries],
        }
        for key in ("graphs_visited", "classes_visited", "seed", "restarts"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        if self.excluded:
            out["excluded"] = list(self.excluded)
        if self.restart_best_indices is not None:
            out["restart_best_indices"] = self.restart_best_indices
        if self.notes:
            out["notes"] = list(self.notes)
        if not canonical:
            out["wall_time_s"] = self.wall_time_s
        return out

    def render_table(self) -> str:
        lines = [
            f"mode={self.mode} n={self.n} forbid={self.forbidden} "
            f"classes={len(self.entries)} wall={self.wall_time_s:.2f}s"
        ]
        if self.graphs_visited is not None:
            lines.append(
                f"graphs visited: {self.graphs_visited}   "
                f"classes visited: {self.classes_visited}"
            )
        if self.restarts is not None:
            lines.append(f"seed={self.seed} restarts={self.restarts}")
        lines.append(f"{'rank':>4}  {'index':>15}  {'tris':>4}  {'mult':>5}  tag")
        for i, e in enumerate(self.entries, 1):
            lines.append(
                f"{i:>4}  {e.index:>15.9f}  {e.unbalanced_triangles:>4}  "
                f"{e.multiplicity:>5}  {e.tag}"
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        st = self.scan_stats
        if st is not None and self.mode == "local-search":
            lines.append(
                f"search: steps {st['steps']}  moves feasible {st['moves_feasible']}  "
                f"moves solved {st['moves_solved']}  "
                f"screen eigendecompositions {st['screen_eighs']}  "
                f"exclusion checks {st['exclusion_checks']}"
            )
        elif st is not None:
            lines.append(
                f"scan: graphs diagonalised {st['graphs_eig']}  "
                f"graphs enumerated {st['graphs_enum']}  classes filtered {st['classes_enum']}  "
                f"survivors {st['survivors']}  labeled copies {st['copies_expanded']}  "
                f"pool rounds {st['pool_rounds']}"
            )
        return "\n".join(lines)


@dataclass
class VerifyReport:
    """Outcome of one verification target: per-row results plus a verdict."""

    target: str
    ok: bool
    rows: list[dict]
    notes: list[str] = field(default_factory=list)
    wall_time_s: float = 0.0

    def to_json_dict(self, canonical: bool = False) -> dict:
        out = {
            "schema": "sgx/1",
            "target": self.target,
            "ok": self.ok,
            "rows": self.rows,
        }
        if self.notes:
            out["notes"] = list(self.notes)
        if not canonical:
            out["wall_time_s"] = self.wall_time_s
        return out

    def render_table(self) -> str:
        lines = [f"verify {self.target}: {'PASS' if self.ok else 'FAIL'} "
                 f"({self.wall_time_s:.2f}s)"]
        if self.rows:
            cols = list(self.rows[0].keys())
            lines.append("  ".join(str(c) for c in cols))
            for row in self.rows:
                lines.append("  ".join(str(row.get(c, "")) for c in cols))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# exhaustive enumeration


def _dedupe_pool(pool, n: int, top_k: int):
    """Merge a sorted candidate pool into switching-isomorphism classes.

    Walks entries in decreasing index order; an entry joins an existing class
    only when the indices agree to CLASS_TOL and an exact switching
    isomorphism exists.  Returns (classes, complete): complete means the walk
    passed strictly below the top_k-th class band, so every copy and every
    cohabitant of the reported classes was seen.
    """
    classes: list[dict] = []
    complete = False
    for lam, gm, sm in pool:
        if len(classes) >= top_k and lam < classes[top_k - 1]["index"] - CLASS_TOL:
            complete = True
            break
        g = _mask_graph(n, gm, sm)
        placed = False
        for cl in classes:
            if abs(cl["index"] - lam) <= CLASS_TOL and is_switching_isomorphic(
                g, cl["graph"]
            ):
                cl["mult"] += 1
                placed = True
                break
        if not placed:
            classes.append({"index": lam, "graph": g, "mult": 1})
    return classes, complete


def _reachable_copies(pool, n: int, top_k: int, full: bool):
    """The labeled copies of every class the report can reach, or None when
    the representative pool is full and does not reach below the band.

    Walks the sorted representative pool; a representative already among
    the copies of an earlier one is the same class.  The band starts
    2 * CLASS_TOL below the top_k-th class.
    """
    copies: set[tuple[int, int]] = set()
    classes = 0
    band = -math.inf
    for lam, gm, sm in pool:
        if lam < band:
            return copies
        if (gm, sm) in copies:
            continue
        copies |= _orbit(n, gm, sm)
        classes += 1
        if classes == top_k:
            band = lam - 2 * CLASS_TOL
    return None if full else copies


def enumerate_extremal(
    n: int,
    spec: ForbiddenSpec,
    top_k: int = 1,
    workers: int | None = None,
) -> SearchReport:
    """Top switching-isomorphism classes by index over all spec-free
    unbalanced signed graphs of order n (exhaustive, deterministic)."""
    if n > ENUM_CAP:
        raise ValueError(f"exhaustive enumeration capped at n={ENUM_CAP}, got n={n}")
    if n < 3:
        raise ValueError("need n >= 3 for any unbalanced signed graph")
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    workers = _resolve_workers(workers)
    t0 = time.perf_counter()
    ngraphs = len(_graphs(n))
    bounds = [(ngraphs * w // workers, ngraphs * (w + 1) // workers) for w in range(workers)]
    stats: dict[str, int] = {}

    cap = DEFAULT_POOL
    for rounds in range(1, 5):
        tasks = [(n, spec.kind, spec.t, lo, hi, cap) for lo, hi in bounds if lo < hi]
        procs = min(workers, len(tasks), os.cpu_count() or 1)
        if procs == 1:
            results = [_scan_extremal_range(task) for task in tasks]
        else:
            with ProcessPoolExecutor(max_workers=procs) as ex:
                results = list(ex.map(_scan_extremal_range, tasks))
        for _, st in results:
            for key, val in st.items():
                stats[key] = stats.get(key, 0) + val
        pool = [e for p, _ in results for e in p]
        pool.sort(key=lambda e: (-e[0], e[1], e[2]))
        del pool[cap:]
        copies = _reachable_copies(pool, n, top_k, len(pool) == cap)
        if copies is not None:
            break
        cap *= 4
    else:
        raise RuntimeError(
            "candidate pool too small after four attempts of growing size; raise DEFAULT_POOL"
        )
    labeled = sorted(
        ((_eig_extremes(n, gm, sm)[0], gm, sm) for gm, sm in copies),
        key=lambda e: (-e[0], e[1], e[2]),
    )
    classes, _ = _dedupe_pool(labeled, n, top_k)
    stats["copies_expanded"] = len(labeled)
    stats["pool_rounds"] = rounds

    entries = []
    for cl in classes:
        g = cl["graph"]
        if is_balanced(g) or not is_forbidden_free(g, spec):
            raise AssertionError("enumerated class violates its own filter")
        entries.append(
            ClassEntry(
                index=cl["index"],
                unbalanced_triangles=count_unbalanced_triangles(g),
                graph=g,
                tag=classify(g),
                multiplicity=cl["mult"],
            )
        )
    return SearchReport(
        mode="exhaustive",
        n=n,
        forbidden=str(spec),
        top_k=top_k,
        entries=entries,
        graphs_visited=1 << (n * (n - 1) // 2),
        classes_visited=total_switching_classes(n),
        scan_stats=stats,
        notes=[
            "exhaustive over all labeled graphs; switching classes enumerated "
            "as residual sign assignments on a positive spanning forest"
        ],
        wall_time_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# spectral-radius bound check over connected triangle-clean graphs


def spectral_bound_value(n: int) -> float:
    return 0.5 * (math.sqrt(n * n - 8.0) + n - 4.0)


def verify_spectral_bound(n: int) -> VerifyReport:
    """Check rho <= (sqrt(n^2-8)+n-4)/2 over every connected unbalanced
    signed graph of order n with no unbalanced triangle.

    Graphs whose underlying index already sits below the bound pass by
    entrywise dominance (rho of any signature <= index of the underlying
    graph) and are not diagonalized individually.
    """
    if n > BOUND_CAP:
        raise ValueError(f"bound verification capped at n={BOUND_CAP}, got n={n}")
    if n < 3:
        raise ValueError("need n >= 3")
    t0 = time.perf_counter()
    bound = spectral_bound_value(n)
    pairs, slot_of = _pairs(n)
    stats = {
        "connected_graphs": 0,
        "classes_total": 0,
        "classes_bounded_trivially": 0,
        "rho_evaluations": 0,
    }
    max_rho = 0.0
    witness = None
    violations = []
    c3 = ForbiddenSpec("c3")
    for gmask in range(1, 1 << len(pairs)):
        slots, adj = _decode_adj(n, gmask)
        c, residual = _forest_residual(slots, adj, slot_of)
        if c != 1:
            continue
        stats["connected_graphs"] += 1
        r = len(residual)
        if r == 0:
            continue  # trees are balanced under every signature
        stats["classes_total"] += 1 << r
        lam_g, _ = _eig_extremes(n, gmask, 0)
        if lam_g <= bound + CLASS_TOL:
            stats["classes_bounded_trivially"] += 1 << r
            continue
        tris = _triangle_masks(slots, adj, slot_of, pairs)
        for sig in _residual_signatures(residual):
            if not triangles_free(n, _unbalanced(sig, tris), c3):
                continue
            mx, mn = _eig_extremes(n, gmask, sig)
            rho = max(mx, -mn)
            stats["rho_evaluations"] += 1
            if rho > max_rho:
                max_rho = rho
                witness = (gmask, sig)
            if rho > bound + CLASS_TOL:
                violations.append(
                    {"rho": rho, "graph_sg": to_sg_text(_mask_graph(n, gmask, sig))}
                )
    row = {
        "n": n,
        "bound": bound,
        "max_rho_evaluated": max_rho,
        "violations": len(violations),
        **stats,
    }
    notes = ["classes under the underlying-index dominance bound pass without "
             "individual diagonalization"]
    if witness is not None:
        flat = to_sg_text(_mask_graph(n, *witness)).strip().replace("\n", "; ")
        notes.append(f"largest rho evaluated on: {flat}")
    if violations:
        notes.append(f"violating classes: {violations}")
    return VerifyReport(
        target="c3bound",
        ok=not violations,
        rows=[row],
        notes=notes,
        wall_time_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# seeded stochastic search


def _state_index(n: int, gmask: int, sigmask: int) -> float:
    """Index (lambda_1) of a local-search state."""
    return _eig_extremes(n, gmask, sigmask)[0]


def _tri_delta(adj, neg, u: int, v: int, new: int | None) -> int:
    """Bitmask of the vertices w whose triangle uvw is unbalanced once edge
    (u,v) carries sign ``new`` (None: absent).

    ``adj`` and ``neg`` are the neighbor bitmasks of all edges and of the
    negative ones; triangle uvw is unbalanced iff the sign of uv differs from
    the sign of the path u-w-v.
    """
    if new is None:
        return 0
    common = adj[u] & adj[v]
    odd = common & (neg[u] ^ neg[v])  # negative paths u-w-v
    return odd if new == 1 else common ^ odd


def _moves(n: int, gmask: int, sigmask: int, tris):
    """Every delete/flip or add(+)/add(-) move from the state (gmask, sigmask)
    with unbalanced triangles ``tris``, in slot order, as the candidate's
    (gmask, sigmask, unbalanced triangles).  The lists are lex sorted."""
    pairs, _ = _pairs(n)
    _, adj = _decode_adj(n, gmask)
    _, neg = _decode_adj(n, gmask & sigmask)
    for k, (u, v) in enumerate(pairs):
        bit = 1 << k
        kept = [tri for tri in tris if u not in tri or v not in tri]
        news = (None, 1 if sigmask & bit else -1) if gmask & bit else (1, -1)
        for new in news:
            cand = list(kept)
            ws = _tri_delta(adj, neg, u, v, new)
            while ws:
                w = (ws & -ws).bit_length() - 1
                ws &= ws - 1
                cand.append(tuple(sorted((u, v, w))))
            cand.sort()
            yield (
                gmask & ~bit if new is None else gmask | bit,
                sigmask | bit if new == -1 else sigmask & ~bit,
                cand,
            )


def _random_state(n: int, spec: ForbiddenSpec, rng: SplitMix64):
    """A feasible start state (gmask, sigmask, unbalanced triangles, index).

    The repair picks among unbalanced triangles grouped by their first edge
    in edge insertion order: edges the repair adds go last, and a deleted
    edge loses its place.  That order is part of the seeded draw sequence.
    """
    pairs, slot_of = _pairs(n)
    for _reset in range(64):
        p = 0.25 + 0.6 * rng.unit()
        gmask = sig = 0
        for k in range(len(pairs)):
            if rng.unit() < p:
                gmask |= 1 << k
                if rng.unit() < 0.25:
                    sig |= 1 << k
        inserted = [k for k in range(len(pairs)) if gmask >> k & 1]
        for _repair in range(400):
            slots, adj = _decode_adj(n, gmask)
            if _balanced(n, gmask, sig):
                if slots and rng.unit() < 0.8:
                    sig ^= 1 << slots[rng.below(len(slots))]
                else:
                    absent = [k for k in range(len(pairs)) if not gmask >> k & 1]
                    if not absent:
                        break
                    k = absent[rng.below(len(absent))]
                    gmask |= 1 << k
                    sig |= 1 << k
                    inserted.append(k)
                continue
            bad = _unbalanced(sig, _triangle_masks(inserted, adj, slot_of, pairs))
            if triangles_free(n, bad, spec):
                return gmask, sig, sorted(bad), _state_index(n, gmask, sig)
            # too many forbidden pages: delete or flip an edge of some unbalanced triangle
            a, b, c = bad[rng.below(len(bad))]
            bit = 1 << slot_of[((a, b), (a, c), (b, c))[rng.below(3)]]
            if rng.unit() < 0.5:
                gmask ^= bit
                sig &= ~bit
                inserted.remove(bit.bit_length() - 1)
            else:
                sig ^= bit
    raise RuntimeError("could not seed a feasible start state")


def _screen(n: int, gmask: int, sigmask: int):
    """Upper bounds on the index after one move from the state (gmask,
    sigmask): ``(bound, margin)`` such that every candidate (cand_g, cand_s)
    that differs from the state in one slot has a Jacobi index of at most
    ``bound(cand_g, cand_s) + margin``.

    Bound.  Let A be the state's matrix, with top eigenvalues lambda_1 >=
    lambda_2 and unit top eigenvector x.  A move on slot uv adds
    E = d (e_u e_v^T + e_v e_u^T), d = new sign - old sign (absent = 0), so
    |d| <= 2 and ||E|| = |d|.  Write a unit vector y = alpha x + beta z with
    z orthogonal to x.  Then x^T (A + E) x = lambda_1 + a, a = 2 d x_u x_v;
    |z^T (A + E) x| = |z^T E x| <= b, b^2 = ||E x||^2 - a^2
    = d^2 (x_u^2 + x_v^2) - a^2; and z^T (A + E) z <= lambda_2 + |d| (Weyl
    on the complement of x).  So lambda_1(A + E) = max y^T (A + E) y is at
    most the top eigenvalue of [[lambda_1 + a, b], [b, lambda_2 + |d|]],
    which is ``bound``.  It costs O(1) per move once x is known.

    Margin.  lambda_1, lambda_2 and x come from one LAPACK call
    (``spectra._top_pair``), so they are approximate.  Let e = EIG_ERR bound
    the error of a computed eigenvalue (LAPACK's backward error, about
    n * eps * ||A|| < 1e-12 for n <= 64; the Jacobi kernel's, its 1e-12
    off-diagonal tolerance plus rotation rounding of the same order) and of
    the rounding in forming a, b and the 2 x 2 root.  With r = A x -
    lambda_1 x and rho = ||r||: x^T A x = lambda_1 + x^T r gains at most
    rho, z^T A x = z^T r at most rho, and the true lambda_2 exceeds the
    computed one by at most e.  For z orthogonal to the computed x,
    z^T A z <= lambda_2 + sin^2(theta) (lambda_1 - lambda_2), theta the
    angle between the computed and the true top eigenvector; by Davis and
    Kahan's sin theta theorem sin(theta) <= rho / (gap - e), gap the
    computed lambda_1 - lambda_2, and lambda_1 - lambda_2 <= gap + rho + e.
    The top eigenvalue of a 2 x 2 matrix grows by at most the sum of its
    entry increments (Weyl), and the solved index exceeds the true one by at
    most e, so margin = 2 rho + 2 e + sin^2(theta) (gap + rho + e).

    When gap < SCREEN_GAP, x is ill-conditioned and every bound is +inf:
    every move is solved.
    """
    lam1, lam2, x, rho = _top_pair(_rows(n, gmask, sigmask))
    gap = lam1 - lam2
    if gap < SCREEN_GAP:
        return (lambda cand_g, cand_s: math.inf), 0.0
    sin_theta = rho / (gap - EIG_ERR)
    margin = 2 * rho + 2 * EIG_ERR + sin_theta * sin_theta * (gap + rho + EIG_ERR)
    pairs, _ = _pairs(n)

    def bound(cand_g: int, cand_s: int) -> float:
        bit = (cand_g ^ gmask) | (cand_s ^ sigmask)
        u, v = pairs[bit.bit_length() - 1]
        d = (0 if not cand_g & bit else -1 if cand_s & bit else 1) - (
            0 if not gmask & bit else -1 if sigmask & bit else 1
        )
        a = 2 * d * x[u] * x[v]
        b2 = max(0.0, d * d * (x[u] * x[u] + x[v] * x[v]) - a * a)
        p, q = lam1 + a, lam2 + abs(d)
        return 0.5 * (p + q) + math.sqrt(0.25 * (p - q) * (p - q) + b2)

    return bound, margin


def _best_move(n: int, spec: ForbiddenSpec, st, is_excluded, stats: dict[str, int]):
    """The state one local-search step moves to from st, or None at a local
    maximum: of the feasible moves whose index exceeds st's by more than
    IMPROVE_TOL, the first one not excluded in (-index, move order).

    A move whose ``_screen`` bound plus margin is at most idx + IMPROVE_TOL
    cannot qualify and is never solved.  The rest are solved in decreasing
    bound order, ties in move order.  A qualifying solved move is checked
    against the exclusions once its index exceeds the next unsolved move's
    bound plus margin: then it precedes every unsolved move in
    (-index, move order), so the checks run in that order over the moves a
    step that solves every move would check, and the same move is taken.
    The LAPACK bits in the bound decide only which moves get solved, never
    which move is taken.
    """
    gmask, sig, tris, idx = st
    feasible = []
    for key, (cand_g, cand_s, cand_tris) in enumerate(_moves(n, gmask, sig, tris)):
        if not triangles_free(n, cand_tris, spec):
            continue
        # an unbalanced triangle already proves the candidate unbalanced
        if not cand_tris and _balanced(n, cand_g, cand_s):
            continue
        feasible.append((key, cand_g, cand_s, cand_tris))
    stats["steps"] += 1
    stats["moves_feasible"] += len(feasible)
    if not feasible:
        return None
    stats["screen_eighs"] += 1
    bound, margin = _screen(n, gmask, sig)
    ranked = []  # (-bound, move order, move) of the moves that may qualify
    for key, cand_g, cand_s, cand_tris in feasible:
        ub = bound(cand_g, cand_s)
        if ub > idx + IMPROVE_TOL - margin:
            ranked.append((-ub, key, (cand_g, cand_s, cand_tris)))
    ranked.sort(key=lambda r: r[:2])
    solved = []  # (-index, move order, state) of the qualifying solved moves, sorted
    checked = 0  # solved[:checked] are excluded
    for pos in range(len(ranked) + 1):
        limit = margin - ranked[pos][0] if pos < len(ranked) else -math.inf
        while checked < len(solved) and -solved[checked][0] > limit:
            cand = solved[checked][2]
            if not is_excluded(cand[0], cand[1]):
                return cand
            checked += 1
        if pos < len(ranked):
            _, key, (cand_g, cand_s, cand_tris) = ranked[pos]
            cand_idx = _state_index(n, cand_g, cand_s)
            stats["moves_solved"] += 1
            if cand_idx > idx + IMPROVE_TOL:
                item = (-cand_idx, key, (cand_g, cand_s, cand_tris, cand_idx))
                at = bisect.bisect(solved, item[:2])
                if at < checked:
                    raise AssertionError("move screen: a solved index exceeds its bound")
                solved.insert(at, item)
    return None


def local_search(
    n: int,
    spec: ForbiddenSpec,
    seed: int,
    restarts: int,
    exclude=(),
) -> SearchReport:
    """Seeded steepest-ascent hill climbing over add/delete/flip edge moves.

    Every accepted state is unbalanced and spec-free; each step takes the
    feasible move with the largest index gain, requiring a strict increase
    (tolerance 1e-10).  States switching-isomorphic to an excluded class are
    rejected as incumbents: the climb never occupies them, so it stalls at
    the best non-excluded state of the basin.  Evidence only: this search
    proves nothing about optimality.  Each step solves only the moves that
    can win (``_best_move``) and takes the move a step that solves every
    move takes; ``scan_stats`` holds the counters.
    """
    if not (3 <= n <= LOCAL_SEARCH_CAP):
        raise ValueError(f"local search supports 3 <= n <= {LOCAL_SEARCH_CAP}")
    if restarts < 1 or restarts > 10**6:
        raise ValueError("restarts must be in [1, 10^6]")
    excluded = list(exclude)
    for g in excluded:
        if g.n != n:
            raise ValueError(f"excluded graph has n={g.n}, but the search has n={n}")
    t0 = time.perf_counter()
    master = SplitMix64(seed)
    stats = dict.fromkeys(
        ("steps", "moves_feasible", "moves_solved", "screen_eighs", "exclusion_checks"), 0
    )

    global_best = None  # (gmask, sigmask, unbalanced triangles, index)
    restart_bests: list[float | None] = []

    def is_excluded(gmask: int, sigmask: int) -> bool:
        if not excluded:
            return False
        stats["exclusion_checks"] += 1
        g = _mask_graph(n, gmask, sigmask)
        return any(is_switching_isomorphic(g, ex) for ex in excluded)

    for _restart in range(restarts):
        rng = master.split()
        st = _random_state(n, spec, rng)
        for _resample in range(16):
            if not is_excluded(st[0], st[1]):
                break
            st = _random_state(n, spec, rng)
        else:
            raise RuntimeError("could not seed a start state outside the excluded classes")
        for _step in range(MAX_STEPS):
            nxt = _best_move(n, spec, st, is_excluded, stats)
            if nxt is None:
                break
            st = nxt
        restart_bests.append(st[3])
        if global_best is None or st[3] > global_best[3]:
            global_best = st

    entries = []
    if global_best is not None:
        g = _mask_graph(n, global_best[0], global_best[1])
        if is_balanced(g) or not is_forbidden_free(g, spec):
            raise AssertionError("search incumbent violates its own filter")
        mult = sum(
            1 for b in restart_bests if b is not None and abs(b - global_best[3]) <= CLASS_TOL
        )
        tag = classify(g) if n <= ISO_SIZE_LIMIT else ClassificationTag("other")
        entries.append(
            ClassEntry(
                index=global_best[3],
                unbalanced_triangles=count_unbalanced_triangles(g),
                graph=g,
                tag=tag,
                multiplicity=mult,
            )
        )
    return SearchReport(
        mode="local-search",
        n=n,
        forbidden=str(spec),
        top_k=1,
        entries=entries,
        seed=seed,
        restarts=restarts,
        excluded=[to_sg_text(g) for g in excluded],
        restart_best_indices=restart_bests,
        notes=[
            "stochastic hill-climbing evidence; multiplicity counts restarts whose "
            "best index ties the global best; not a proof of optimality"
        ],
        scan_stats=stats,
        wall_time_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# verifiers


def _q2_remainder_ok(n: int) -> bool:
    """(x+1) g_{n,n-2} - P_{Q2} == 4(n - x - 4), in exact integers."""
    return poly_sub(
        poly_mul((1, 1), g_poly(n, n - 2).coeffs), pq2_poly(n).coeffs
    ) == (4 * n - 16, -4)


def verify_identities(n_lo: int = 9, n_hi: int = 20) -> VerifyReport:
    """Exact polynomial identities tying the quotient matrices to the cubic.

    Checks, in exact integer arithmetic for every n in range and 3<=t<=n-3:
    the closed-form quintic/quartic match char_poly_exact of the displayed
    matrices, and the two remainder identities against (x+1)^2 g and (x+1) g.
    """
    if n_lo < 5 or n_lo > n_hi:
        raise ValueError("need 5 <= n_lo <= n_hi")
    t0 = time.perf_counter()
    rows = []
    ok = True
    for n in range(n_lo, n_hi + 1):
        q1_ok = rem1_ok = True
        for t in range(3, n - 2):
            if char_poly_exact(q1_matrix(n, t)).coeffs != pq1_poly(n, t).coeffs:
                q1_ok = False
            lhs = poly_sub(
                poly_mul(poly_mul((1, 1), (1, 1)), g_poly(n, t).coeffs),
                pq1_poly(n, t).coeffs,
            )
            rhs = ((t - 5) * (n - t - 1), 5 + 9 * t - 7 * n, 3 + 4 * t - 3 * n, 1)
            if lhs != rhs:
                rem1_ok = False
        q2_ok = char_poly_exact(q2_matrix(n)).coeffs == pq2_poly(n).coeffs
        rem2_ok = _q2_remainder_ok(n)
        row_ok = q1_ok and rem1_ok and q2_ok and rem2_ok
        ok = ok and row_ok
        rows.append(
            {"n": n, "q1": q1_ok, "q1_remainder": rem1_ok, "q2": q2_ok,
             "q2_remainder": rem2_ok, "ok": row_ok}
        )
    return VerifyReport("identities", ok, rows, wall_time_s=time.perf_counter() - t0)


def verify_crossing(n_lo: int, n_hi: int) -> VerifyReport:
    """Index comparison between gamma(n,t) and sigma(1,t-1,n-t-2).

    gamma wins for 3 <= t <= floor(n/2), sigma wins for larger t up to n-3;
    margins are reported and must exceed 1e-9.
    """
    if not (9 <= n_lo <= n_hi):
        raise ValueError("need 9 <= n_lo <= n_hi")
    t0 = time.perf_counter()
    rows = []
    ok = True
    for n in range(n_lo, n_hi + 1):
        half = n // 2
        min_margin = math.inf
        crossing = None
        row_ok = True
        for t in range(3, n - 2):
            ig = index(gamma(n, t))
            isig = index(sigma(1, t - 1, n - t - 2))
            margin = (ig - isig) if t <= half else (isig - ig)
            if ig > isig:
                crossing = t
            min_margin = min(min_margin, margin)
            if margin <= CLASS_TOL:
                row_ok = False
        row_ok = row_ok and crossing == half
        ok = ok and row_ok
        rows.append(
            {"n": n, "gamma_wins_through_t": crossing, "expected": half,
             "min_margin": min_margin, "ok": row_ok}
        )
    return VerifyReport("lq1", ok, rows, wall_time_s=time.perf_counter() - t0)


def verify_u1_gap(n_lo: int, n_hi: int) -> VerifyReport:
    """gamma(n, n-2) beats u1(n) in index for n >= 9; smaller n report-only.

    The exact remainder identity (x+1) g_{n,n-2} - P_{Q2} = 4(n - x - 4) is
    re-checked at every n before comparing indices numerically.
    """
    if not (5 <= n_lo <= n_hi):
        raise ValueError("need 5 <= n_lo <= n_hi")
    t0 = time.perf_counter()
    rows = []
    ok = True
    for n in range(n_lo, n_hi + 1):
        identity_ok = _q2_remainder_ok(n)
        gap = index(gamma(n, n - 2)) - index(u1(n))
        asserted = n >= 9
        row_ok = identity_ok and (gap > CLASS_TOL if asserted else True)
        ok = ok and row_ok
        rows.append(
            {"n": n, "gap": gap, "identity_ok": identity_ok,
             "asserted": asserted, "ok": row_ok}
        )
    notes = [] if n_lo >= 9 else ["rows with asserted=False sit below the asserted range n >= 9"]
    return VerifyReport("lqq1", ok, rows, notes, wall_time_s=time.perf_counter() - t0)


def verify_extremal(
    n: int,
    t_values=None,
    workers: int | None = None,
) -> VerifyReport:
    """Exhaustively confirm the extremal class for each threshold t.

    The expected winner is gamma(n, t+1) for 2 <= t <= n-2 and gamma(n, n)
    for t >= n-1; the check demands a unique top class, switching-isomorphic
    to the expected construction, with matching index to 1e-9.  For n < 6 the
    winner is reported without assertion.
    """
    if t_values is None:
        t_values = list(range(2, n + 2))
    t0 = time.perf_counter()
    rows = []
    ok = True
    asserted = n >= 6
    for t in t_values:
        spec = ForbiddenSpec("tc3", t)
        report = enumerate_extremal(n, spec, top_k=1, workers=workers)
        t_eff = min(t + 1, n) if t <= n - 2 else n
        expected = gamma(n, t_eff)
        expected_idx = index(expected)
        top = report.entries[0]
        unique = not any(
            e.index >= top.index - CLASS_TOL for e in report.entries[1:]
        )
        matches = is_switching_isomorphic(top.graph, expected)
        idx_ok = abs(top.index - expected_idx) <= CLASS_TOL
        row_ok = (unique and matches and idx_ok) if asserted else True
        ok = ok and row_ok
        rows.append(
            {
                "n": n,
                "t": t,
                "winner": str(top.tag),
                "expected": f"gamma({n}, {t_eff})",
                "winner_index": top.index,
                "expected_index": expected_idx,
                "unique_top": unique,
                "matches": matches,
                "ok": row_ok,
            }
        )
    notes = [] if asserted else ["n < 6 lies outside the verified range; reported without assertion"]
    return VerifyReport("thm1", ok, rows, notes, wall_time_s=time.perf_counter() - t0)
