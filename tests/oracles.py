"""Independent oracles used by the test suite.

Nothing here shares an algorithm with the code under test: polynomial roots
come from exact Sturm sequences over Fractions, maximum matchings from subset
search, and the switching-reduced enumerator is checked against a raw scan of
all 3^C(n,2) signed graphs.  The two exceptions are byte-identity oracles
that reuse the code under test's own slot-mask helpers and kernel, so that
the two paths differ in one decision only: ``labeled_enumerate`` (of the
isomorph-free enumerator) scans every labeled graph, and
``unscreened_local_search`` (of the screened local search) solves every
feasible move.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from sgx.core import (
    SignedGraph,
    is_balanced,
    is_switching_isomorphic,
    new_signed_graph,
    switching_normal_form,
    switching_representative,
)
from sgx.forbidden import (
    ForbiddenSpec,
    count_unbalanced_triangles,
    is_forbidden_free,
    triangles_free,
)
from sgx.spectra import eigenvalues_symmetric

# ---------------------------------------------------------------------------
# exact polynomial real roots (Sturm bisection over Fractions)


def _strip(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _deriv(p):
    return _strip([i * c for i, c in enumerate(p)][1:] or [0])


def _eval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _divmod(a, b):
    a = [Fraction(c) for c in _strip(a)]
    b = [Fraction(c) for c in _strip(b)]
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - len(b)
        coef = a[-1] / b[-1]
        q[shift] = coef
        for i, bc in enumerate(b):
            a[shift + i] -= coef * bc
        a.pop()
    return _strip(q), _strip(a)


def _gcd(a, b):
    a, b = _strip(a), _strip(b)
    while b != [0] and any(b):
        _, r = _divmod(a, b)
        a, b = b, r if any(r) else [0]
    lead = a[-1]
    return [c / lead for c in a] if lead != 0 else a


def _sturm_chain(p):
    chain = [_strip(p), _deriv(p)]
    while len(chain[-1]) > 1 or chain[-1][0] != 0:
        _, r = _divmod(chain[-2], chain[-1])
        if not any(r):
            break
        chain.append([-c for c in r])
    return chain


def _sign_changes(chain, x):
    signs = []
    for p in chain:
        v = _eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _distinct_real_roots(p, prec=Fraction(1, 10**15)):
    """All distinct real roots of a square-free polynomial, as Fractions."""
    p = _strip(p)
    if len(p) <= 1:
        return []
    bound = Fraction(1) + max(abs(Fraction(c) / p[-1]) for c in p[:-1])
    chain = _sturm_chain(p)

    def safe_mid(lo, hi):
        for k in range(16):
            cand = lo + (hi - lo) * Fraction(32 + k, 64)
            if _eval(p, cand) != 0:
                return cand
        raise ArithmeticError("could not find a non-root midpoint")

    roots = []

    def isolate(lo, hi):
        k = _sign_changes(chain, lo) - _sign_changes(chain, hi)
        if k == 0:
            return
        if k == 1:
            roots.append(refine(lo, hi))
            return
        mid = safe_mid(lo, hi)
        isolate(lo, mid)
        isolate(mid, hi)

    def refine(lo, hi):
        flo = _eval(p, lo)
        for _ in range(2000):
            if hi - lo < prec:
                break
            mid = (lo + hi) / 2
            fm = _eval(p, mid)
            if fm == 0:
                return mid
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        return (lo + hi) / 2

    lo = -bound
    while _eval(p, lo) == 0:
        lo -= 1
    hi = bound
    while _eval(p, hi) == 0:
        hi += 1
    isolate(lo, hi)
    return sorted(roots)


def real_roots_with_multiplicity(p):
    """Real roots of p (exact coefficients) with multiplicities, descending."""
    p = [Fraction(c) for c in _strip(p)]
    if len(p) <= 1:
        return []
    g = _gcd(p, _deriv(p))
    sf, rem = _divmod(p, g)
    assert not any(rem), "square-free division must be exact"
    inner = real_roots_with_multiplicity(g) if len(g) > 1 else []
    out = []
    for r in _distinct_real_roots(sf):
        mult = 1
        for r2, m2 in inner:
            if abs(float(r) - r2) < 1e-7:
                mult += m2
                break
        out.append((float(r), mult))
    out.sort(reverse=True)
    return out


def real_root_multiset(p):
    flat = []
    for r, m in real_roots_with_multiplicity(p):
        flat.extend([r] * m)
    flat.sort(reverse=True)
    return flat


# ---------------------------------------------------------------------------
# brute-force maximum matching (subset search)


def brute_matching_size(n, edges):
    edges = list(edges)
    for size in range(len(edges), 0, -1):
        for sub in combinations(edges, size):
            used = set()
            ok = True
            for u, v in sub:
                if u in used or v in used:
                    ok = False
                    break
                used.add(u)
                used.add(v)
            if ok:
                return size
    return 0


# ---------------------------------------------------------------------------
# cycle enumeration


def all_cycles(g: SignedGraph):
    """Every simple cycle as a vertex sequence starting at its minimum vertex."""
    cycles = []

    def dfs(path, visited):
        u = path[-1]
        for w in g.neighbors(u):
            if w == path[0] and len(path) >= 3:
                if path[1] < path[-1]:  # one direction per cycle
                    cycles.append(tuple(path))
            elif w not in visited and w > path[0]:
                visited.add(w)
                path.append(w)
                dfs(path, visited)
                path.pop()
                visited.remove(w)

    for start in range(g.n):
        dfs([start], {start})
    return cycles


def fundamental_cycles(g: SignedGraph):
    """One cycle per non-forest edge, through the BFS forest."""
    nf = switching_normal_form(g)
    parent = nf.parent

    def path_to_root(v):
        out = [v]
        while parent[out[-1]] >= 0:
            out.append(parent[out[-1]])
        return out

    cycles = []
    for u, v, _s in nf.residual:
        pu, pv = path_to_root(u), path_to_root(v)
        set_pu = {x: i for i, x in enumerate(pu)}
        j = next(i for i, x in enumerate(pv) if x in set_pu)
        lca = pv[j]
        cyc = pu[: set_pu[lca] + 1] + pv[:j][::-1]
        if len(cyc) >= 3:
            cycles.append(cyc)
    return cycles


# ---------------------------------------------------------------------------
# naive full enumeration over raw signatures (the coverage oracle)


def naive_enumerate(n: int, spec: ForbiddenSpec, top_k: int, tol: float = 1e-9):
    """Top switching-isomorphism classes by scanning all 3^C(n,2) signed graphs.

    Classes are keyed by the forest-positive switching representative, so the
    index is evaluated on exactly the same labeled matrix the reduced
    enumerator uses.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    labeled: dict = {}
    for assignment in product((0, 1, -1), repeat=len(pairs)):
        edges = [
            (u, v, s) for (u, v), s in zip(pairs, assignment) if s != 0
        ]
        g = new_signed_graph(n, edges)
        if is_balanced(g):
            continue
        rep = switching_representative(g)
        key = (rep.edges, rep.signs)
        if key in labeled:
            continue
        if not is_forbidden_free(rep, spec):
            labeled[key] = None
            continue
        labeled[key] = eigenvalues_symmetric(rep.adjacency_matrix()).lambda1

    pool = sorted(
        ((idx, key) for key, idx in labeled.items() if idx is not None),
        key=lambda e: (-e[0], e[1]),
    )
    classes = []
    for idx, key in pool:
        if len(classes) >= top_k and idx < classes[top_k - 1]["index"] - tol:
            break
        g = SignedGraph(n, key[0], key[1])
        for cl in classes:
            if abs(cl["index"] - idx) <= tol and is_switching_isomorphic(g, cl["graph"]):
                cl["mult"] += 1
                break
        else:
            classes.append({"index": idx, "graph": g, "mult": 1})
    return classes


# ---------------------------------------------------------------------------
# labeled exhaustive enumeration (the byte-identity oracle)


def _scan_labeled_range(n, spec, lo, hi, pool_cap):
    """Top ``pool_cap`` candidates (index, gmask, sigmask) over the labeled
    graphs with slot masks in [lo, hi), in decreasing Hong-bound order with
    the same pruning as the enumerator."""
    from sgx.search import (
        CLASS_TOL,
        _decode_adj,
        _eig_extremes,
        _forest_residual,
        _pairs,
        _residual_signatures,
        _triangle_masks,
        _unbalanced,
    )

    pairs, slot_of = _pairs(n)
    masks = np.arange(lo, hi, dtype=np.uint32)
    mcount = np.bitwise_count(masks).astype(np.int32)
    supp = np.zeros(len(masks), dtype=np.int32)
    for v in range(n):
        inc = 0
        for k, (a, b) in enumerate(pairs):
            if v in (a, b):
                inc |= 1 << k
        supp += (masks & np.uint32(inc)) != 0
    hong = np.sqrt(np.maximum(2 * mcount - supp + 1, 1).astype(np.float64))
    order = np.lexsort((masks, -hong))

    pool = []
    theta = -math.inf
    full = False

    def flush():
        nonlocal theta, full
        pool.sort(key=lambda e: (-e[0], e[1], e[2]))
        del pool[pool_cap:]
        full = len(pool) == pool_cap
        if full:
            theta = pool[-1][0]

    for oi in order:
        h = float(hong[oi])
        if full and h < theta - CLASS_TOL:
            break
        gmask = int(masks[oi])
        if gmask == 0:
            continue
        lam_g, _ = _eig_extremes(n, gmask, 0)
        if full and lam_g < theta - CLASS_TOL:
            continue
        slots, adj = _decode_adj(n, gmask)
        _, residual = _forest_residual(slots, adj, slot_of)
        if not residual:
            continue
        tris = _triangle_masks(slots, adj, slot_of, pairs)
        for sig in _residual_signatures(residual):
            if not triangles_free(n, _unbalanced(sig, tris), spec):
                continue
            lam, _ = _eig_extremes(n, gmask, sig)
            if full and lam < theta - CLASS_TOL:
                continue
            pool.append((lam, gmask, sig))
            if len(pool) >= 2 * pool_cap or (not full and len(pool) >= pool_cap):
                flush()
    flush()
    return pool


def labeled_enumerate(n: int, spec: ForbiddenSpec, top_k: int):
    """The enumerator's report computed over every labeled graph: one range
    of all 2^C(n,2) slot masks, the pool regrown as the enumerator does."""
    from sgx.search import (
        DEFAULT_POOL,
        ClassEntry,
        SearchReport,
        _dedupe_pool,
        classify,
        total_switching_classes,
    )

    total_masks = 1 << (n * (n - 1) // 2)
    cap = DEFAULT_POOL
    for _attempt in range(4):
        pool = _scan_labeled_range(n, spec, 0, total_masks, cap)
        classes, complete = _dedupe_pool(pool, n, top_k)
        if complete or len(pool) < cap:
            break
        cap *= 4
    else:
        raise RuntimeError("labeled oracle: candidate pool too small")
    entries = [
        ClassEntry(
            index=cl["index"],
            unbalanced_triangles=count_unbalanced_triangles(cl["graph"]),
            graph=cl["graph"],
            tag=classify(cl["graph"]),
            multiplicity=cl["mult"],
        )
        for cl in classes
    ]
    return SearchReport(
        mode="exhaustive",
        n=n,
        forbidden=str(spec),
        top_k=top_k,
        entries=entries,
        graphs_visited=total_masks,
        classes_visited=total_switching_classes(n),
        notes=[
            "exhaustive over all labeled graphs; switching classes enumerated "
            "as residual sign assignments on a positive spanning forest"
        ],
    )


# ---------------------------------------------------------------------------
# local search that solves every feasible move (the screen's oracle)


def unscreened_local_search(n: int, spec: ForbiddenSpec, seed: int, restarts: int, exclude=()):
    """``local_search`` without the move screen: every step solves every
    feasible move and takes the best non-excluded one by (-index, move
    order)."""
    from sgx.core import ISO_SIZE_LIMIT
    from sgx.rng import SplitMix64
    from sgx.search import (
        CLASS_TOL,
        IMPROVE_TOL,
        MAX_STEPS,
        ClassEntry,
        ClassificationTag,
        SearchReport,
        _balanced,
        _mask_graph,
        _moves,
        _random_state,
        _state_index,
        classify,
    )
    from sgx.sgio import to_sg_text

    excluded = list(exclude)
    master = SplitMix64(seed)
    global_best = None
    restart_bests = []

    def is_excluded(gmask, sigmask):
        if not excluded:
            return False
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
            gmask, sig, tris, idx = st
            candidates = []
            for order_key, (cand_g, cand_s, cand_tris) in enumerate(_moves(n, gmask, sig, tris)):
                if not triangles_free(n, cand_tris, spec):
                    continue
                if not cand_tris and _balanced(n, cand_g, cand_s):
                    continue
                cand_idx = _state_index(n, cand_g, cand_s)
                if cand_idx > idx + IMPROVE_TOL:
                    candidates.append((cand_idx, order_key, (cand_g, cand_s, cand_tris, cand_idx)))
            candidates.sort(key=lambda c: (-c[0], c[1]))
            for _idx, _key, cand in candidates:
                if not is_excluded(cand[0], cand[1]):
                    st = cand
                    break
            else:
                break
        restart_bests.append(st[3])
        if global_best is None or st[3] > global_best[3]:
            global_best = st

    g = _mask_graph(n, global_best[0], global_best[1])
    mult = sum(1 for b in restart_bests if abs(b - global_best[3]) <= CLASS_TOL)
    entry = ClassEntry(
        index=global_best[3],
        unbalanced_triangles=count_unbalanced_triangles(g),
        graph=g,
        tag=classify(g) if n <= ISO_SIZE_LIMIT else ClassificationTag("other"),
        multiplicity=mult,
    )
    return SearchReport(
        mode="local-search",
        n=n,
        forbidden=str(spec),
        top_k=1,
        entries=[entry],
        seed=seed,
        restarts=restarts,
        excluded=[to_sg_text(ex) for ex in excluded],
        restart_best_indices=restart_bests,
        notes=[
            "stochastic hill-climbing evidence; multiplicity counts restarts whose "
            "best index ties the global best; not a proof of optimality"
        ],
    )
