"""Acceptance suite: one test per criterion, one printed verdict line each.

Criterion 9 belongs to the long-running tier and carries the ``nightly``
marker (deselected by default; run with ``pytest -m nightly``).  Criterion 6,
Theorem 1's exhaustive check at n = 7, runs in the default tier.
"""

import math
import time

import pytest

from sgx.core import cycle_sign, is_switching_isomorphic, new_signed_graph, switch
from sgx.families import g_poly, gamma, pq1_poly, pq2_poly, q1_matrix, q2_matrix, sigma, u1
from sgx.forbidden import (
    ForbiddenSpec,
    book_count,
    count_unbalanced_triangles,
    friendship_count,
)
from sgx.rng import SplitMix64
from sgx.search import (
    enumerate_extremal,
    local_search,
    spectral_bound_value,
    verify_extremal,
    verify_spectral_bound,
)
from sgx.spectra import char_poly_exact, index, largest_real_root, poly_mul, poly_sub

from oracles import fundamental_cycles, naive_enumerate


def _verdict(num, label, ok, t0):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} "
          f"({time.perf_counter() - t0:.2f}s): {label}")
    assert ok, f"criterion {num} failed: {label}"


def _same_classes(entries, oracle_classes, tol=1e-10):
    """Order-insensitive within index ties: indexes match positionally, and a
    switching-isomorphism bijection with equal multiplicities must exist."""
    if len(entries) != len(oracle_classes):
        return False
    if any(
        abs(e.index - o["index"]) > tol
        for e, o in zip(entries, oracle_classes)
    ):
        return False
    used = [False] * len(oracle_classes)
    for e in entries:
        for j, o in enumerate(oracle_classes):
            if used[j] or abs(e.index - o["index"]) > tol:
                continue
            if e.multiplicity == o["mult"] and is_switching_isomorphic(e.graph, o["graph"]):
                used[j] = True
                break
        else:
            return False
    return True


def test_criterion_01_exact_identities():
    t0 = time.perf_counter()
    ok = True
    for n in range(9, 21):
        for t in range(3, n - 2):
            ok &= char_poly_exact(q1_matrix(n, t)).coeffs == pq1_poly(n, t).coeffs
            remainder = poly_sub(
                poly_mul(poly_mul((1, 1), (1, 1)), g_poly(n, t).coeffs),
                pq1_poly(n, t).coeffs,
            )
            ok &= remainder == (
                (t - 5) * (n - t - 1), 5 + 9 * t - 7 * n, 3 + 4 * t - 3 * n, 1,
            )
        ok &= char_poly_exact(q2_matrix(n)).coeffs == pq2_poly(n).coeffs
        ok &= poly_sub(
            poly_mul((1, 1), g_poly(n, n - 2).coeffs), pq2_poly(n).coeffs
        ) == (4 * n - 16, -4)
    _verdict(1, "exact quotient-polynomial identities, 9 <= n <= 20", ok, t0)


def test_criterion_02_cubic_root_window():
    t0 = time.perf_counter()
    ok = True
    for n in range(6, 41):
        ok &= abs(index(gamma(n, 3)) - (n - 2)) <= 1e-8
    for n in range(4, 41):
        for t in range(3, n + 1):
            lam = index(gamma(n, t))
            ok &= (n - 2) - 1e-8 <= lam < (n - 1)
            ok &= abs(lam - largest_real_root(g_poly(n, t).coeffs)) <= 1e-8
    _verdict(2, "index of gamma families: value, window, cubic root", ok, t0)


def test_criterion_03_crossing():
    t0 = time.perf_counter()
    ok = True
    for n in range(9, 41):
        half = n // 2
        for t in range(3, n - 2):
            diff = index(sigma(1, t - 1, n - t - 2)) - index(gamma(n, t))
            margin = -diff if t <= half else diff
            ok &= margin > 1e-6
    _verdict(3, "gamma/sigma index crossing at floor(n/2), 9 <= n <= 40", ok, t0)


def test_criterion_04_u1_gap():
    t0 = time.perf_counter()
    ok = True
    for n in range(9, 41):
        ok &= index(gamma(n, n - 2)) - index(u1(n)) > 1e-6
    _verdict(4, "gamma(n, n-2) beats u1(n), 9 <= n <= 40", ok, t0)


def test_criterion_05_extremal_n6():
    t0 = time.perf_counter()
    ok = True
    for t in range(2, 8):
        report = enumerate_extremal(6, ForbiddenSpec("tc3", t), top_k=1)
        top = report.entries[0]
        expected = gamma(6, t + 1) if t <= 4 else gamma(6, 6)
        unique = all(e.index < top.index - 1e-9 for e in report.entries[1:])
        ok &= unique
        ok &= is_switching_isomorphic(top.graph, expected)
        ok &= abs(top.index - index(expected)) <= 1e-9
    _verdict(5, "exhaustive winners at n=6 for t in 2..7", ok, t0)


def test_criterion_06_extremal_n7():
    t0 = time.perf_counter()
    report = verify_extremal(7, t_values=list(range(2, 9)))
    ok = report.ok
    for row in report.rows:
        t = row["t"]
        expected = f"gamma(7, {min(t + 1, 7)})"
        ok &= row["expected"] == expected
    _verdict(6, "exhaustive winners at n=7 for t in 2..8", ok, t0)


def test_criterion_07_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    cases = [
        (3, ForbiddenSpec("tc3", 2)),
        (4, ForbiddenSpec("tc3", 2)),
        (4, ForbiddenSpec("tc3", 3)),
        (4, ForbiddenSpec("c3")),
        (5, ForbiddenSpec("tc3", 2)),
        (5, ForbiddenSpec("tc3", 3)),
        (4, ForbiddenSpec("book", 2)),
        (5, ForbiddenSpec("book", 2)),
        (5, ForbiddenSpec("friendship", 2)),
    ]
    for n, spec in cases:
        mine = enumerate_extremal(n, spec, top_k=5)
        theirs = naive_enumerate(n, spec, top_k=5)
        ok &= _same_classes(mine.entries, theirs)
    _verdict(7, "switching-reduced enumeration equals naive 3^C(n,2) scan, n <= 5", ok, t0)


def test_criterion_08_spectral_radius_bound_n6():
    t0 = time.perf_counter()
    report = verify_spectral_bound(6)
    ok = report.ok
    ok &= abs(report.rows[0]["bound"] - 0.5 * (math.sqrt(28) + 2)) < 1e-12
    _verdict(8, "rho bound over connected triangle-clean unbalanced graphs, n=6", ok, t0)


@pytest.mark.nightly
def test_criterion_09_second_maximizers_evidence_n9():
    t0 = time.perf_counter()
    predictions = {
        3: gamma(9, 3),
        4: gamma(9, 4),
        5: sigma(1, 4, 2),
        6: sigma(1, 5, 1),
        7: gamma(9, 7),
        8: gamma(9, 8),
    }
    ok = True
    for t, predicted in predictions.items():
        winner = gamma(9, min(t + 1, 9)) if t <= 7 else gamma(9, 9)
        report = local_search(
            9, ForbiddenSpec("tc3", t), seed=42, restarts=1000, exclude=[winner]
        )
        top = report.entries[0]
        ok &= is_switching_isomorphic(top.graph, predicted)
        ok &= top.index <= index(predicted) + 1e-9
    _verdict(
        9,
        "second maximizers at n=9: 1000-restart evidence, seed 42 "
        "(stochastic evidence, not proof)",
        ok,
        t0,
    )


def test_criterion_10_switching_invariance_suite():
    t0 = time.perf_counter()
    rng = SplitMix64(2024)
    ok = True
    for _ in range(1000):
        n = 4 + rng.below(7)  # 4..10
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.unit() < 0.5:
                    edges.append((u, v, -1 if rng.unit() < 0.3 else 1))
        g = new_signed_graph(n, edges)
        u_set = {v for v in range(n) if rng.unit() < 0.5}
        h = switch(g, u_set)
        ok &= (
            char_poly_exact(g.adjacency_matrix()).coeffs
            == char_poly_exact(h.adjacency_matrix()).coeffs
        )
        for cyc in fundamental_cycles(g):
            ok &= cycle_sign(g, cyc) == cycle_sign(h, cyc)
        ok &= count_unbalanced_triangles(g) == count_unbalanced_triangles(h)
        ok &= book_count(g)[1] == book_count(h)[1]
        ok &= friendship_count(g)[1] == friendship_count(h)[1]
    _verdict(10, "1000 randomized switching-invariance checks, n <= 10", ok, t0)
