import hashlib
import math
import struct
import warnings
from fractions import Fraction

import numpy as np
import pytest

from sgx.core import new_signed_graph, switch
from sgx.families import gamma, kn_minus, q1_partition, q2_partition, sigma, u1
from sgx.rng import SplitMix64
from sgx.spectra import (
    _JACOBI_KERNEL,
    DEFAULT_TOL,
    MAX_SWEEPS,
    CharPoly,
    _jacobi_sweeps,
    char_poly_exact,
    eigenvalues_symmetric,
    index,
    largest_real_root,
    poly_mul,
    poly_sub,
    quotient_matrix,
    spectral_radius,
    verify_quotient_spectrum,
)

from oracles import real_root_multiset


def random_graph(n, rng, p=0.5, neg=0.3):
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.unit() < p:
                edges.append((u, v, -1 if rng.unit() < neg else 1))
    return new_signed_graph(n, edges)


# --- eigensolver ------------------------------------------------------------


def test_k4_spectrum():
    spec = eigenvalues_symmetric(kn_minus(4, []).adjacency_matrix())
    assert np.allclose(spec.values, (3, -1, -1, -1), atol=1e-12)


def test_unbalanced_triangle_spectrum():
    # exact charpoly is x^3 - 3x + 2 = (x-1)^2 (x+2)
    g = new_signed_graph(3, [(0, 1, -1), (1, 2, 1), (0, 2, 1)])
    assert char_poly_exact(g.adjacency_matrix()).coeffs == (2, -3, 0, 1)
    spec = eigenvalues_symmetric(g.adjacency_matrix())
    assert np.allclose(spec.values, (1, 1, -2), atol=1e-12)


def test_one_by_one():
    assert eigenvalues_symmetric([[5.0]]).values == (5.0,)


def test_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        eigenvalues_symmetric([[0, 1], [0.5, 0]])


def test_spectrum_sums_to_trace():
    rng = SplitMix64(1)
    for _ in range(20):
        g = random_graph(8, rng)
        spec = eigenvalues_symmetric(g.adjacency_matrix())
        assert abs(sum(spec.values)) < 8 * 1e-10


def test_index_and_radius():
    g = new_signed_graph(3, [(0, 1, -1), (1, 2, 1), (0, 2, 1)])
    assert abs(index(g) - 1.0) < 1e-12
    assert abs(spectral_radius(g) - 2.0) < 1e-12
    assert spectral_radius(new_signed_graph(4, [])) == 0.0
    assert abs(index(kn_minus(6, [])) - 5.0) < 1e-12


def test_eigenvalues_match_exact_charpoly_roots():
    # dual route: Jacobi spectrum vs Sturm-isolated roots of the exact charpoly
    rng = SplitMix64(42)
    for n in (4, 6, 9, 12):
        for _ in range(4):
            g = random_graph(n, rng)
            cp = char_poly_exact(g.adjacency_matrix())
            roots = real_root_multiset(cp.coeffs)
            spec = eigenvalues_symmetric(g.adjacency_matrix())
            assert len(roots) == n
            assert max(abs(a - b) for a, b in zip(roots, spec.values)) < 1e-8


@pytest.mark.parametrize(
    "kernel,as_rows",
    [(_jacobi_sweeps, False), (_JACOBI_KERNEL, False), (_jacobi_sweeps, True)],
    ids=["interpreted", "kernel", "rows"],
)
@pytest.mark.parametrize(
    "mat,diag_hex",
    [
        ([[0, 1e-160, 0.5], [1e-160, 1, 0], [0.5, 0, 3]],
         "29b5a5ad83c5b4bf000000000000f03fa92d6d1d2ca60840"),
        ([[1, 1e-160, 0.5], [1e-160, 0, 0], [0.5, 0, 3]],
         "b016d0c81039ec3f000000000000000054facbcdbbf10840"),
    ],
)
def test_jacobi_huge_tau_takes_signed_zero_rotation(kernel, as_rows, mat, diag_hex):
    # |tau| ~ 5e159 squares past the double range; the rotation tangent is
    # then +-0.0, with no overflow warning and the same bits as before, on
    # float rows and on a C-contiguous array alike
    a = np.array(mat, dtype=np.float64)
    if as_rows:
        a = a.tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernel(a, 3, 1e-12, 100) >= 0
    assert struct.pack("<3d", *(a[i][i] for i in range(3))).hex() == diag_hex


def _kernel_corpus():
    """The pinned Jacobi corpus, as lists of float rows."""
    mats = []
    pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    for code in range(3 ** len(pairs)):  # every signed graph on 4 vertices
        a = [[0.0] * 4 for _ in range(4)]
        for u, v in pairs:
            code, s = divmod(code, 3)
            if s:
                a[u][v] = a[v][u] = 1.0 if s == 1 else -1.0
        mats.append(a)
    rng = SplitMix64(2025)
    for n in range(5, 13):
        for _ in range(6):
            mats.append(random_graph(n, rng).adjacency_matrix().astype(np.float64).tolist())
    for n in (20, 30, 40):
        t = n // 2
        for g in (gamma(n, t), sigma(1, t - 1, n - t - 2), u1(n)):
            mats.append(g.adjacency_matrix().astype(np.float64).tolist())
    # symmetric only within 1e-13: the kernel must read column entries
    a = [[0.0] * 7 for _ in range(7)]
    for i in range(7):
        for j in range(i, 7):
            a[i][j] = a[j][i] = 2.0 * rng.unit() - 1.0
        for j in range(i):
            a[i][j] += 1e-13 * (2.0 * rng.unit() - 1.0)
    mats.append(a)
    return mats


# SHA-256 over (diagonal, sweep count) of every corpus matrix, in corpus order,
# generated from the array-indexed kernel that the row kernel replaced
KERNEL_CORPUS_DIGEST = "bc87155f27bc4ad53b4f6bfbc8c8af437be677159f72529daba278fd464a22cd"


def _corpus_digest(solve) -> str:
    h = hashlib.sha256()
    for rows in _kernel_corpus():
        diag, sweeps = solve(rows)
        h.update(struct.pack(f"<{len(diag)}dq", *diag, sweeps))
    return h.hexdigest()


def test_jacobi_kernel_corpus_digest():
    def solve(rows):
        a = np.array(rows, dtype=np.float64, order="C")
        sweeps = _JACOBI_KERNEL(a, len(rows), DEFAULT_TOL, MAX_SWEEPS)
        return np.diag(a).tolist(), sweeps

    assert _corpus_digest(solve) == KERNEL_CORPUS_DIGEST


def test_jacobi_float_rows_give_the_pinned_bytes():
    # the interpreted kernel on lists of Python floats, as eigenvalues_symmetric
    # and the search run it, matches the array kernel bit for bit
    def solve(rows):
        sweeps = _jacobi_sweeps(rows, len(rows), DEFAULT_TOL, MAX_SWEEPS)
        return [rows[i][i] for i in range(len(rows))], sweeps

    assert _corpus_digest(solve) == KERNEL_CORPUS_DIGEST


def test_eigenvalues_match_scipy():
    linalg = pytest.importorskip("scipy.linalg")
    rng = SplitMix64(11)
    mats = []
    for n in (1, 2, 5, 9, 20, 40):
        a = np.array([[2.0 * rng.unit() - 1.0 for _ in range(n)] for _ in range(n)])
        mats += [a + a.T, random_graph(n, rng).adjacency_matrix().astype(np.float64)]
    for a in mats:
        ref = linalg.eigvalsh(a)[::-1]
        assert np.max(np.abs(np.array(eigenvalues_symmetric(a).values) - ref)) < 1e-9


# --- exact characteristic polynomials ----------------------------------------


def test_charpoly_k3():
    cp = char_poly_exact(kn_minus(3, []).adjacency_matrix())
    assert cp.coeffs == (-2, -3, 0, 1)
    assert str(cp) == "x^3 - 3*x - 2"


def test_charpoly_q2_at_9():
    from sgx.families import q2_matrix

    assert char_poly_exact(q2_matrix(9)).coeffs == (6, 17, -19, -5, 1)


def test_charpoly_zero_matrix():
    assert char_poly_exact([[0, 0], [0, 0]]).coeffs == (0, 0, 1)


def test_charpoly_rational_entries():
    # [[1/2, 1], [1, 1/2]] has charpoly (x - 3/2)(x + 1/2)
    cp = char_poly_exact([[Fraction(1, 2), 1], [1, Fraction(1, 2)]])
    assert cp.coeffs == (Fraction(-3, 4), -1, 1)


def test_charpoly_switching_invariant_exactly():
    rng = SplitMix64(7)
    for _ in range(20):
        g = random_graph(9, rng)
        u = {v for v in range(9) if rng.unit() < 0.5}
        assert char_poly_exact(g.adjacency_matrix()).coeffs == \
            char_poly_exact(switch(g, u).adjacency_matrix()).coeffs


def test_charpoly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = SplitMix64(13)
    mats = [random_graph(n, rng).adjacency_matrix().tolist() for n in (3, 5, 7, 9)]
    mats.append([[Fraction(1, 2), 1, Fraction(-2, 3)], [1, 0, 3], [Fraction(-2, 3), 3, 5]])
    for m in mats:
        ref = sympy.Matrix(m).charpoly().all_coeffs()[::-1]
        assert char_poly_exact(m).coeffs == tuple(Fraction(int(c.p), int(c.q)) for c in ref)


def test_poly_helpers():
    p = (1, 1)  # x + 1
    assert poly_mul(p, p) == (1, 2, 1)
    assert poly_sub((1, 2, 1), (1, 0, 1)) == (0, 2)
    assert CharPoly((2, -3, 0, 1))(1) == 0


def test_largest_real_root():
    assert abs(largest_real_root((-2, -3, 0, 1)) - 2.0) < 1e-9
    assert abs(largest_real_root((8, -6, -3, 1)) - 4.0) < 1e-9
    with pytest.raises(ValueError):
        largest_real_root((1, 0, 1))  # x^2 + 1 has no real root


# --- quotient matrices -------------------------------------------------------


def test_quotient_of_sigma_is_q1():
    from sgx.families import q1_matrix

    n, t = 10, 4
    q = quotient_matrix(sigma(1, t - 1, n - t - 2).adjacency_matrix(), q1_partition(n, t))
    assert q.equitable
    assert (q.as_int_array() == q1_matrix(n, t)).all()


def test_quotient_of_u1_is_q2():
    from sgx.families import q2_matrix

    n = 9
    q = quotient_matrix(u1(n).adjacency_matrix(), q2_partition(n))
    assert q.equitable
    assert (q.as_int_array() == q2_matrix(n)).all()


def test_singleton_partition_is_matrix_itself():
    a = kn_minus(4, []).adjacency_matrix()
    q = quotient_matrix(a, [(i,) for i in range(4)])
    assert q.equitable
    assert (q.as_int_array() == a).all()


def test_non_equitable_flag():
    # path 0-1-2: {0,1} vs {2} has non-constant row sums
    p3 = new_signed_graph(3, [(0, 1, 1), (1, 2, 1)])
    q = quotient_matrix(p3.adjacency_matrix(), [(0, 1), (2,)])
    assert not q.equitable


def test_invalid_partition():
    a = kn_minus(3, []).adjacency_matrix()
    with pytest.raises(ValueError, match="partition"):
        quotient_matrix(a, [(0, 1), (1, 2)])


def test_verify_quotient_sigma_residuals():
    n, t = 10, 4
    rep = verify_quotient_spectrum(sigma(1, t - 1, n - t - 2), q1_partition(n, t), 1e-8)
    assert rep.containment_ok
    assert rep.lambda1_match
    assert len(rep.residual_eigenvalues) == n - 5
    assert all(
        min(abs(x + 1), abs(x)) < 1e-8 for x in rep.residual_eigenvalues
    )


def test_verify_quotient_u1_residuals():
    n = 9
    rep = verify_quotient_spectrum(u1(n), q2_partition(n), 1e-8)
    assert rep.containment_ok and rep.lambda1_match
    assert len(rep.residual_eigenvalues) == n - 4
    assert all(min(abs(x + 1), abs(x)) < 1e-8 for x in rep.residual_eigenvalues)


def test_verify_quotient_k5_singletons():
    rep = verify_quotient_spectrum(kn_minus(5, []), [(i,) for i in range(5)], 1e-8)
    assert rep.containment_ok
    assert rep.residual_eigenvalues == ()


def test_verify_quotient_requires_equitable():
    p3 = new_signed_graph(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(ValueError, match="equitable"):
        verify_quotient_spectrum(p3, [(0, 1), (2,)])
