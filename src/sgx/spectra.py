"""Symmetric eigensolver, exact characteristic polynomials, quotient matrices.

The eigensolver is a cyclic Jacobi diagonalization with a fixed row-major
sweep order, so spectra are bit-for-bit reproducible across runs and worker
counts.  Characteristic polynomials are computed exactly (arbitrary-precision
integers, or Fractions for rational input), never through floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "Spectrum",
    "CharPoly",
    "QuotientMatrix",
    "QuotientSpectrumReport",
    "ConvergenceError",
    "eigenvalues_symmetric",
    "index",
    "spectral_radius",
    "char_poly_exact",
    "quotient_matrix",
    "verify_quotient_spectrum",
    "poly_mul",
    "poly_sub",
    "largest_real_root",
]

DEFAULT_TOL = 1e-12
MAX_SWEEPS = 100
# largest double whose square is finite: above it tau * tau overflows, and the
# rotation tangent 1 / (|tau| + sqrt(1 + tau^2)) rounds to a signed zero
_TAU_MAX = 1.3407807929942596e154


class ConvergenceError(RuntimeError):
    """Jacobi sweeps did not reduce the off-diagonal norm below tolerance."""


def _jacobi_sweeps(a, n, tol, max_sweeps):
    # Cyclic Jacobi, row-major rotation order (p < q), deterministic.
    # Terminates when the off-diagonal Frobenius norm drops below tol.
    # Returns the number of sweeps used, or -1 on non-convergence.
    # ``a`` is indexed row by row, so it may be a list of float rows (fast
    # when interpreted) or a C-contiguous array (the jit signature).
    # Updates read column entries ak[p], ak[q]: the input may be asymmetric
    # within tol.
    for sweep in range(max_sweeps):
        off = 0.0
        for i in range(n - 1):
            ai = a[i]
            for j in range(i + 1, n):
                off += ai[j] * ai[j]
        if math.sqrt(2.0 * off) < tol:
            return sweep
        for p in range(n - 1):
            ap = a[p]
            for q in range(p + 1, n):
                apq = ap[q]
                if apq == 0.0:
                    continue
                aq = a[q]
                app = ap[p]
                aqq = aq[q]
                tau = (aqq - app) / (2.0 * apq)
                if tau >= 0.0:
                    t = 0.0 if tau > _TAU_MAX else 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -0.0 if tau < -_TAU_MAX else -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                ap[p] = app - t * apq
                aq[q] = aqq + t * apq
                ap[q] = 0.0
                aq[p] = 0.0
                for k in range(n):
                    if k != p and k != q:
                        ak = a[k]
                        akp = ak[p]
                        akq = ak[q]
                        ak[p] = ap[k] = c * akp - s * akq
                        ak[q] = aq[k] = s * akp + c * akq
    off = 0.0
    for i in range(n - 1):
        ai = a[i]
        for j in range(i + 1, n):
            off += ai[j] * ai[j]
    if math.sqrt(2.0 * off) >= tol:
        return -1
    return max_sweeps


try:  # jit-compiled kernel; the interpreted function stays as fallback
    from numba import njit

    _JACOBI_KERNEL = njit(
        "int64(float64[:, ::1], int64, float64, int64)", cache=True
    )(_jacobi_sweeps)
    JACOBI_JIT = True
except ImportError:  # pragma: no cover - exercised only without numba
    _JACOBI_KERNEL = _jacobi_sweeps
    JACOBI_JIT = False


def _diagonalise(rows, n: int, tol: float = DEFAULT_TOL) -> list[float]:
    """Diagonal of ``rows`` (n lists of n floats) after the Jacobi sweeps.

    The one place that picks the kernel's input form: an array under the
    jit kernel, the rows themselves (rotated in place) otherwise.
    """
    a = np.array(rows, dtype=np.float64) if JACOBI_JIT else rows
    if _JACOBI_KERNEL(a, n, tol, MAX_SWEEPS) < 0:
        raise ConvergenceError(f"no convergence after {MAX_SWEEPS} sweeps (tol={tol:g})")
    return [float(a[i][i]) for i in range(n)]


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a symmetric matrix, sorted descending."""

    values: tuple[float, ...]
    tol: float

    @property
    def lambda1(self) -> float:
        return self.values[0]

    @property
    def rho(self) -> float:
        return max(abs(self.values[0]), abs(self.values[-1]))


def eigenvalues_symmetric(mat, tol: float = DEFAULT_TOL) -> Spectrum:
    """Full spectrum of a symmetric matrix by deterministic cyclic Jacobi.

    ``tol`` bounds both the accepted input asymmetry and the off-diagonal
    Frobenius norm at termination; it must be finite and positive.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    a = np.array(mat, dtype=np.float64, order="C")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    n = a.shape[0]
    if n < 1:
        raise ValueError("matrix dimension must be >= 1")
    asym = float(np.abs(a - a.T).max()) if n > 1 else 0.0
    if asym > tol:
        raise ValueError(f"matrix not symmetric within tol: max|a-a.T| = {asym:g}")
    vals = sorted(_diagonalise(a.tolist(), n, tol), reverse=True)
    return Spectrum(tuple(vals), tol)


def index(g) -> float:
    """Largest adjacency eigenvalue of a signed graph."""
    return eigenvalues_symmetric(g.adjacency_matrix()).lambda1


def spectral_radius(g) -> float:
    """Maximum absolute adjacency eigenvalue of a signed graph."""
    return eigenvalues_symmetric(g.adjacency_matrix()).rho


# ---------------------------------------------------------------------------
# exact characteristic polynomials


@dataclass(frozen=True)
class CharPoly:
    """Monic characteristic polynomial with exact coefficients.

    ``coeffs`` is ascending (c0, c1, ..., c_{k-1}, 1): integers for integer
    matrices, Fractions if the input was rational.
    """

    coeffs: tuple

    def __post_init__(self) -> None:
        if not self.coeffs or self.coeffs[-1] != 1:
            raise ValueError("characteristic polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = str(mag)
            else:
                var = "x" if k == 1 else f"x^{k}"
                term = var if mag == 1 else f"{mag}*{var}"
            terms.append(("- " if c < 0 else "+ ") + term)
        if not terms:
            return "0"
        s = " ".join(terms)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]


def char_poly_exact(mat) -> CharPoly:
    """Exact monic characteristic polynomial via Faddeev-LeVerrier.

    Runs over Python integers when every entry is integral (the k-divisions
    are then exact and asserted), otherwise over Fractions.
    """
    rows = [list(r) for r in (mat.tolist() if isinstance(mat, np.ndarray) else mat)]
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("matrix must be square and nonempty")

    def as_exact(x):
        if isinstance(x, (int, np.integer)):
            return int(x)
        if isinstance(x, Fraction):
            return x
        f = Fraction(x).limit_denominator(10**12)
        if float(f) != float(x):
            raise ValueError(f"entry {x!r} is not an exact rational")
        return int(f) if f.denominator == 1 else f

    a = [[as_exact(x) for x in r] for r in rows]
    integral = all(isinstance(x, int) for r in a for x in r)

    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m_cur = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # M_0 = I
    for k in range(1, n + 1):
        am = [
            [sum(a[i][l] * m_cur[l][j] for l in range(n)) for j in range(n)]
            for i in range(n)
        ]
        tr = sum(am[i][i] for i in range(n))
        if integral:
            if tr % k != 0:
                raise ArithmeticError("Faddeev-LeVerrier trace not divisible")
            c = -(tr // k)
        else:
            c = -Fraction(tr, k)
        coeffs[n - k] = c
        m_cur = [[am[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    if not integral:
        coeffs = [int(c) if isinstance(c, Fraction) and c.denominator == 1 else c for c in coeffs]
    return CharPoly(tuple(coeffs))


# ---------------------------------------------------------------------------
# dense polynomial helpers (ascending coefficient tuples, exact arithmetic)


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def poly_sub(p, q):
    k = max(len(p), len(q))
    out = [0] * k
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] -= b
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def largest_real_root(p, tol: float = 1e-12) -> float:
    """Largest real root of a polynomial with a sign change at that root.

    Uses the Cauchy bound to bracket, a downward unit scan to find the sign
    change, then bisection.  Suits the monic polynomials used here, whose
    largest root is simple.
    """
    c = [float(x) for x in p]
    while len(c) > 1 and c[-1] == 0.0:
        c.pop()
    if len(c) < 2:
        raise ValueError("polynomial must have positive degree")
    lead = c[-1]
    bound = 1.0 + max(abs(x / lead) for x in c[:-1])

    def f(x: float) -> float:
        acc = 0.0
        for ck in reversed(c):
            acc = acc * x + ck
        return acc if lead > 0 else -acc

    hi = bound
    x = hi
    while f(x) > 0.0 and x >= -bound - 1.0:
        x -= 1.0
    if f(x) > 0.0:
        raise ValueError("no sign change found; largest real root not bracketed")
    lo = x
    hi = x + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol:
            break
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# quotient matrices


@dataclass(frozen=True)
class QuotientMatrix:
    """Block-averaged matrix of a partition: entries are exact Fractions."""

    partition: tuple[tuple[int, ...], ...]
    entries: tuple[tuple[Fraction, ...], ...]
    equitable: bool

    def as_float_array(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.entries])

    def as_int_array(self) -> np.ndarray:
        if not all(x.denominator == 1 for row in self.entries for x in row):
            raise ValueError("quotient matrix entries are not all integral")
        return np.array([[int(x) for x in row] for row in self.entries], dtype=np.int64)


def quotient_matrix(mat, partition) -> QuotientMatrix:
    """Quotient of a symmetric matrix by a vertex partition (average block row sums)."""
    a = np.asarray(mat)
    n = a.shape[0]
    blocks = [tuple(b) for b in partition]
    flat = [v for b in blocks for v in b]
    if sorted(flat) != list(range(n)):
        raise ValueError("partition must consist of disjoint nonempty blocks covering 0..n-1")
    if any(len(b) == 0 for b in blocks):
        raise ValueError("partition blocks must be nonempty")
    if not np.issubdtype(a.dtype, np.integer):
        if not np.all(a == np.round(a)):
            raise ValueError("quotient_matrix expects integer entries")
        a = a.astype(np.int64)
    entries = []
    equitable = True
    for bi in blocks:
        row = []
        for bj in blocks:
            sums = [sum(int(a[u, v]) for v in bj) for u in bi]
            if any(s != sums[0] for s in sums):
                equitable = False
            row.append(Fraction(sum(sums), len(bi)))
        entries.append(tuple(row))
    return QuotientMatrix(tuple(blocks), tuple(entries), equitable)


def _quotient_eigenvalues(q: QuotientMatrix, tol: float) -> Spectrum:
    # D^(1/2) Q D^(-1/2) is symmetric when Q came from a symmetric matrix
    # (q_ij * |B_i| = q_ji * |B_j|), so the Jacobi solver applies.
    sizes = np.array([len(b) for b in q.partition], dtype=np.float64)
    qf = q.as_float_array()
    d = np.sqrt(sizes)
    sym = (qf * d[:, None]) / d[None, :]
    sym = 0.5 * (sym + sym.T)
    return eigenvalues_symmetric(sym, tol=max(tol, DEFAULT_TOL))


@dataclass(frozen=True)
class QuotientSpectrumReport:
    """Outcome of checking a quotient's spectrum against its parent matrix."""

    quotient_eigenvalues: tuple[float, ...]
    matrix_eigenvalues: tuple[float, ...]
    residual_eigenvalues: tuple[float, ...]
    containment_ok: bool
    lambda1_matrix: float
    lambda1_quotient: float
    lambda1_match: bool
    tol: float

    def to_json_dict(self) -> dict:
        return {
            "schema": "sgx/1",
            "quotient_eigenvalues": list(self.quotient_eigenvalues),
            "matrix_eigenvalues": list(self.matrix_eigenvalues),
            "residual_eigenvalues": list(self.residual_eigenvalues),
            "containment_ok": self.containment_ok,
            "lambda1_matrix": self.lambda1_matrix,
            "lambda1_quotient": self.lambda1_quotient,
            "lambda1_match": self.lambda1_match,
            "tol": self.tol,
        }


def verify_quotient_spectrum(g, partition, tol: float = 1e-8) -> QuotientSpectrumReport:
    """Check quotient-eigenvalue containment and the top-eigenvalue match.

    Greedy nearest-match containment: each quotient eigenvalue consumes its
    closest unconsumed matrix eigenvalue; the leftovers are the residual.
    """
    a = g.adjacency_matrix()
    q = quotient_matrix(a, partition)
    if not q.equitable:
        raise ValueError("partition is not equitable")
    spec_q = _quotient_eigenvalues(q, tol)
    spec_a = eigenvalues_symmetric(a)
    remaining = list(spec_a.values)
    ok = True
    for lam in spec_q.values:
        best = min(range(len(remaining)), key=lambda i: (abs(remaining[i] - lam), i))
        if abs(remaining[best] - lam) > tol:
            ok = False
        else:
            remaining.pop(best)
    lam1_a = spec_a.lambda1
    lam1_q = spec_q.lambda1
    return QuotientSpectrumReport(
        quotient_eigenvalues=spec_q.values,
        matrix_eigenvalues=spec_a.values,
        residual_eigenvalues=tuple(remaining),
        containment_ok=ok,
        lambda1_matrix=lam1_a,
        lambda1_quotient=lam1_q,
        lambda1_match=abs(lam1_a - lam1_q) <= tol,
        tol=tol,
    )

