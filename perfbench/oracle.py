"""Independent output checks for the benchmark workloads.

Nothing here calls nnspectra.  Exact claims are checked with plain Fraction
loops or modulo a fixed large prime; float results are checked with numpy.
Each check returns None when the output is accepted, else a one-line reason.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

PRIME = (1 << 61) - 1  # Mersenne prime


def bits(rows) -> int:
    """Largest numerator or denominator bit length in a matrix."""
    return max(
        max(abs(v.numerator).bit_length(), v.denominator.bit_length())
        for r in rows
        for v in r
    )


# ---------------------------------------------------------------------------
# arithmetic modulo PRIME
# ---------------------------------------------------------------------------


def to_mod(rows):
    """Reduce a rational matrix modulo PRIME (denominators must be units)."""
    out = []
    for r in rows:
        row = []
        for v in r:
            den = v.denominator % PRIME
            if den == 0:
                raise ValueError("denominator divisible by the check prime")
            row.append(v.numerator * pow(den, -1, PRIME) % PRIME)
        out.append(row)
    return out


def rank_mod(m) -> int:
    m = [list(r) for r in m]
    rows, cols = len(m), len(m[0])
    rank = 0
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, PRIME)
        for r in range(rank + 1, rows):
            f = m[r][c] * inv % PRIME
            if f:
                m[r] = [(a - f * b) % PRIME for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def det_mod(m) -> int:
    m = [list(r) for r in m]
    n = len(m)
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det = det * m[c][c] % PRIME
        inv = pow(m[c][c], -1, PRIME)
        for r in range(c + 1, n):
            f = m[r][c] * inv % PRIME
            if f:
                m[r] = [(a - f * b) % PRIME for a, b in zip(m[r], m[c])]
    return det % PRIME


def matmul_mod(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(r, c)) % PRIME for c in bt] for r in a]


def shift_mod(m, lam):
    """m - lam I modulo PRIME, lam already reduced."""
    return [[(v - lam * (i == j)) % PRIME for j, v in enumerate(r)] for i, r in enumerate(m)]


def spectrum_check(rows, values):
    """char poly and Weyr ranks modulo PRIME.

    Two monic degree-n polynomials that agree at n + 1 points are equal, so
    det(kI - M) = prod(k - v) for k = 0..n proves char(M) = prod(x - v)
    modulo PRIME.  `values` maps each eigenvalue to its expected Weyr
    sequence (cumulative nullities of (M - vI)^k).
    """
    n = len(rows)
    m = to_mod(rows)
    roots = [to_mod([[v]])[0][0] for v, w in values.items() for _ in range(w[-1])]
    if len(roots) != n:
        return "claimed spectrum has %d values for order %d" % (len(roots), n)
    for k in range(n + 1):
        expect = 1
        for r in roots:
            expect = expect * (k - r) % PRIME
        got = det_mod([[(-v) % PRIME for v in r] for r in shift_mod(m, k)])
        if got != expect:
            return "char poly differs from the claimed spectrum at x=%d" % k
    for v, weyr in values.items():
        base = shift_mod(m, to_mod([[v]])[0][0])
        power = base
        for depth, nullity in enumerate(weyr, start=1):
            if depth > 1:
                power = matmul_mod(power, base)
            got = n - rank_mod(power)
            if got != nullity:
                return "nullity of (M - %s I)^%d is %d, expected %d" % (v, depth, got, nullity)
    return None


# ---------------------------------------------------------------------------
# workload checks
# ---------------------------------------------------------------------------


def check_exact_normalization(A, B, S, lam):
    """B >= 0, every row sum of B equals lam, A S = S B, det S != 0."""
    n = len(A)
    if len(B) != n or len(S) != n:
        return "output order differs from input order"
    if any(v < 0 for r in B for v in r):
        return "B has a negative entry"
    if any(sum(r) != lam for r in B):
        return "a row sum of B differs from the Perron root %s" % lam
    for i in range(n):
        for j in range(n):
            left = sum((A[i][k] * S[k][j] for k in range(n) if A[i][k]), Fraction(0))
            right = sum((S[i][k] * B[k][j] for k in range(n) if B[k][j]), Fraction(0))
            if left != right:
                return "A S != S B at (%d, %d)" % (i, j)
    if det_mod(to_mod(S)) == 0:
        return "S is singular modulo the check prime"
    return None


def check_float_normalization(A, B, S, lam, tol=1e-8):
    """Residuals against numpy's spectral radius of A."""
    a = np.array([[float(v) for v in r] for r in A])
    b, s = np.asarray(B, dtype=float), np.asarray(S, dtype=float)
    rho = float(np.max(np.abs(np.linalg.eigvals(a))))
    scale = max(1.0, float(np.max(np.abs(a))), rho)
    if abs(float(lam) - rho) > tol * scale:
        return "reported root %.17g differs from numpy's %.17g" % (lam, rho)
    if float(np.min(b)) < -tol * scale:
        return "B has a negative entry %.3e" % float(np.min(b))
    if float(np.max(np.abs(b.sum(axis=1) - rho))) > tol * scale:
        return "row sums of B deviate from the spectral radius"
    resid = float(np.max(np.abs(a @ s - s @ b))) / (scale * max(1.0, float(np.max(np.abs(s)))))
    if resid > tol:
        return "relative residual of A S - S B is %.3e" % resid
    return None


def weyr_single_blocks(values):
    """Expected Weyr sequences when each distinct eigenvalue has one Jordan block."""
    return {v: tuple(range(1, values.count(v) + 1)) for v in set(values)}


def check_shift(shifted, values, eps):
    """Nonnegative, constant row sum lam1 + eps, char poly and Weyr ranks of a
    nonderogatory spectrum with the Perron root moved by eps."""
    lam = max(values)
    if any(v < 0 for r in shifted for v in r):
        return "shifted matrix has a negative entry"
    if any(sum(r) != lam + eps for r in shifted):
        return "a row sum differs from lam1 + eps"
    moved = [lam + eps if v == lam else v for v in values]
    return spectrum_check(shifted, weyr_single_blocks(moved))


def parse_matrix(obj):
    return [[Fraction(v) for v in r] for r in obj["entries"]]


def check_realize5(text, values):
    """Certified diagonalizable 5x5 realization of the expected list."""
    blob = json.loads(text)
    listed = [Fraction(v) for v in blob["list"]]
    if sorted(listed) != sorted(values):
        return "artifact lists %s, expected %s" % (listed, sorted(values))
    cert = blob["certificate"]
    if cert["verdict"] != "pass":
        return "certificate verdict is %r" % cert["verdict"]
    C = parse_matrix(cert["matrix"])
    if any(v < 0 for r in C for v in r):
        return "certificate matrix has a negative entry"
    diag = {v: (values.count(v),) for v in set(values)}
    return spectrum_check(C, diag)
