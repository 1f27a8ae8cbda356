"""Seeded inputs for the benchmark workloads, built from plain Fractions.

The logic follows the randomized generators of the test suite (Suleimanova
companions, similarity scrambles, planted block layouts) but lives here, so
that later edits to the tests cannot move the benchmark.  Nothing in this
file imports nnspectra: matrices are tuples of tuples of Fraction, and the
workloads convert them to the program's types before the timed phase.

Generators take two `random.Random` streams: `rng`, seeded from the
benchmark's --seed, draws the values; `shape`, seeded from the workload
name alone, draws the structure (orders, block sizes, repeated
eigenvalues, which block couples where, the zero patterns of coupling
blocks) and the denominators of the drawn fractions.  So every seed runs
the same mix of shapes with entries of similar sizes, and the run-to-run
spread reflects the program, not a lucky draw of small matrices.  `digest`
fingerprints the result.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# small exact helpers
# ---------------------------------------------------------------------------


def poly_from_roots(roots):
    """Monic coefficients of prod (x - r), descending powers."""
    p = [Fraction(1)]
    for r in roots:
        q = p + [Fraction(0)]
        for i, c in enumerate(p):
            q[i + 1] -= c * r
        p = q
    return p


def companion(p):
    """Superdiagonal ones, last row of negated coefficients."""
    n = len(p) - 1
    rows = [[Fraction(int(j == i + 1)) for j in range(n)] for i in range(n - 1)]
    rows.append([-p[n - k] for k in range(n)])
    return tuple(tuple(r) for r in rows)


def conjugate(A, perm, d):
    """D^-1 P A P^T D with (P A P^T)[i][j] = A[perm[i]][perm[j]], D = diag(d)."""
    n = len(A)
    return tuple(
        tuple(A[perm[i]][perm[j]] * d[j] / d[i] for j in range(n)) for i in range(n)
    )


def block_diag_with(blocks, couplings):
    """Block lower/upper matrix from diagonal blocks and {(i, j): block}."""
    offsets = [0]
    for b in blocks:
        offsets.append(offsets[-1] + len(b))
    n = offsets[-1]
    M = [[Fraction(0)] * n for _ in range(n)]
    for k, b in enumerate(blocks):
        for i, row in enumerate(b):
            M[offsets[k] + i][offsets[k] : offsets[k] + len(row)] = row
    for (bi, bj), b in couplings.items():
        for i, row in enumerate(b):
            M[offsets[bi] + i][offsets[bj] : offsets[bj] + len(row)] = row
    return tuple(tuple(r) for r in M)


def strongly_connected(A):
    n = len(A)

    def reach(edge):
        seen, stack = {0}, [0]
        while stack:
            u = stack.pop()
            for v in range(n):
                if v not in seen and edge(u, v):
                    seen.add(v)
                    stack.append(v)
        return len(seen) == n

    return reach(lambda u, v: A[u][v] > 0) and reach(lambda u, v: A[v][u] > 0)


def int_det(M):
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    m = [list(r) for r in M]
    n = len(m)
    sign, prev = 1, 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        for r in range(c + 1, n):
            for k in range(c + 1, n):
                m[r][k] = (m[r][k] * m[c][c] - m[r][c] * m[c][k]) // prev
        prev = m[c][c]
    return sign * m[n - 1][n - 1]


# ---------------------------------------------------------------------------
# planted rational spectra (the layouts of acceptance criterion 5)
# ---------------------------------------------------------------------------


def suleimanova_values(rng, shape, n):
    """{lam1, -mu2, ..., -mun} with lam1 >= sum(mu) > 0: a nonnegative,
    irreducible companion with lam1 a simple Perron root."""
    mus = []
    while len(mus) < n - 1:
        if mus and shape.random() < 0.3:
            mus.append(mus[-1])
        else:
            mus.append(Fraction(rng.randint(1, 6), shape.randint(1, 3)))
    lam1 = sum(mus) + Fraction(rng.randint(0, 8), shape.randint(1, 2))
    return [lam1 or Fraction(1)] + [-m for m in mus]


def random_positive_diagonal(rng, shape, n):
    return [Fraction(rng.randint(1, 5), shape.randint(1, 3)) for _ in range(n)]


def scramble(rng, shape, A):
    """Random permutation plus positive diagonal similarity."""
    perm = list(range(len(A)))
    rng.shuffle(perm)
    return conjugate(A, perm, random_positive_diagonal(rng, shape, len(A)))


def _coupling_block(rng, shape, rows, cols):
    """Nonzero block; the zero pattern and denominators come from `shape`."""
    while True:
        pattern = [[shape.random() < 0.4 for _ in range(cols)] for _ in range(rows)]
        if any(any(r) for r in pattern):
            break
    return [
        [Fraction(rng.randint(1, 2), shape.randint(1, 2)) if nz else Fraction(0) for nz in r]
        for r in pattern
    ]


def planted_reducible(rng, shape, layout):
    """Reducible nonnegative matrix with a planted block layout.

    'chain': every later block couples into an earlier one; 'isolated':
    fully decoupled blocks; 'mixed': a chain with the last block left
    isolated; 'cluster': a decoupled two-block chain; 'bottom': the Perron
    block is last and feeds an earlier block.  Block 0 (before reordering)
    carries a strictly dominant simple Perron root.
    """
    sizes = [shape.randint(1, 3) for _ in range(shape.randint(2, 3))]
    bumps = rng.sample(range(50, 90), len(sizes))
    values = []
    for idx, size in enumerate(sizes):
        if size == 1:
            val = Fraction(bumps[idx], 25) if idx == 0 else Fraction(rng.randint(0, 2))
            values.append([val])
            continue
        vals = suleimanova_values(rng, shape, size)
        if idx == 0:
            vals[0] += Fraction(bumps[idx], 25)
        else:
            # uniform scaling keeps the companion's coefficient signs
            shrink = Fraction(rng.randint(1, 3), 4 * max(1, int(vals[0])))
            vals = [v * shrink for v in vals]
        values.append(vals)
    perron = max(abs(v) for vals in values for v in vals)
    if abs(values[0][0]) < perron + 1:
        values[0][0] += perron + 1 - values[0][0]
    blocks = [
        companion(poly_from_roots(vals)) if len(vals) > 1 else ((vals[0],),)
        for vals in values
    ]
    k = len(blocks)
    couplings = {}
    if layout in ("chain", "mixed"):
        for i in range(1, k):
            if layout == "mixed" and i == k - 1 and k > 2:
                break
            target = shape.randrange(0, i)
            couplings[(i, target)] = _coupling_block(rng, shape, len(blocks[i]), len(blocks[target]))
    elif layout == "cluster" and k >= 3:
        couplings[(2, 1)] = _coupling_block(rng, shape, len(blocks[2]), len(blocks[1]))
    elif layout == "bottom":
        order = list(range(1, k)) + [0]
        blocks = [blocks[i] for i in order]
        values = [values[i] for i in order]
        couplings[(k - 1, 0)] = _coupling_block(rng, shape, len(blocks[k - 1]), len(blocks[0]))
    return block_diag_with(blocks, couplings), [v for vals in values for v in vals]


def planted_rational(rng, shape, layout):
    """(matrix, spectrum values, Perron root) for one criterion-5 layout."""
    if layout == "irreducible":
        values = suleimanova_values(rng, shape, shape.randint(2, 6))
        A = companion(poly_from_roots(values))
    else:
        A, values = planted_reducible(rng, shape, layout)
    lam = max(values)
    if lam <= 0 or values.count(lam) != 1 or any(abs(v) > lam for v in values):
        raise AssertionError("planted Perron root is not simple and dominant")
    if layout == "bottom":
        # diagonal scramble only, as in criterion 5
        A = conjugate(A, list(range(len(A))), random_positive_diagonal(rng, shape, len(A)))
    else:
        A = scramble(rng, shape, A)
    return A, values, lam


def irrational_irreducible(rng, shape):
    """Irreducible nonnegative integer matrix with a provably irrational
    Perron root.

    The char poly is monic with integer coefficients, so any rational root
    is an integer.  The Perron root lies within 1/2 of numpy's estimate, and
    det(kI - A) != 0 for every integer k within 1 of that estimate, so the
    Perron root is irrational.
    """
    n = shape.randint(3, 7)
    while True:
        A = tuple(
            tuple(rng.randint(1, 4) if rng.random() < 0.5 else 0 for _ in range(n))
            for _ in range(n)
        )
        if not strongly_connected(A):
            continue
        rho = float(np.max(np.abs(np.linalg.eigvals(np.array(A, dtype=float)))))
        candidates = range(math.floor(rho) - 1, math.ceil(rho) + 2)
        if all(
            int_det([[k * (i == j) - A[i][j] for j in range(n)] for i in range(n)]) != 0
            for k in candidates
        ):
            return tuple(tuple(Fraction(v) for v in r) for r in A)


# ---------------------------------------------------------------------------
# shift-scaling and realize5 points
# ---------------------------------------------------------------------------


def scrambled_companion(rng, shape, n):
    """(scrambled Suleimanova companion, its spectrum values)."""
    values = suleimanova_values(rng, shape, n)
    return scramble(rng, shape, companion(poly_from_roots(values))), values


def family_values(family, t0, t):
    if family == "t":
        return (3 + t - t0, 3 - t, -2 + t0, Fraction(-2), Fraction(-2))
    return (3 + t + t0, 3 - t, Fraction(-2), Fraction(-2), -2 - t0)


def region_boundary(family, t0):
    """Closed-form lower boundary of t (acceptance criterion 3)."""
    s = float(t0)
    if family == "t":
        inner = 16 * math.sqrt(6 - s) * (4 - s) - 3 * s * s + 52 * s - 156
        return (s + math.sqrt(inner)) / 2
    inner = 16 * math.sqrt(6 + s) * (4 + s) - 3 * s * s - 52 * s - 156
    return (-s + math.sqrt(inner)) / 2


def region_point(rng, family, inside, step=Fraction(1, 400)):
    """Random point of the fine grid in the open parameter triangle (family
    t: 0 < t0 < 2t < 2; tprime: t0, t > 0, t0 + t < 1) on the requested side
    of the closed-form boundary.  Points within 1e-9 of the boundary are
    redrawn, so the float formula decides every point unambiguously."""
    d = step.denominator // step.numerator
    while True:
        t = rng.randint(1, d - 1) * step
        if family == "t":
            t0 = rng.randint(1, int(2 * t / step) - 1) * step
        else:
            t0 = rng.randint(1, d - 1) * step
            if not t0 + t < 1:
                continue
        gap = float(t) - region_boundary(family, t0)
        if abs(gap) > 1e-9 and (gap > 0) == inside:
            return t0, t


# ---------------------------------------------------------------------------
# fingerprint
# ---------------------------------------------------------------------------


def digest(obj) -> str:
    """Stable 16-hex fingerprint of nested tuples/lists of Fractions and str."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, (tuple, list)):
            h.update(b"[")
            for y in x:
                feed(y)
            h.update(b"]")
        else:
            h.update(str(x).encode() + b",")

    feed(obj)
    return h.hexdigest()[:16]
