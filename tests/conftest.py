"""Shared randomized generators for the test suite.

All generators plant known structure (spectra, Jordan blocks, block layouts)
so expected values are available exactly; randomness is always seeded by the
caller for reproducibility.
"""

from __future__ import annotations

import random
from fractions import Fraction

from nnspectra.core import (
    RationalMatrix,
    Spectrum,
    companion_matrix,
    permutation_matrix,
    poly_from_roots,
)
from nnspectra.rowsum import to_constant_row_sums


def suleimanova_values(rng: random.Random, n: int, allow_repeats: bool = True):
    """A rational list {lam1, -mu2, ..., -mun} with lam1 >= sum(mu) > 0.

    The negated entries make the companion matrix of the characteristic
    polynomial nonnegative and irreducible, with lam1 a simple Perron root.
    """
    mus = []
    while len(mus) < n - 1:
        if allow_repeats and mus and rng.random() < 0.3:
            mus.append(mus[-1])
        else:
            mus.append(Fraction(rng.randint(1, 6), rng.randint(1, 3)))
    lam1 = sum(mus) + Fraction(rng.randint(0, 8), rng.randint(1, 2))
    if lam1 == 0:
        lam1 = Fraction(1)
    return [lam1] + [-m for m in mus]


def suleimanova_companion(rng: random.Random, n: int, allow_repeats: bool = True):
    """(irreducible nonnegative matrix, its exact spectrum values)."""
    values = suleimanova_values(rng, n, allow_repeats)
    C = companion_matrix(poly_from_roots(values))
    assert C.is_nonnegative
    return C, values


def random_cs_matrix(rng: random.Random, n: int, allow_repeats: bool = True):
    """Constant-row-sum nonnegative matrix with a fully rational spectrum."""
    C, values = suleimanova_companion(rng, n, allow_repeats)
    result = to_constant_row_sums(C, mode="exact")
    return result.B, values


def random_positive_diagonal(rng: random.Random, n: int):
    return [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n)]


def random_permutation(rng: random.Random, n: int):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def scramble(rng: random.Random, A: RationalMatrix) -> RationalMatrix:
    """Random permutation plus positive diagonal similarity (keeps the
    nonnegativity, spectrum, and Jordan structure)."""
    n = A.rows
    P = permutation_matrix(random_permutation(rng, n))
    M = P @ A @ P.transpose()
    return M.diag_conjugate(random_positive_diagonal(rng, n))


def _random_coupling_block(rng: random.Random, rows: int, cols: int, nonzero=True):
    while True:
        data = [
            [
                Fraction(rng.randint(0, 2), rng.randint(1, 2))
                if rng.random() < 0.6
                else Fraction(0)
                for _ in range(cols)
            ]
            for _ in range(rows)
        ]
        M = RationalMatrix(data)
        if not nonzero or any(v != 0 for row in data for v in row):
            return M


def planted_reducible(rng: random.Random, layout: str):
    """Nonnegative matrix with planted block layout and rational spectrum.

    Layouts: 'chain' (every later block couples into the absorbed part),
    'isolated' (fully decoupled blocks), 'mixed', 'cluster' (a decoupled
    two-block chain), 'bottom' (the Perron block feeds an earlier block,
    exercising the transpose path).  Returns (matrix, spectrum values).
    The global Perron root is made strictly dominant and simple.
    """
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
    blocks = []
    all_values = []
    bumps = rng.sample(range(50, 90), len(sizes))
    for idx, size in enumerate(sizes):
        if size == 1:
            val = Fraction(bumps[idx], 25) if idx == 0 else Fraction(rng.randint(0, 2))
            blocks.append(RationalMatrix([[val]]))
            all_values.append([val])
        else:
            values = suleimanova_values(rng, size)
            if idx == 0:
                values[0] += Fraction(bumps[idx], 25)
            else:
                # shrink the whole sub-list; uniform scaling keeps the
                # companion's coefficient signs, hence its nonnegativity
                shrink = Fraction(rng.randint(1, 3), 4 * max(1, int(values[0])))
                values = [v * shrink for v in values]
            C = companion_matrix(poly_from_roots(values))
            assert C.is_nonnegative
            blocks.append(C)
            all_values.append(values)
    # block 0 carries the Perron root; make dominance strict
    perron = max(abs(v) for vals in all_values for v in vals)
    if abs(all_values[0][0]) < perron + 1:
        bump = perron + 1 - all_values[0][0]
        vals0 = list(all_values[0])
        vals0[0] += bump
        if len(vals0) > 1:
            C0 = companion_matrix(poly_from_roots(vals0))
        else:
            C0 = RationalMatrix([[vals0[0]]])
        blocks[0] = C0
        all_values[0] = vals0

    k = len(blocks)
    grid = [
        [
            blocks[i]
            if i == j
            else RationalMatrix.zeros(blocks[i].rows, blocks[j].cols)
            for j in range(k)
        ]
        for i in range(k)
    ]
    if layout in ("chain", "mixed"):
        for i in range(1, k):
            if layout == "mixed" and i == k - 1 and k > 2:
                break  # leave the last block isolated
            target = rng.randrange(0, i)
            grid[i][target] = _random_coupling_block(
                rng, blocks[i].rows, blocks[target].cols
            )
    elif layout == "cluster" and k >= 3:
        grid[2][1] = _random_coupling_block(rng, blocks[2].rows, blocks[1].cols)
    elif layout == "bottom":
        # move the Perron block last and couple it into an earlier block
        order = list(range(1, k)) + [0]
        blocks = [blocks[i] for i in order]
        all_values = [all_values[i] for i in order]
        grid = [
            [
                blocks[i]
                if i == j
                else RationalMatrix.zeros(blocks[i].rows, blocks[j].cols)
                for j in range(k)
            ]
            for i in range(k)
        ]
        grid[k - 1][0] = _random_coupling_block(
            rng, blocks[k - 1].rows, blocks[0].cols
        )
    A = RationalMatrix.from_blocks(grid)
    values = [v for vals in all_values for v in vals]
    return A, values


def random_realization_with_rational_spectrum(rng: random.Random):
    """Random nonnegative matrix (n <= 8) with known rational spectrum and a
    verified-simple rational Perron root, scrambled by similarity."""
    A, spectrum, _layout = random_layout_realization(rng)
    return A, spectrum


def random_layout_realization(rng: random.Random):
    """random_realization_with_rational_spectrum plus the name of the planted layout."""
    layout = rng.choice(["irreducible", "chain", "isolated", "mixed", "cluster", "bottom"])
    if layout == "irreducible":
        A, values = suleimanova_companion(rng, rng.randint(2, 6))
    else:
        A, values = planted_reducible(rng, layout)
    spectrum = Spectrum.from_values(values)
    # the reduction needs algebraic simplicity of the (positive) Perron root;
    # a modulus tie like {4/3, -4/3} is allowed
    assert spectrum.perron > 0 and spectrum.multiplicity(spectrum.perron) == 1
    if layout != "bottom":
        A = scramble(rng, A)
    else:
        # keep the diagonal scramble only; a permutation is harmless but the
        # planted transpose shape is easier to eyeball in failures
        A = A.diag_conjugate(random_positive_diagonal(rng, A.rows))
    return A, spectrum, layout


def random_invertible(rng: random.Random, n: int, span: int = 2) -> RationalMatrix:
    from nnspectra.core import determinant

    while True:
        M = RationalMatrix(
            [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
        )
        if determinant(M) != 0:
            return M


def random_jordan_spec(rng: random.Random, n: int):
    """Random JordanSpec of total order n over small rational eigenvalues."""
    from nnspectra.core import JordanSpec

    values = []
    pool = [Fraction(a, b) for a in range(-3, 5) for b in (1, 2)]
    rng.shuffle(pool)
    remaining = n
    blocks = {}
    while remaining > 0:
        lam = pool.pop()
        mult = rng.randint(1, min(3, remaining))
        parts = []
        left = mult
        while left > 0:
            p = rng.randint(1, left)
            parts.append(p)
            left -= p
        blocks[lam] = sorted(parts, reverse=True)
        remaining -= mult
    return JordanSpec.from_map(blocks.items())
