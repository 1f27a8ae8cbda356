"""Exact rational scalars, dense matrices, polynomials, and the shared domain types.

Exact scalars are `fractions.Fraction`.  A RationalMatrix is stored once,
as integer numerator rows over one common denominator, and the exact
kernels (char poly, elimination, rank, determinant, solve, kernel) and
their callers read those integer rows: no matrix is cleared of its
denominators twice, and its Fractions are built from that form on request.
One integer matrix product, behind `@`, the Weyr powers and the
similarity check that ends every exact normalization, takes both factors by
rows and pays per nonzero entry, not per entry of the result.
Floating point exists only in region sampling and in float mode, whose
working and result type `FloatMatrix` is never an input: float mode converts
its exact input with `to_float`.  Decimal strings such as "2.52" are parsed
as exact rationals (63/25), never as floats, so file and CLI inputs
reproduce bit-exactly.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import accumulate, chain, repeat

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    SingularMatrixError,
)

Rational = Fraction

# decimal exponents are bounded like digit strings: by the interpreter's
# default int/str conversion limit
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e([-+]?[0-9_]+)$", re.IGNORECASE)


def rat(value) -> Fraction:
    """Parse an exact rational from int, Fraction, or string ("3", "11/2", "2.52").

    Floats, bools, malformed strings, zero denominators, over-long digit
    strings and decimal exponents beyond _MAX_EXPONENT raise DomainError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (bool, float)):
        raise DomainError(
            "refusing to coerce %s %r; pass a string or Fraction for exactness"
            % (type(value).__name__, value)
        )
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            exponent = _EXPONENT.search(text)
            if exponent and abs(int(exponent.group(1))) > _MAX_EXPONENT:
                raise ValueError("decimal exponent beyond +-%d" % _MAX_EXPONENT)
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            shown = text if len(text) <= 40 else text[:37] + "..."
            raise DomainError("cannot parse %r as a rational: %s" % (shown, exc)) from None
    raise DomainError("cannot interpret %r as a rational" % (value,))


def format_rational(x: Fraction) -> str:
    """x, an int or a Fraction, as "p" or "p/q" in lowest terms; DomainError
    past the interpreter's int/str digit limit."""
    return _format_ratio(x.numerator, x.denominator)


def _format_ratio(p, q) -> str:
    """The rational p/q, for integers p and q > 0, as format_rational
    writes it."""
    g = math.gcd(p, q)
    try:
        if q == g:
            return str(p // g)
        return "%d/%d" % (p // g, q // g)
    except ValueError:
        raise DomainError(
            "an output number has more than %d digits, past the interpreter's "
            "limit for converting an integer to a string" % sys.get_int_max_str_digits()
        ) from None


class RationalMatrix:
    """Immutable dense matrix over exact rationals.

    A matrix is stored in one canonical integer form: `num`, its rows of
    integer numerators, over one common denominator `den`, the lcm of the
    entries' denominators in lowest terms, so that entry (i, j) is
    num[i][j] / den.  The form is built once, when the matrix is built, and
    it is all a matrix stores: equality, hashing and the exact kernels read
    it, and the accessors build their Fractions from it on each call.
    """

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, data):
        self._fill(*_clear([[rat(v) for v in row] for row in data]))

    @classmethod
    def _of_ints(cls, rows, d=1) -> "RationalMatrix":
        """The matrix rows / d, for integer rows and a nonzero integer d,
        reduced to its canonical form (den > 0, no factor shared by den and
        every numerator); no Fraction is made."""
        num = tuple(map(tuple, rows))
        if d != 1:
            g = math.gcd(d, *chain.from_iterable(num))
            if d < 0:
                g = -g
            if g != 1:
                num = tuple(tuple(v // g for v in row) for row in num)
                d //= g
        return cls._canonical(num, d)

    @classmethod
    def _canonical(cls, num, d) -> "RationalMatrix":
        """A matrix of integer rows num (tuples) over d, already canonical."""
        M = object.__new__(cls)
        M._fill(num, d)
        return M

    def _fill(self, num, d):
        """Store the integer form num / d."""
        if not num or not num[0]:
            raise DimensionError("matrix needs at least one row and one column")
        ncols = len(num[0])
        if len(set(map(len, num))) > 1:
            raise DimensionError("ragged rows")
        set_ = object.__setattr__
        set_(self, "rows", len(num))
        set_(self, "cols", ncols)
        set_(self, "num", num)
        set_(self, "den", d)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    # -- constructors -----------------------------------------------------
    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._of_ints([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls._of_ints([[0] * cols for _ in range(rows)])

    @classmethod
    def diagonal(cls, entries) -> "RationalMatrix":
        ents = list(entries)
        n = len(ents)
        return cls([[ents[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_blocks(cls, grid) -> "RationalMatrix":
        """Assemble from a 2-D grid of conforming RationalMatrix blocks.

        The lcm of the blocks' denominators is the canonical denominator of
        the whole, so the blocks' integer rows are only rescaled to it."""
        d = math.lcm(*(b.den for block_row in grid for b in block_row))
        num = []
        for block_row in grid:
            if not block_row:
                raise DimensionError("empty block row")
            height = block_row[0].rows
            if any(b.rows != height for b in block_row):
                raise DimensionError("block heights disagree")
            scaled = [
                b.num if b.den == d else [[v * (d // b.den) for v in r] for r in b.num]
                for b in block_row
            ]
            num.extend(tuple(chain.from_iterable(parts)) for parts in zip(*scaled))
        return cls._canonical(tuple(num), d)

    # -- access ------------------------------------------------------------
    def __getitem__(self, key):
        i, j = key
        return Fraction(self.num[i][j], self.den)

    def row(self, i):
        d = self.den
        return tuple(Fraction(v, d) for v in self.num[i])

    def column_entries(self, j):
        d = self.den
        return tuple(Fraction(r[j], d) for r in self.num)

    def entries(self):
        """The rows as tuples of Fractions, built from num / den."""
        return tuple(map(self.row, range(self.rows)))

    def submatrix(self, row_idx, col_idx) -> "RationalMatrix":
        num = self.num
        return RationalMatrix._of_ints([[num[i][j] for j in col_idx] for i in row_idx], self.den)

    # -- predicates ----------------------------------------------------------
    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_nonnegative(self) -> bool:
        # den > 0: an entry's sign is its numerator's
        return min(map(min, self.num)) >= 0

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.den, self.num))

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """self + sign other, over the lcm of the two denominators."""
        self._conform(other)
        d = math.lcm(self.den, other.den)
        s, t = d // self.den, sign * (d // other.den)
        return RationalMatrix._of_ints(
            [[a * s + b * t for a, b in zip(ra, rb)] for ra, rb in zip(self.num, other.num)], d
        )

    def _conform(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError(
                "shape mismatch: %dx%d vs %dx%d"
                % (self.rows, self.cols, other.rows, other.cols)
            )

    def scale(self, c) -> "RationalMatrix":
        c = rat(c)
        p, q = c.numerator, c.denominator
        return RationalMatrix._of_ints([[p * v for v in r] for r in self.num], self.den * q)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise DimensionError(
                "cannot multiply %dx%d by %dx%d"
                % (self.rows, self.cols, other.rows, other.cols)
            )
        return RationalMatrix._of_ints(_integer_product(self.num, other.num), self.den * other.den)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix._canonical(tuple(zip(*self.num)), self.den)

    def row_sums(self):
        d = self.den
        return tuple(Fraction(sum(r), d) for r in self.num)

    def mat_vec(self, v):
        if len(v) != self.cols:
            raise DimensionError("vector length %d != cols %d" % (len(v), self.cols))
        (x,), w = _clear([v])
        d = self.den * w
        return tuple(Fraction(sum(map(operator.mul, row, x)), d) for row in self.num)

    def __repr__(self):
        body = "; ".join(
            " ".join(format_rational(v) for v in row) for row in self.entries()
        )
        return "RationalMatrix[%s]" % body


def _clear(rows):
    """The integer form of Fraction rows: (integer numerator rows, d), d the
    lcm of the denominators.  The one place where Fractions are cleared."""
    ratios = [[v.as_integer_ratio() for v in row] for row in rows]
    d = math.lcm(*[q for row in ratios for _, q in row])
    return tuple(tuple([p * (d // q) for p, q in row]) for row in ratios), d


# ---------------------------------------------------------------------------
# float mirror
# ---------------------------------------------------------------------------


class FloatMatrix:
    """Float mode's working and result type, never an input; finite entries only."""

    __slots__ = ("array",)

    def __init__(self, array):
        arr = np.asarray(array, dtype=float)
        if arr.ndim != 2:
            raise DimensionError("FloatMatrix needs a 2-D array")
        if not np.all(np.isfinite(arr)):
            raise DomainError("FloatMatrix entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)

    def __setattr__(self, name, value):
        raise AttributeError("FloatMatrix is immutable")

    def __repr__(self):
        return "FloatMatrix(%r)" % (self.array.tolist(),)


def to_float(A: RationalMatrix) -> FloatMatrix:
    """A in float64, each entry num / den rounded once (int / int is
    correctly rounded, as float() of a Fraction is); DomainError names an
    entry beyond or below the float range."""
    num, d = A.num, A.den
    try:
        rows = [[v / d for v in row] for row in num]
    except OverflowError:
        # the entry of largest modulus overflows first
        _, i, j = max((abs(v), i, j) for i, row in enumerate(num) for j, v in enumerate(row))
        raise DomainError("entry (%d,%d) is beyond the float64 range" % (i, j)) from None
    for i, (row, floats) in enumerate(zip(num, rows)):
        for j, (v, x) in enumerate(zip(row, floats)):
            if v and not x:
                raise DomainError("entry (%d,%d) is below the float64 range" % (i, j))
    return FloatMatrix(rows)


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------


def _shifted(lam, K: RationalMatrix) -> RationalMatrix:
    """lam I - K for a square K, from K's integer form: with K = K'/k,
    it is (lam.num k I - lam.den K') / (k lam.den)."""
    p, q, k = lam.numerator, lam.denominator, K.den
    pk = p * k
    rows = [[-q * v for v in row] for row in K.num]
    for i, row in enumerate(rows):
        row[i] += pk
    return RationalMatrix._of_ints(rows, k * q)


def _integer_product(X, Y):
    """The integer matrix product X Y, both factors given by their rows.

    Row i of X Y is the combination of Y's rows weighted by the nonzero
    entries of row i of X (Gustavson's row-by-row product), so the cost is
    one C-level map over a row of Y per nonzero of X, not one dot product
    per entry: the terms are summed column-wise by `sum` over their zip, a
    single term is copied, and an all-zero row of X gives a row of zeros.
    Every output row is a new list.
    """
    width = len(Y[0])
    out = []
    for row in X:
        terms = [map(operator.mul, y, repeat(x)) for x, y in zip(row, Y) if x]
        if len(terms) > 1:
            out.append(list(map(sum, zip(*terms))))
        elif terms:
            out.append(list(terms[0]))
        else:
            out.append([0] * width)
    return out


def _eliminate(rows, pivot_cols):
    """Fraction-free (Bareiss) forward elimination of integer rows.

    Each row is copied and divided by its content (the gcd of its entries)
    first, so elimination starts from the smallest integer multiple of every
    row.  Returns (echelon rows, pivot columns, sign of the row swaps,
    product of the contents).
    """
    m, contents = [], 1
    for row in rows:
        g = math.gcd(*row)
        if g > 1:
            m.append([v // g for v in row])
            contents *= g
        else:
            m.append(list(row))
    pivots, sign = _bareiss(m, pivot_cols)
    return m, pivots, sign, contents


def _bareiss(m, pivot_cols):
    """Fraction-free forward elimination of the integer rows m, in place.

    Pivot rule: columns left to right among the first `pivot_cols`, first
    row with a nonzero entry; each update divides exactly by the previous
    pivot.  Stops once every row has a pivot.  Returns (pivot columns, sign
    of the row swaps).
    """
    pivots = []
    sign = prev = 1
    for c in range(pivot_cols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            sign = -sign
        piv, rest = m[r][c], m[r][c + 1 :]
        for row in m[r + 1 :]:
            f = row[c]
            row[c + 1 :] = [(v * piv - f * w) // prev for v, w in zip(row[c + 1 :], rest)]
            row[c] = 0
        prev = piv
        pivots.append(c)
        if len(pivots) == len(m):
            break
    return pivots, sign


# the word-size prime of _nonzero_mod_prime: the Mersenne prime 2^61 - 1
_PRIME = 2**61 - 1


def _nonzero_mod_prime(rows) -> bool:
    """Whether det of the square integer rows is nonzero modulo _PRIME, by
    fraction-free elimination over GF(_PRIME).

    True proves det != 0 over Z; False proves nothing, since a nonzero
    determinant may be a multiple of the prime.  A row is updated as
    pivot * row - f * pivot row, which scales det by the pivot, a unit
    modulo the prime, so no inverse is taken; a row that is already 0 in the
    pivot column is skipped, so a triangular or diagonal matrix costs O(n^2).
    """
    p = _PRIME
    m = [[v % p for v in row] for row in rows]
    n = len(m)
    for c in range(n):
        for r in range(c, n):
            if m[r][c]:
                break
        else:
            return False
        m[c], m[r] = m[r], m[c]
        pivot, tail = m[c][c], m[c][c + 1 :]
        for row in m[c + 1 :]:
            f = row[c]
            if f:
                row[c + 1 :] = [(v * pivot - f * w) % p for v, w in zip(row[c + 1 :], tail)]
    return True


def _is_singular(A: RationalMatrix) -> bool:
    """det A == 0: a determinant of A's integer rows that is nonzero modulo
    _PRIME settles it at once, and only a zero residue takes the
    fraction-free elimination."""
    return not _nonzero_mod_prime(A.num) and len(_eliminate(A.num, A.cols)[1]) < A.rows


def _back_substitute(m, pivots, col):
    """d x, for the x that solves the echelon rows m against column `col`,
    at the pivot columns; d = _last_pivot(m, pivots).

    d is the determinant of the pivot system, so d x is an integer vector
    (Cramer's rule) and every division below is exact.
    """
    d = _last_pivot(m, pivots)
    y = [0] * len(pivots)
    for i in reversed(range(len(pivots))):
        row = m[i]
        acc = d * row[col]
        for k in range(i + 1, len(pivots)):
            acc -= row[pivots[k]] * y[k]
        y[i] = acc // row[pivots[i]]
    return y


def _last_pivot(m, pivots):
    return m[len(pivots) - 1][pivots[-1]] if pivots else 1


def exact_rank(A: RationalMatrix) -> int:
    """Rank over Q: the number of pivots of the fraction-free elimination."""
    return len(_eliminate(A.num, A.cols)[1])


def determinant(A: RationalMatrix) -> Fraction:
    if not A.is_square:
        raise DimensionError("determinant of non-square matrix")
    m, pivots, sign, contents = _eliminate(A.num, A.cols)
    if len(pivots) < A.rows:
        return Fraction(0)
    # the last Bareiss pivot is the determinant of the swapped rows, each
    # divided by its content; A is those rows times the contents over den
    return Fraction(sign * m[-1][-1] * contents, A.den**A.rows)


def solve(A: RationalMatrix, B: RationalMatrix) -> RationalMatrix:
    """Exact solution X of A X = B; raises SingularMatrixError when singular."""
    if not A.is_square:
        raise DimensionError("solve needs a square matrix")
    if A.rows != B.rows:
        raise DimensionError("right-hand side height mismatch")
    n = A.rows
    # A X = B iff (d/a) A' X = (d/b) B', for A = A'/a, B = B'/b, d = lcm(a, b)
    d = math.lcm(A.den, B.den)
    s, t = d // A.den, d // B.den
    rows = [
        [v * s for v in ra] + [v * t for v in rb] if d > 1 else ra + rb
        for ra, rb in zip(A.num, B.num)
    ]
    m, pivots, _, _ = _eliminate(rows, n)
    if len(pivots) < n:
        raise SingularMatrixError("singular system")
    columns = [_back_substitute(m, pivots, n + j) for j in range(B.cols)]
    return RationalMatrix._of_ints(zip(*columns), _last_pivot(m, pivots))


def inverse(A: RationalMatrix) -> RationalMatrix:
    return solve(A, RationalMatrix.identity(A.rows))


def kernel(A: RationalMatrix, primitive=False):
    """Basis of the right null space, deterministic (one vector per free column).

    Each vector is 1 at its free column, 0 at the other free columns, and
    Fractions elsewhere; with primitive=True it is the same vector as
    integers times the least positive scalar that clears it, with content 1.
    """
    m, pivots, _, _ = _eliminate(A.num, A.cols)
    d = _last_pivot(m, pivots)
    basis = []
    for fc in (c for c in range(A.cols) if c not in pivots):
        # d at the free column, minus d times its reduced echelon entry at each pivot
        vec = [0] * A.cols
        vec[fc] = d
        for pc, value in zip(pivots, _back_substitute(m, pivots, fc)):
            vec[pc] = -value
        if primitive:
            g = math.gcd(*vec) if d > 0 else -math.gcd(*vec)
            basis.append(tuple(v // g for v in vec))
        else:
            basis.append(tuple(Fraction(v, d) for v in vec))
    return basis


def char_poly(A: RationalMatrix):
    """Coefficients of det(xI - A), monic, descending powers: with N = d A,
    A's integer form over its denominator d, coefficient k of det(xI - N)
    is d^k times that of A.  The runtime reads only that integer form."""
    return _rational_poly(_char_poly_int(A.num), A.den)


def _rational_poly(c, d):
    """The rational poly whose integer form over d is c: coefficient k is
    c_k / d^k."""
    return [Fraction(ck, d**k) for k, ck in enumerate(c)]


def _rescaled_poly(c, s):
    """det(yI - s N) from c = det(yI - N): coefficient k times s^k."""
    return [ck * s**k for k, ck in enumerate(c)]


def _char_poly_int(N):
    """Integer coefficients of det(yI - N) for square integer rows N, monic,
    descending powers; ragged or non-square rows raise DimensionError.

    Berkowitz's division-free algorithm: bordering the leading r x r block M
    by the column s, the row rho and the corner a multiplies its char poly
    by the lower-triangular Toeplitz matrix with first column (1, -a,
    -rho s, -rho M s, ..., -rho M^(r-1) s).
    """
    if any(len(row) != len(N) for row in N):
        raise DimensionError("characteristic polynomial of non-square matrix")
    c = [1]
    for r, row in enumerate(N):
        t, v = [1, -row[r]], [N[i][r] for i in range(r)]
        for k in range(r):
            t.append(-sum(map(operator.mul, row, v)))
            if k < r - 1:
                v = [sum(map(operator.mul, N[i], v)) for i in range(r)]
        c = [sum(t[i - j] * c[j] for j in range(min(i, r) + 1)) for i in range(r + 2)]
    return c


# ---------------------------------------------------------------------------
# polynomials (coefficient lists, monic, descending powers)
# ---------------------------------------------------------------------------


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] += a * b
    return out


def poly_eval(p, x):
    x = rat(x)
    acc = Fraction(0)
    for c in p:
        acc = acc * x + c
    return acc


def poly_from_roots(roots):
    """prod (x - r): the integer factors (q x - p) of r = p/q, divided once by prod q."""
    coeffs, scale = [1], 1
    for r in map(rat, roots):
        p, q = r.numerator, r.denominator
        coeffs = [a * q - b * p for a, b in zip(coeffs + [0], [0] + coeffs)]
        scale *= q
    return [Fraction(c, scale) for c in coeffs]


def _claim_poly_int(spectrum, d):
    """prod (y - d lam)^m over Z for the pairs (lam, m) of spectrum, highest
    coefficient first: d^n times the spectrum's char poly at y/d, so it
    equals _char_poly_int(N) for N = d A iff the spectrum is A's.  None when
    some d lam is not an integer: such a claim is no matrix's with integer
    form N over d, as the rational roots of a monic integer poly are
    integers.  No Fraction is made."""
    q = [1]
    for lam, m in spectrum.pairs:
        p, r = lam.numerator, lam.denominator
        if d % r:
            return None
        mu = p * (d // r)
        for _ in range(m):
            q = [a - mu * b for a, b in zip(q + [0], [0] + q)]
    return q


def _taylor(q, m):
    """The Taylor coefficients of the poly q at m, lowest first: the
    successive remainders of synthetic division by (x - m)."""
    while q:
        acc, quotient = 0, []
        for c in q:
            acc = acc * m + c
            quotient.append(acc)
        q = quotient[:-1]
        yield acc


def _value_and_slope(q, x):
    """(q(x), q'(x)) by one Horner pass."""
    value = slope = 0
    for c in q:
        slope = slope * x + value
        value = value * x + c
    return value, slope


def _root_ceiling(q, lo, hi):
    """The least integer m in [lo, hi] at which all Taylor coefficients of q
    are >= 0, or hi when none is.  It is ceil(r) when the root r of q of
    largest real part is real (and ceil(r) in [lo, hi]): for m >= r each
    factor y + m - z of q(y + m), or conjugate pair, has coefficients >= 0,
    and for m < r q(y + m) has the positive root r - m.

    The test is monotone in m, so any order of probes that keeps every m
    below the bracket failing and its top passing (or the given hi) returns
    the same m: Newton probes decided by the Taylor test, with bisection as
    the bounded fallback.  Newton's integer step x <- x - floor(q(x) /
    q'(x)) takes one Horner pass; for a real r, q is increasing and convex
    on (r, oo) (Gauss-Lucas), so the steps never drop below ceil(r).  Where
    a step rounds to 0, x - 1 is tested before x (or, when x - 1 passes,
    x - 2): below a simple root it fails at once on q(x - 1) < 0, so a
    ceiling costs one passing test.  Far above every root, a step cuts
    x - r only by about a factor 1 - 1/deg.  So the steps start at hi or,
    when it is lower, at a power of 2 no smaller than Fujiwara's bound
    2 max_k |q_k / q_0|^(1/k) on every |z|, which exceeds the largest |z|
    by a factor of order deg at most: a loose hi (a large row sum, the
    Cauchy bound) costs no long descent.  The budget is deg times
    (hi - lo).bit_length() steps, each one O(deg) Horner pass that lowers x
    by at least 1; when they run out, or a step fails (q(x) < 0, q'(x) <= 0
    or x at lo), x is tested once instead.  The bisection of [lo, hi] then
    settles what is left, and tests only the midpoints the probes left
    open: at most two tests more than the bisection alone.
    """

    def passes(m):
        return all(t >= 0 for t in _taylor(q, m))

    a, b = lo, hi
    # 2 << shift is at least Fujiwara's bound 2 max_k |q_k / q_0|^(1/k)
    top = q[0].bit_length()
    shift = max([0] + [-((top - c.bit_length() - 1) // k) for k, c in enumerate(q) if k and c])
    x, probes = min(hi, max(lo, 2 << shift)), 1
    for _ in range((len(q) - 1) * (hi - lo).bit_length()):
        value, slope = _value_and_slope(q, x)
        if value == 0 or 0 < value < slope:
            x, probes = x - 1, 2
            break
        if value < 0 or slope <= 0:
            break
        x -= value // slope
        if x <= lo:
            break
    for _ in range(probes):
        x = max(x, lo)
        if x >= hi:
            break
        if passes(x):
            hi, x = x, x - 1
        else:
            lo, x = x + 1, x + 1
    while lo < hi:
        mid = (a + b) // 2
        if mid < lo:
            a = mid + 1
        elif mid >= hi:
            b = mid
        elif passes(mid):
            b = hi = mid
        else:
            a = lo = mid + 1
    return lo


def synthetic_div(p, r):
    """Divide by (x - r), r an int or Fraction: returns (quotient, remainder)."""
    *quotient, remainder = accumulate(p, lambda acc, c: acc * r + c)
    return quotient, remainder


def poly_sub(p, q):
    lp, lq = len(p), len(q)
    width = max(lp, lq)
    pp = [Fraction(0)] * (width - lp) + [rat(c) for c in p]
    qq = [Fraction(0)] * (width - lq) + [rat(c) for c in q]
    diff = [a - b for a, b in zip(pp, qq)]
    while len(diff) > 1 and diff[0] == 0:
        diff.pop(0)
    return diff


def poly_to_string(p):
    n = len(p) - 1
    terms = []
    for i, c in enumerate(p):
        if c == 0:
            continue
        power = n - i
        base = format_rational(c)
        if power == 0:
            terms.append(base)
        elif power == 1:
            terms.append("%s*x" % base)
        else:
            terms.append("%s*x^%d" % (base, power))
    return " + ".join(terms) if terms else "0"


def companion_matrix(p) -> RationalMatrix:
    """Companion matrix (superdiagonal ones, last row of negated coefficients)."""
    if len(p) < 2 or p[0] != 1:
        raise DomainError("companion matrix needs a monic polynomial of degree >= 1")
    n = len(p) - 1
    rows = [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n - 1)]
    rows.append([-p[n - k] for k in range(n)])
    return RationalMatrix(rows)


def rational_sqrt(x: Fraction):
    """Exact square root when x is a perfect rational square, else None."""
    x = rat(x)
    if x < 0:
        return None
    sn = math.isqrt(x.numerator)
    sd = math.isqrt(x.denominator)
    if sn * sn == x.numerator and sd * sd == x.denominator:
        return Fraction(sn, sd)
    return None


# ---------------------------------------------------------------------------
# spectra and Jordan structures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Spectrum:
    """Multiset of exact rational eigenvalues with multiplicities.

    `pairs` lists the distinct values in descending order.  `perron` is the
    one Perron rule; whether it is simple is its multiplicity, which
    perturb.ur_shift reads.  A certified claim's spectrum is read off its
    Jordan form (JordanSpec.spectrum).
    """

    pairs: tuple

    @classmethod
    def from_values(cls, values) -> "Spectrum":
        vals = sorted((rat(v) for v in values), reverse=True)
        pairs = []
        for v in vals:
            if pairs and pairs[-1][0] == v:
                pairs[-1] = (v, pairs[-1][1] + 1)
            else:
                pairs.append((v, 1))
        return cls(tuple(pairs))

    def values(self):
        return tuple(v for v, m in self.pairs for _ in range(m))

    @property
    def order(self) -> int:
        return sum(m for _, m in self.pairs)

    @cached_property
    def perron(self) -> Fraction:
        """The value of largest modulus; of two that tie, the positive one."""
        return max((abs(v), v) for v, _ in self.pairs)[1]

    def multiplicity(self, value) -> int:
        value = rat(value)
        for v, m in self.pairs:
            if v == value:
                return m
        return 0

    def char_poly(self):
        return poly_from_roots(self.values())

    def to_json(self):
        return {"values": [format_rational(v) for v in self.values()]}

    @classmethod
    def from_json(cls, obj) -> "Spectrum":
        values = _json_list(obj, "values")
        if not values:
            raise DomainError("JSON field 'values' lists no eigenvalue")
        return cls.from_values(values)


def _block_size(value) -> int:
    """A Jordan block size: a positive integer; bools, floats and fractions are refused."""
    if isinstance(value, int) and not isinstance(value, bool):
        size = value
    else:
        r = None if isinstance(value, (bool, float)) else rat(value)
        size = r.numerator if r is not None and r.denominator == 1 else 0
    if size < 1:
        raise DomainError("block sizes must be positive integers (got %r)" % (value,))
    return size


def _weyr_of(sizes) -> tuple:
    """The cumulative Weyr sequence of the Jordan block sizes (decreasing)."""
    return tuple(accumulate(sum(1 for s in sizes if s >= k) for k in range(1, sizes[0] + 1)))


@dataclass(frozen=True)
class JordanSpec:
    """Segre data: eigenvalue -> weakly decreasing Jordan block sizes."""

    blocks: tuple  # ((eigenvalue, (sizes...)), ...) sorted ascending by eigenvalue

    @classmethod
    def from_map(cls, mapping) -> "JordanSpec":
        items = []
        for value, sizes in mapping.items() if isinstance(mapping, dict) else mapping:
            v = rat(value)
            szs = tuple(sorted((_block_size(s) for s in sizes), reverse=True))
            if not szs:
                raise DomainError("block sizes must be positive")
            items.append((v, szs))
        items.sort(key=lambda kv: kv[0])
        vals = [v for v, _ in items]
        if len(set(vals)) != len(vals):
            raise DomainError("duplicate eigenvalue in Jordan specification")
        return cls(tuple(items))

    @cached_property
    def _by_value(self) -> dict:
        """(numerator, denominator) of each value -> (block sizes, cumulative
        Weyr sequence), indexed once.  Integer pairs hash in C; a Fraction's
        hash takes a modular inverse."""
        return {(v.numerator, v.denominator): (sizes, _weyr_of(sizes)) for v, sizes in self.blocks}

    def _at(self, value):
        v = rat(value)
        return self._by_value.get((v.numerator, v.denominator), ((), ()))

    @property
    def order(self) -> int:
        return sum(sum(s) for _, s in self.blocks)

    @property
    def is_diagonal(self) -> bool:
        return all(size == 1 for _, sizes in self.blocks for size in sizes)

    def sizes_at(self, value):
        return self._at(value)[0]

    def spectrum(self) -> Spectrum:
        # blocks are sorted ascending by distinct values, pairs descending
        return Spectrum(tuple((v, sum(sizes)) for v, sizes in reversed(self.blocks)))

    def weyr_at(self, value):
        """Expected cumulative Weyr sequence implied by the Segre sizes."""
        return self._at(value)[1]

    def jordan_matrix(self) -> RationalMatrix:
        n = self.order
        data = [[Fraction(0)] * n for _ in range(n)]
        pos = 0
        for v, sizes in self.blocks:
            for s in sizes:
                for k in range(s):
                    data[pos + k][pos + k] = v
                    if k + 1 < s:
                        data[pos + k][pos + k + 1] = Fraction(1)
                pos += s
        return RationalMatrix(data)

    def to_json(self):
        return {
            "blocks": [
                [format_rational(v), list(sizes)] for v, sizes in self.blocks
            ]
        }

    @classmethod
    def from_json(cls, obj) -> "JordanSpec":
        blocks = _json_list(obj, "blocks")
        if not all(isinstance(b, list) and len(b) == 2 and isinstance(b[1], list) for b in blocks):
            raise DomainError("JSON field 'blocks' must list [eigenvalue, [sizes...]] pairs")
        return cls.from_map(blocks)


# ---------------------------------------------------------------------------
# JSON matrix/vector format
# ---------------------------------------------------------------------------


def matrix_to_json(A: RationalMatrix) -> dict:
    return {
        "rows": A.rows,
        "cols": A.cols,
        "entries": [[_format_ratio(v, A.den) for v in row] for row in A.num],
    }


def _json_list(obj, field):
    """obj[field] of a JSON object, which must be a list."""
    value = obj.get(field) if isinstance(obj, dict) else None
    if not isinstance(value, list):
        raise DomainError("JSON input needs an object whose field %r is a list" % field)
    return value


def matrix_from_json(obj) -> RationalMatrix:
    entries = _json_list(obj, "entries")
    if not all(isinstance(row, list) for row in entries):
        raise DomainError("JSON field 'entries' must be a list of rows")
    for field in ("rows", "cols"):
        shape = obj.get(field, 0)
        if isinstance(shape, bool) or not isinstance(shape, int):
            raise DomainError("JSON field %r must be an integer, not %r" % (field, shape))
    M = RationalMatrix(entries)
    if M.rows != obj.get("rows", M.rows) or M.cols != obj.get("cols", M.cols):
        raise DomainError("declared shape disagrees with entry grid")
    return M


def vector_from_json(obj):
    return tuple(rat(x) for x in _json_list(obj, "values"))
