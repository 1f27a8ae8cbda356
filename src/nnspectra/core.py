"""Exact rational scalars, dense matrices, polynomials, and the shared domain types.

Every construction in the toolkit runs over `fractions.Fraction`; floating
point exists only as a mirror (`FloatMatrix`) for power iteration and region
sampling.  Decimal strings such as "2.52" are parsed as exact rationals
(63/25), never as floats, so file and CLI inputs reproduce bit-exactly.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    ReconstructionError,
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
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


class RationalMatrix:
    """Immutable dense matrix over exact rationals."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data):
        rows = tuple(tuple(rat(v) for v in row) for row in data)
        if not rows or not rows[0]:
            raise DimensionError("matrix needs at least one row and one column")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise DimensionError("ragged rows")
        self._set("rows", len(rows))
        self._set("cols", ncols)
        self._set("_data", rows)

    def _set(self, name, value):
        object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    # -- constructors -----------------------------------------------------
    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def diagonal(cls, entries) -> "RationalMatrix":
        ents = [rat(e) for e in entries]
        n = len(ents)
        return cls([[ents[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def column(cls, entries) -> "RationalMatrix":
        return cls([[e] for e in entries])

    @classmethod
    def from_blocks(cls, grid) -> "RationalMatrix":
        """Assemble from a 2-D grid of conforming RationalMatrix blocks."""
        data = []
        for block_row in grid:
            height = block_row[0].rows
            if any(b.rows != height for b in block_row):
                raise DimensionError("block heights disagree")
            for i in range(height):
                row = []
                for b in block_row:
                    row.extend(b._data[i])
                data.append(row)
        return cls(data)

    # -- access ------------------------------------------------------------
    def __getitem__(self, key):
        i, j = key
        return self._data[i][j]

    def row(self, i):
        return self._data[i]

    def column_entries(self, j):
        return tuple(r[j] for r in self._data)

    def entries(self):
        return self._data

    def submatrix(self, row_idx, col_idx) -> "RationalMatrix":
        return RationalMatrix([[self._data[i][j] for j in col_idx] for i in row_idx])

    # -- predicates ----------------------------------------------------------
    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_nonnegative(self) -> bool:
        return all(v >= 0 for r in self._data for v in r)

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self):
        return hash(self._data)

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._conform(other)
        return RationalMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._data, other._data)
            ]
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._conform(other)
        return RationalMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._data, other._data)
            ]
        )

    def _conform(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError(
                "shape mismatch: %dx%d vs %dx%d"
                % (self.rows, self.cols, other.rows, other.cols)
            )

    def scale(self, c) -> "RationalMatrix":
        c = rat(c)
        return RationalMatrix([[c * v for v in r] for r in self._data])

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise DimensionError(
                "cannot multiply %dx%d by %dx%d"
                % (self.rows, self.cols, other.rows, other.cols)
            )
        ot = other.transpose()._data
        return RationalMatrix(
            [[_dot(row, col) for col in ot] for row in self._data]
        )

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(list(zip(*self._data)))

    @property
    def T(self) -> "RationalMatrix":
        return self.transpose()

    def row_sums(self):
        return tuple(sum(r) for r in self._data)

    def mat_vec(self, v):
        if len(v) != self.cols:
            raise DimensionError("vector length %d != cols %d" % (len(v), self.cols))
        return tuple(_dot(row, v) for row in self._data)

    def diag_conjugate(self, d) -> "RationalMatrix":
        """D^-1 A D for D = diag(d); requires every d_i nonzero."""
        d = [rat(x) for x in d]
        if len(d) != self.rows or not self.is_square:
            raise DimensionError("diagonal length must match square matrix order")
        if any(x == 0 for x in d):
            raise DomainError("diagonal similarity needs nonzero entries")
        return RationalMatrix(
            [
                [self._data[i][j] * d[j] / d[i] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __repr__(self):
        body = "; ".join(
            " ".join(format_rational(v) for v in row) for row in self._data
        )
        return "RationalMatrix[%s]" % body


def _dot(u, v):
    acc = Fraction(0)
    for a, b in zip(u, v):
        if a and b:
            acc += a * b
    return acc


def permutation_matrix(perm) -> RationalMatrix:
    """P with P[i, perm[i]] = 1, so (P A P^T)[i][j] = A[perm[i]][perm[j]]."""
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise DomainError("not a permutation of 0..n-1")
    return RationalMatrix([[1 if j == perm[i] else 0 for j in range(n)] for i in range(n)])


# ---------------------------------------------------------------------------
# float mirror
# ---------------------------------------------------------------------------


class FloatMatrix:
    """Double-precision mirror of RationalMatrix; finite entries only."""

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

    @property
    def rows(self):
        return self.array.shape[0]

    @property
    def cols(self):
        return self.array.shape[1]

    @property
    def is_square(self):
        return self.array.shape[0] == self.array.shape[1]

    @property
    def is_nonnegative(self):
        return bool(np.all(self.array >= 0))

    def __repr__(self):
        return "FloatMatrix(%r)" % (self.array.tolist(),)


def to_float(A: RationalMatrix) -> FloatMatrix:
    return FloatMatrix([[float(v) for v in row] for row in A.entries()])


def from_float(F: FloatMatrix, denominator_bound: int) -> RationalMatrix:
    """Reconstruct exact rationals entrywise, denominator <= bound, tol 1e-12."""
    out = []
    for i in range(F.rows):
        row = []
        for j in range(F.cols):
            x = float(F.array[i, j])
            cand = Fraction(x).limit_denominator(denominator_bound)
            if abs(float(cand) - x) > 1e-12:
                raise ReconstructionError(
                    "entry (%d,%d)=%r has no rational with denominator <= %d within 1e-12"
                    % (i, j, x, denominator_bound)
                )
            row.append(cand)
        out.append(row)
    return RationalMatrix(out)


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------


def _integer_row(row):
    """Clear a rational row to integers: (integer entries, lcm of the denominators)."""
    lcm = math.lcm(*(v.denominator for v in row))
    return [v.numerator * (lcm // v.denominator) for v in row], lcm


def _eliminate(rows, pivot_cols):
    """Fraction-free (Bareiss) forward elimination of rational rows.

    Rows are cleared to integers first.  Pivot rule: columns left to right
    among the first `pivot_cols`, first row with a nonzero entry; each update
    divides exactly by the previous pivot.  Stops once every row has a pivot.
    Returns (integer echelon rows, pivot columns, sign of the row swaps,
    product of the row scalings).
    """
    cleared = [_integer_row(row) for row in rows]
    m = [ints for ints, _ in cleared]
    scale = math.prod(lcm for _, lcm in cleared)
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
    return m, pivots, sign, scale


def _back_substitute(m, pivots, col):
    """Pivot-column values of the x that solves the echelon rows m against column `col`.

    The last pivot d is the determinant of the pivot system, so d x is an
    integer vector (Cramer's rule) and every division below is exact.
    """
    d = m[len(pivots) - 1][pivots[-1]] if pivots else 1
    y = [0] * len(pivots)
    for i in reversed(range(len(pivots))):
        row = m[i]
        acc = d * row[col]
        for k in range(i + 1, len(pivots)):
            acc -= row[pivots[k]] * y[k]
        y[i] = acc // row[pivots[i]]
    return [Fraction(v, d) for v in y]


def exact_rank(A: RationalMatrix) -> int:
    """Rank over Q: the number of pivots of the fraction-free elimination."""
    return len(_eliminate(A.entries(), A.cols)[1])


def determinant(A: RationalMatrix) -> Fraction:
    if not A.is_square:
        raise DimensionError("determinant of non-square matrix")
    m, pivots, sign, scale = _eliminate(A.entries(), A.cols)
    if len(pivots) < A.rows:
        return Fraction(0)
    # the last Bareiss pivot is the determinant of the swapped, integer-cleared rows
    return Fraction(sign * m[-1][-1], scale)


def solve(A: RationalMatrix, B: RationalMatrix) -> RationalMatrix:
    """Exact solution X of A X = B; raises SingularMatrixError when singular."""
    if not A.is_square:
        raise DimensionError("solve needs a square matrix")
    if A.rows != B.rows:
        raise DimensionError("right-hand side height mismatch")
    n = A.rows
    rows = [ra + rb for ra, rb in zip(A.entries(), B.entries())]
    m, pivots, _, _ = _eliminate(rows, n)
    if len(pivots) < n:
        raise SingularMatrixError("singular system")
    columns = [_back_substitute(m, pivots, n + j) for j in range(B.cols)]
    return RationalMatrix(list(zip(*columns)))


def inverse(A: RationalMatrix) -> RationalMatrix:
    return solve(A, RationalMatrix.identity(A.rows))


def kernel(A: RationalMatrix):
    """Basis of the right null space, deterministic (one vector per free column)."""
    m, pivots, _, _ = _eliminate(A.entries(), A.cols)
    basis = []
    for fc in (c for c in range(A.cols) if c not in pivots):
        # 1 at the free column, minus its reduced echelon entry at each pivot
        vec = [Fraction(0)] * A.cols
        vec[fc] = Fraction(1)
        for pc, value in zip(pivots, _back_substitute(m, pivots, fc)):
            vec[pc] = -value
        basis.append(tuple(vec))
    return basis


def char_poly(A: RationalMatrix):
    """Coefficients of det(xI - A), monic, descending powers.

    Berkowitz's division-free algorithm on N = d A, d the lcm of all the
    denominators: bordering the leading r x r block M by the column s, the
    row rho and the corner a multiplies its char poly by the lower-triangular
    Toeplitz matrix with first column (1, -a, -rho s, -rho M s, ...,
    -rho M^(r-1) s).  Coefficient k of det(xI - N) is d^k times that of A.
    """
    if not A.is_square:
        raise DimensionError("characteristic polynomial of non-square matrix")
    rows = A.entries()
    d = math.lcm(*(v.denominator for row in rows for v in row))
    N = [[v.numerator * (d // v.denominator) for v in row] for row in rows]
    c = [1]
    for r, row in enumerate(N):
        t, v = [1, -row[r]], [N[i][r] for i in range(r)]
        for k in range(r):
            t.append(-sum(map(operator.mul, row, v)))
            if k < r - 1:
                v = [sum(map(operator.mul, N[i], v)) for i in range(r)]
        c = [sum(t[i - j] * c[j] for j in range(min(i, r) + 1)) for i in range(r + 2)]
    return [Fraction(ck, d**k) for k, ck in enumerate(c)]


# ---------------------------------------------------------------------------
# polynomials (coefficient lists, monic, descending powers)
# ---------------------------------------------------------------------------


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
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


def synthetic_div(p, r):
    """Divide by (x - r): returns (quotient, remainder)."""
    r = rat(r)
    out = []
    acc = Fraction(0)
    for c in p:
        acc = acc * r + c
        out.append(acc)
    return out[:-1], out[-1]


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

    `pairs` is sorted with the Perron candidate first (descending value);
    `perron_simple` holds iff exactly one eigenvalue attains the maximum
    modulus, with multiplicity one, and is positive.
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

    @property
    def max_modulus(self) -> Fraction:
        return max(abs(v) for v, _ in self.pairs)

    @property
    def perron(self) -> Fraction:
        """Value attaining the maximum modulus (positive representative preferred)."""
        mm = self.max_modulus
        attaining = [v for v, _ in self.pairs if abs(v) == mm]
        return max(attaining)

    @property
    def perron_simple(self) -> bool:
        mm = self.max_modulus
        attaining = [(v, m) for v, m in self.pairs if abs(v) == mm]
        if len(attaining) != 1:
            return False
        v, m = attaining[0]
        return m == 1 and v > 0

    def multiplicity(self, value) -> int:
        value = rat(value)
        for v, m in self.pairs:
            if v == value:
                return m
        return 0

    def char_poly(self):
        return poly_from_roots(self.values())

    def replace_perron(self, new_value) -> "Spectrum":
        vals = list(self.values())
        vals.remove(self.perron)
        vals.append(rat(new_value))
        return Spectrum.from_values(vals)

    def to_json(self):
        return {"values": [format_rational(v) for v in self.values()]}

    @classmethod
    def from_json(cls, obj) -> "Spectrum":
        return cls.from_values(_json_list(obj, "values"))


def _block_size(value) -> int:
    """A Jordan block size: a positive integer; bools, floats and fractions are refused."""
    size = None if isinstance(value, (bool, float)) else rat(value)
    if size is None or size.denominator != 1 or size < 1:
        raise DomainError("block sizes must be positive integers (got %r)" % (value,))
    return size.numerator


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

    @property
    def order(self) -> int:
        return sum(sum(s) for _, s in self.blocks)

    @property
    def is_diagonal(self) -> bool:
        return all(size == 1 for _, sizes in self.blocks for size in sizes)

    def sizes_at(self, value):
        value = rat(value)
        for v, sizes in self.blocks:
            if v == value:
                return sizes
        return ()

    def spectrum(self) -> Spectrum:
        return Spectrum.from_values(
            [v for v, sizes in self.blocks for s in sizes for _ in range(s)]
        )

    def weyr_at(self, value):
        """Expected cumulative Weyr sequence implied by the Segre sizes."""
        sizes = self.sizes_at(value)
        if not sizes:
            return ()
        depth = sizes[0]
        increments = [sum(1 for s in sizes if s >= k) for k in range(1, depth + 1)]
        out = []
        acc = 0
        for d in increments:
            acc += d
            out.append(acc)
        return tuple(out)

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
        "entries": [[format_rational(v) for v in row] for row in A.entries()],
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
