"""Glue two matrices through a shared eigenvalue, preserving Jordan structure.

Given A (n x n) whose lower-right corner entry is c and B (m x m) having c
as an eigenvalue with at least one 1x1 Jordan block, the bonded matrix

    C = [[A1, a u^T], [v b^T, B]]        (A = [[A1, a], [b^T, c]])

has the Jordan form of A together with the Jordan form of B minus one 1x1
block at c, where u and v are left/right eigenvectors of B at c normalized
to u^T v = 1.  Characteristic polynomials satisfy
char(C) * (x - c) = char(A) * char(B) exactly, and C is nonnegative whenever
A, B, u, v are.  smigoc_bond only builds C; bond_certificate checks it:
with a certificate when both factors have rational spectra, and with the
characteristic identity when they do not; both run over Z, on the integer
char polys of the matrices' integer forms.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .core import (
    RationalMatrix,
    _char_poly_int,
    _integer_product,
    _rescaled_poly,
    _shifted,
    format_rational,
    kernel,
    poly_mul,
    rat,
)
from .errors import (
    CertificationError,
    CornerMismatchError,
    DimensionError,
    DomainError,
    NormalizationError,
)
from .jcfcert import (
    JordanSpec,
    _jordan_of,
    _spectrum_from_poly,
    verify_certificate,
)


def _eigenvectors_at(B: RationalMatrix, c):
    right = kernel(_shifted(c, B))
    if not right:
        raise DomainError("c = %s is not an eigenvalue of B" % format_rational(c))
    left = kernel(_shifted(c, B.transpose()))
    if len(right) != 1 or len(left) != 1:
        raise DomainError(
            "the eigenspace of B at %s has dimension %d, not 1; supply u and v "
            "explicitly" % (format_rational(c), len(right))
        )
    return left[0], right[0]


def smigoc_bond(
    A: RationalMatrix,
    B: RationalMatrix,
    c,
    u=None,
    v=None,
    auto_normalize: bool = False,
) -> RationalMatrix:
    """Bond A and B through the shared eigenvalue c sitting in A's corner.

    u and v are computed from B when omitted (only when the eigenspace at c
    is one-dimensional).  Supplied vectors are verified exactly:
    B^T u = c u, B v = c v, u^T v = 1; with auto_normalize the pairing is
    rescaled instead of rejected.  A zero pairing is a DomainError: left and
    right eigenvectors at c pair to nonzero only through a 1x1 Jordan block,
    the one the bond consumes.  C itself is not checked here; that is
    bond_certificate's job.

    Every check runs on integer forms: with c = p/q, A = A'/a, B = B'/b
    and u, v = U/w_u, V/w_v, the eigenvector checks are
    q U^T B' = p b U^T (U^T B' being one row combination of B's rows) and
    q B' V = p b V, the pairing is U.V over w_u w_v, and A's corner must
    have q A'_nn = p a.
    """
    if not A.is_square or not B.is_square:
        raise DimensionError("A and B must be square")
    c = rat(c)
    p, q = c.numerator, c.denominator
    n, m = A.rows, B.rows
    a, b = A.den, B.den
    if A.num[n - 1][n - 1] * q != p * a:
        raise CornerMismatchError(
            "A's corner entry %s does not equal c = %s"
            % (format_rational(A[n - 1, n - 1]), format_rational(c))
        )
    internal = u is None or v is None
    if internal:
        u0, v0 = _eigenvectors_at(B, c)
        u = u if u is not None else u0
        v = v if v is not None else v0
    u = tuple(rat(x) for x in u)
    v = tuple(rat(x) for x in v)
    if len(u) != m or len(v) != m:
        raise DimensionError("u and v must have length %d" % m)
    # u, v = U/w_u, V/w_v over the lcm of each vector's denominators
    w_u = math.lcm(*(x.denominator for x in u))
    w_v = math.lcm(*(x.denominator for x in v))
    U = [x.numerator * (w_u // x.denominator) for x in u]
    V = [x.numerator * (w_v // x.denominator) for x in v]
    pb = p * b
    if [q * x for x in _integer_product([U], B.num)[0]] != [pb * y for y in U]:
        raise DomainError("u is not a left eigenvector of B at c")
    if [q * sum(map(operator.mul, row, V)) for row in B.num] != [pb * y for y in V]:
        raise DomainError("v is not a right eigenvector of B at c")
    dot = sum(map(operator.mul, U, V))
    if dot != w_u * w_v:
        if dot == 0:
            raise DomainError(
                "u^T v = 0: these eigenvectors meet no 1x1 Jordan block of B at "
                "%s, and B needs one" % format_rational(c)
            )
        if not (auto_normalize or internal):
            raise NormalizationError(
                "u^T v = %s, not 1; pass auto_normalize=True to rescale u"
                % format_rational(Fraction(dot, w_u * w_v))
            )
        # u / (u^T v) = U w_v / dot
        sign = 1 if dot > 0 else -1
        U, w_u = [sign * w_v * x for x in U], sign * dot

    # [[A1, a u^T], [v b^T, B]] on integer rows: with A = A'/a, B = B'/b
    # and u, v = U/w, V/w over w = lcm(w_u, w_v), every block is an integer
    # form over D = lcm(a w, b); for A = [c] that is B's rows
    w = math.lcm(w_u, w_v)
    U = [x * (w // w_u) for x in U]
    V = [y * (w // w_v) for y in V]
    D = math.lcm(a * w, b)
    sa, sw, sb = D // a, D // (a * w), D // b
    top = [
        [x * sa for x in row[: n - 1]] + [row[n - 1] * sw * y for y in U]
        for row in A.num[: n - 1]
    ]
    b_row = [x * sw for x in A.num[n - 1][: n - 1]]
    bottom = [[y * x for x in b_row] + [x * sb for x in row] for y, row in zip(V, B.num)]
    return RationalMatrix._of_ints(top + bottom, D)


def bonded_jordan_claim(
    jordan_a: JordanSpec, jordan_b: JordanSpec, c
) -> JordanSpec:
    """Block multiset union of the two Jordan structures minus one 1x1 block at c."""
    c = rat(c)
    sizes_b = list(jordan_b.sizes_at(c))
    if 1 not in sizes_b:
        raise DomainError("B's Jordan structure has no 1x1 block at c")
    sizes_b.remove(1)
    merged = {}
    for v, sizes in list(jordan_a.blocks) + [
        (v, s) for v, s in jordan_b.blocks if v != c
    ]:
        merged.setdefault(v, []).extend(sizes)
    if sizes_b:
        merged.setdefault(c, []).extend(sizes_b)
    return JordanSpec.from_map(merged.items())


def bond_certificate(A: RationalMatrix, B: RationalMatrix, c, C: RationalMatrix):
    """Certify C's spectrum and Jordan structure when both factors split over Q.

    Returns a RealizationCertificate, or None when either factor has an
    irrational spectrum (no exact certification possible); C then still has
    to satisfy char(C) * (x - c) = char(A) * char(B) exactly, or
    CertificationError is raised.  Each factor's integer char poly is
    computed once and serves both the split test and the identity, which is
    compared over Z after y = D x, D the lcm of the denominators of A, B, C
    and c; the split test has matched it exactly, so only the factors' Weyr
    sequences are computed.  The claimed spectrum is read off the bonded
    Jordan claim: its multiplicity at a value is the sum of its block sizes.
    """
    c = rat(c)
    q_a, q_b = _char_poly_int(A.num), _char_poly_int(B.num)
    spec_a, spec_b = _spectrum_from_poly(q_a, A.den), _spectrum_from_poly(q_b, B.den)
    if spec_a is None or spec_b is None:
        # D^k char(M)(y / D), k the order of M, is M's integer poly rescaled by D / M.den
        D = math.lcm(A.den, B.den, C.den, c.denominator)
        lhs = poly_mul(_rescaled_poly(_char_poly_int(C.num), D // C.den), [1, -int(D * c)])
        if lhs != poly_mul(_rescaled_poly(q_a, D // A.den), _rescaled_poly(q_b, D // B.den)):
            raise CertificationError("bond failed the exact characteristic identity")
        return None
    claim = bonded_jordan_claim(_jordan_of(A, spec_a), _jordan_of(B, spec_b), c)
    return verify_certificate(C, claim.spectrum(), claim)
