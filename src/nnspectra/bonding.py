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
characteristic identity when they do not.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    RationalMatrix,
    Spectrum,
    char_poly,
    format_rational,
    kernel,
    poly_mul,
    poly_sub,
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
    rational_spectrum_of,
    verify_certificate,
)


def _eigenvectors_at(B: RationalMatrix, c):
    n = B.rows
    shifted = B - RationalMatrix.identity(n).scale(c)
    right = kernel(shifted)
    left = kernel(shifted.transpose())
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
    """
    if not A.is_square or not B.is_square:
        raise DimensionError("A and B must be square")
    c = rat(c)
    n, m = A.rows, B.rows
    if A[n - 1, n - 1] != c:
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
    if B.transpose().mat_vec(u) != tuple(c * x for x in u):
        raise DomainError("u is not a left eigenvector of B at c")
    if B.mat_vec(v) != tuple(c * x for x in v):
        raise DomainError("v is not a right eigenvector of B at c")
    pairing = sum((a * b for a, b in zip(u, v)), Fraction(0))
    if pairing != 1:
        if pairing == 0:
            raise DomainError(
                "u^T v = 0: these eigenvectors meet no 1x1 Jordan block of B at "
                "%s, and B needs one" % format_rational(c)
            )
        if not (auto_normalize or internal):
            raise NormalizationError(
                "u^T v = %s, not 1; pass auto_normalize=True to rescale u"
                % format_rational(pairing)
            )
        u = tuple(x / pairing for x in u)

    if n == 1:
        # A = [c]; the bond is B itself with one 1x1 block at c retained
        C = B
    else:
        A1 = A.submatrix(range(n - 1), range(n - 1))
        a_col = [A[i, n - 1] for i in range(n - 1)]
        b_row = [A[n - 1, j] for j in range(n - 1)]
        upper_right = RationalMatrix(
            [[a_col[i] * u[j] for j in range(m)] for i in range(n - 1)]
        )
        lower_left = RationalMatrix(
            [[v[i] * b_row[j] for j in range(n - 1)] for i in range(m)]
        )
        C = RationalMatrix.from_blocks([[A1, upper_right], [lower_left, B]])
    return C


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
    CertificationError is raised.  rational_spectrum_of has checked each
    factor's char poly exactly, so only their Weyr sequences are computed.
    """
    c = rat(c)
    spec_a = rational_spectrum_of(A)
    spec_b = rational_spectrum_of(B)
    if spec_a is None or spec_b is None:
        lhs = poly_mul(char_poly(C), [Fraction(1), -c])
        rhs = poly_mul(char_poly(A), char_poly(B))
        if poly_sub(lhs, rhs) != [Fraction(0)]:
            raise CertificationError("bond failed the exact characteristic identity")
        return None
    claim = bonded_jordan_claim(_jordan_of(A, spec_a), _jordan_of(B, spec_b), c)
    values = list(spec_a.values()) + list(spec_b.values())
    values.remove(c)
    return verify_certificate(C, Spectrum.from_values(values), claim)
