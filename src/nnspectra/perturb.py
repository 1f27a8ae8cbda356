"""Rank-one perturbations of constant-row-sum matrices with controlled Jordan effect.

Adding e q^T to a matrix B with constant row sums lambda1 (lambda1 simple,
hence a 1x1 Jordan block) moves the Perron root to lambda1 + sum(q) and
leaves every other Jordan block untouched, provided the shifted root does
not collide with another eigenvalue.  The uniform choice q = (eps/n) e
increases the Perron root by eps while keeping the matrix nonnegative, which
is the engine behind the Perron-shift preservation of universal
realizability.

ur_shift certifies its result from that argument rather than from scratch:
the CS form's similarity to the certified input is checked exactly, and the
shifted matrix's certificate follows from it and O(n^2) entry checks, with
no char poly or rank of its own.  rank_one_shift builds and checks B + e q^T
the same way, after two one-prime singularity tests (core._is_singular), and
the tests recompute the factor swap and the char-poly quotient behind both.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import (
    JordanSpec,
    RationalMatrix,
    Spectrum,
    _is_singular,
    _shifted,
    format_rational,
    rat,
)
from .errors import (
    CertificationError,
    CollisionError,
    DimensionError,
    DomainError,
    NonnegativityLossError,
    PerronNotSimple,
)
from .jcfcert import _certificate, _certified_jordan
from .rowsum import _to_cs_exact, constant_row_sum_value
from .structure import _components


def rank_one_shift(B: RationalMatrix, q) -> RationalMatrix:
    """B + e q^T for B in CS form with a simple Perron root.

    The characteristic polynomial changes exactly by replacing the factor
    (x - lambda1) with (x - lambda1 - sum(q)); all other elementary divisors
    survive (Brauer 1952).  So B - e e^T has the eigenvalues lambda1 - n,
    lambda2, ..., lambda_n, and lambda1 is simple iff
    det(lambda1 I - B + e e^T) != 0; a shifted root other than lambda1
    collides iff (lambda1 + sum(q)) I - B is singular.  Both are one-prime
    singularity tests, with no char poly.  Raises PerronNotSimple or
    CollisionError when one fails, and NonnegativityLossError (with the
    result attached) when a negative entry appears: nonnegativity is only
    guaranteed for suitable q, e.g. the uniform nonnegative one.
    """
    if not B.is_square:
        raise DimensionError("B must be square")
    lam = constant_row_sum_value(B)
    if lam is None:
        raise DomainError("B is not in constant-row-sum form")
    q = tuple(rat(v) for v in q)
    if len(q) != B.rows:
        raise DimensionError("q must have length %d" % B.rows)

    if _is_singular(_add_rank_one(_shifted(lam, B), (Fraction(1),) * B.rows)):
        raise PerronNotSimple(
            "Perron root %s of B is not simple" % format_rational(lam)
        )

    shifted = lam + sum(q, Fraction(0))
    if shifted != lam and _is_singular(_shifted(shifted, B)):
        raise CollisionError(
            "shifted Perron root %s collides with another eigenvalue"
            % format_rational(shifted)
        )

    result = _add_rank_one(B, q)
    _check_rank_one(B, result, q, shifted, "B + e q^T")
    if not result.is_nonnegative:
        raise NonnegativityLossError(
            "B + e q^T has a negative entry; the Jordan conclusion still "
            "holds but the matrix is not a nonnegative realization",
            matrix=result,
        )
    return result


def _add_rank_one(B, q):
    """B + e q^T on B's integer form B'/b: with c the lcm of q's
    denominators, entry (i, j) is (B'_ij c + b c q_j) / (b c)."""
    c = math.lcm(*(v.denominator for v in q))
    steps = [v.numerator * (c // v.denominator) * B.den for v in q]
    return RationalMatrix._of_ints(
        [[v * c + step for v, step in zip(row, steps)] for row in B.num], B.den * c
    )


def _check_rank_one(B, shifted, q, moved, what):
    """CertificationError unless shifted - B = e q^T (named `what`) entry by
    entry and every row of shifted sums to moved.  With B = Bi/b and
    shifted = Si/s, column j of shifted - B is q_j iff
    q_j.den (b Si - s Bi) = q_j.num s b; the row sums are
    constant_row_sum_value's test."""
    (Bi, b), (Si, s) = (B.num, B.den), (shifted.num, shifted.den)
    dens, gaps = [v.denominator for v in q], [v.numerator * s * b for v in q]
    if any(
        d * (b * x - s * y) != g
        for rx, ry in zip(Si, Bi)
        for x, y, d, g in zip(rx, ry, dens, gaps)
    ):
        raise CertificationError("the shifted matrix is not %s" % what)
    if constant_row_sum_value(shifted) != moved:
        raise CertificationError(
            "a row of the shifted matrix does not sum to %s" % format_rational(moved)
        )


def ur_shift(A: RationalMatrix, spectrum: Spectrum, eps):
    """Increase the Perron root of a certified realization by eps >= 0.

    Composite of the constant-row-sum reduction and the uniform rank-one
    shift q = (eps/n) e.  Returns (A_eps, certificate) where A_eps is
    nonnegative in CS_(lambda1+eps) with the Perron root moved and every
    other Jordan block unchanged.

    The input is certified once, by jordan_spec's two routes (a Krylov
    basis for a nonderogatory A, else the char poly against the spectrum
    and Weyr ranks), and lambda1 is read from that certified spectrum.  The
    Krylov route also yields the eigenvector x at lambda1, and the pair
    (lambda1, x) is the reduction's Perron data for an irreducible A, with
    no char poly and no kernel.  Without x, and for a reducible A, the
    reduction's component pass finds every block's radius exactly, never
    from floats, and lambda1 = rho(A) is the largest.  The reduction checks
    the CS form B exactly against A (A S = S B, det S != 0, B >= 0, rows
    summing to lambda1) before it returns it, so a wrong vector is refused.
    The output's certificate is derived from these facts by
    _shift_certificate with O(n^2) further checks, and no char poly or rank.
    """
    eps = rat(eps)
    if eps < 0:
        raise DomainError("eps must be nonnegative")
    if not A.is_nonnegative:
        raise DomainError("A must be nonnegative")
    jordan_before, x = _certified_jordan(A, spectrum)
    lam1 = spectrum.perron
    # algebraic simplicity is all the shift needs; a modulus tie with a
    # negative eigenvalue (e.g. {2, -2}) is fine
    if lam1 <= 0 or spectrum.multiplicity(lam1) != 1:
        raise PerronNotSimple("the claimed spectrum has a non-simple Perron root")

    B = _to_cs_exact(A, _components(A), None if x is None else (lam1, x)).B
    shifted = _add_rank_one(B, (eps / B.rows,) * B.rows)
    return shifted, _shift_certificate(B, shifted, spectrum, jordan_before, eps)


def _shift_certificate(B, shifted, spectrum, jordan_before, eps):
    """The certificate of shifted = B + (eps/n) e e^T, derived, not recomputed.

    B has been checked by _verify_exact: it must be exactly similar to a
    matrix A with the certified spectrum and Jordan form jordan_before, its
    rows summing to the simple eigenvalue lambda1 = spectrum.perron.  With
    P = [e | e_2 ... e_n], P^-1 B P = [[lambda1, r], [0, B~]], and
    P^-1 e = e_1, so adding e q^T changes only the first row:
    P^-1 B' P = [[lambda1 + eps, r'], [0, B~]] with the same B~ (Brauer
    1952).  When lambda1 + eps is none of the other eigenvalues,
    the Jordan form of B' is that of A with lambda1 moved to lambda1 + eps,
    so its char poly is the claimed spectrum's and each Weyr sequence the
    claimed one.  The claimed spectrum is read off that moved form, as every
    claim's is.  What is left to check is O(n^2): B' - B = (eps/n) e e^T
    entry by entry, every row of B' summing to lambda1 + eps, the moved root
    colliding with no other claimed value, and B' >= 0 (the certificate's
    nonnegativity record).  A failed check raises CertificationError.
    """
    lam1 = spectrum.perron
    moved = lam1 + eps
    _check_rank_one(B, shifted, (eps / B.rows,) * B.rows, moved, "B + (eps/n) e e^T")
    if eps and spectrum.multiplicity(moved):
        raise CertificationError(
            "shifted Perron root %s collides with another eigenvalue" % format_rational(moved)
        )
    claimed_jordan = JordanSpec.from_map(
        [(moved if v == lam1 else v, sizes) for v, sizes in jordan_before.blocks]
    )
    claimed_spectrum = claimed_jordan.spectrum()
    weyrs = [(v, claimed_jordan.weyr_at(v)) for v, _ in claimed_spectrum.pairs]
    certificate = _certificate(
        shifted, claimed_spectrum, claimed_jordan, [Fraction(0)], weyrs
    )
    if not certificate.verdict:
        raise CertificationError("Perron shift failed certification")
    return certificate
