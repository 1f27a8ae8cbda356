"""Rank-one perturbations of constant-row-sum matrices with controlled Jordan effect.

Adding e q^T to a matrix B with constant row sums lambda1 (lambda1 simple,
hence a 1x1 Jordan block) moves the Perron root to lambda1 + sum(q) and
leaves every other Jordan block untouched, provided the shifted root does
not collide with another eigenvalue.  The uniform choice q = (eps/n) e
increases the Perron root by eps while keeping the matrix nonnegative, which
is the engine behind the Perron-shift preservation of universal
realizability.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    JordanSpec,
    RationalMatrix,
    Spectrum,
    char_poly,
    format_rational,
    poly_eval,
    poly_mul,
    poly_sub,
    rat,
    synthetic_div,
)
from .errors import (
    CertificationError,
    CollisionError,
    DimensionError,
    DomainError,
    NonnegativityLossError,
    PerronNotSimple,
)
from .jcfcert import jordan_spec, verify_certificate
from .rowsum import _to_cs_exact, constant_row_sum_value


def rank_one_shift(B: RationalMatrix, q) -> RationalMatrix:
    """B + e q^T for B in CS form with a simple Perron root.

    The characteristic polynomial changes exactly by replacing the factor
    (x - lambda1) with (x - lambda1 - sum(q)); all other elementary divisors
    survive.  Raises CollisionError when the shifted root hits another
    eigenvalue, and NonnegativityLossError (with the result attached) when
    a negative entry appears: nonnegativity is only guaranteed for suitable
    q, e.g. the uniform nonnegative one.
    """
    if not B.is_square:
        raise DimensionError("B must be square")
    lam = constant_row_sum_value(B)
    if lam is None:
        raise DomainError("B is not in constant-row-sum form")
    q = tuple(rat(v) for v in q)
    if len(q) != B.rows:
        raise DimensionError("q must have length %d" % B.rows)

    coeffs = char_poly(B)
    quotient, rem = synthetic_div(coeffs, lam)
    if rem != 0:
        raise DomainError("row-sum value %s is not an eigenvalue" % format_rational(lam))
    if poly_eval(quotient, lam) == 0:
        raise PerronNotSimple(
            "Perron root %s of B is not simple" % format_rational(lam)
        )

    sigma = sum(q, Fraction(0))
    shifted = lam + sigma
    if sigma != 0 and poly_eval(quotient, shifted) == 0:
        raise CollisionError(
            "shifted Perron root %s collides with another eigenvalue"
            % format_rational(shifted)
        )

    result = RationalMatrix(
        [[v + q[j] for j, v in enumerate(row)] for row in B.entries()]
    )
    expected = poly_mul(quotient, [Fraction(1), -shifted])
    if poly_sub(char_poly(result), expected) != [Fraction(0)]:
        raise CertificationError("rank-one shift failed the exact factor-swap check")
    if not result.is_nonnegative:
        raise NonnegativityLossError(
            "B + e q^T has a negative entry; the Jordan conclusion still "
            "holds but the matrix is not a nonnegative realization",
            matrix=result,
        )
    return result


def ur_shift(A: RationalMatrix, spectrum: Spectrum, eps):
    """Increase the Perron root of a certified realization by eps >= 0.

    Composite of the constant-row-sum reduction and the uniform rank-one
    shift q = (eps/n) e.  Returns (A_eps, certificate) where A_eps is
    nonnegative in CS_(lambda1+eps) with the Perron root moved and every
    other Jordan block unchanged.

    The input is certified once, by jordan_spec (char poly against the
    spectrum, then Weyr ranks); lambda1 and the radius of every diagonal
    block the reduction scales are read from that certified spectrum, never
    re-derived from floats; the output is certified once, by
    verify_certificate.  B + (eps/n) e e^T needs no check in between: B >= 0
    and eps >= 0 keep it nonnegative, and lambda1 + eps exceeds every other
    eigenvalue, so it collides with none.
    """
    eps = rat(eps)
    if eps < 0:
        raise DomainError("eps must be nonnegative")
    if not A.is_nonnegative:
        raise DomainError("A must be nonnegative")
    jordan_before = jordan_spec(A, spectrum)
    lam1 = spectrum.perron
    # algebraic simplicity is all the shift needs; a modulus tie with a
    # negative eigenvalue (e.g. {2, -2}) is fine
    if lam1 <= 0 or spectrum.multiplicity(lam1) != 1:
        raise PerronNotSimple("the claimed spectrum has a non-simple Perron root")

    B = _to_cs_exact(A, spectrum).B
    q = eps / B.rows
    shifted = RationalMatrix([[v + q for v in row] for row in B.entries()])
    claimed_spectrum = spectrum.replace_perron(lam1 + eps)
    claimed_jordan = JordanSpec.from_map(
        [
            (lam1 + eps if v == lam1 else v, sizes)
            for v, sizes in jordan_before.blocks
        ]
    )
    certificate = verify_certificate(shifted, claimed_spectrum, claimed_jordan)
    if not certificate.verdict:
        raise CertificationError("Perron shift failed certification")
    return shifted, certificate
