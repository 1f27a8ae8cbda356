"""Trace-zero degree-5 lists with three negative entries: regions and realizations.

Three parametric families are supported (written in (t0, t) parameters):

  * pm     : {3+t,    3-t, -2,      -2, -2}
  * t      : {3+t-t0, 3-t, -2+t0,   -2, -2}
  * tprime : {3+t+t0, 3-t, -2,      -2, -2-t0}

Coefficients k2..k5 of x^5 + k2 x^3 + k3 x^2 + k4 x + k5 are computed both
by expanding the five linear factors and by closed forms; any mismatch is a
hard internal error.  Realizability of such a polynomial as a nonnegative
matrix is decided by an exact sign test on (k2, k3, k4, k5); the region
boundaries in the (t0, t) plane are evaluated in floating point (they bound
open verification regions, so 1e-12 accuracy is ample).  A diagonalizable
realization is built by bonding a 4x4 single-parameter matrix A(d1) with
the fixed 2x2 realization [[0,2],[2,0]] of {2,-2}.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    RationalMatrix,
    Spectrum,
    format_rational,
    poly_from_roots,
    rat,
    rational_sqrt,
)
from .bonding import smigoc_bond
from .errors import (
    ConstructionUnavailableError,
    DomainError,
    EntrySignError,
    NotRealizableError,
    SpectraError,
)
from .jcfcert import (
    JordanSpec,
    RealizationCertificate,
    verify_certificate,
    weyr_sequence,
)

FAMILIES = ("pm", "t", "tprime")


def _require(condition, message):
    if not condition:
        raise DomainError(message)


def family_list(family: str, t0, t):
    """The five list entries in template order; validates the parameter domain."""
    t0 = rat(t0)
    t = rat(t)
    if family == "t":
        _require(0 < t0 < 2, "family t needs 0 < t0 < 2 (got t0 = %s)" % t0)
        _require(t <= 3, "family t needs t <= 3 (got t = %s)" % t)
        _require(
            t0 < min(1 + t, 2 * t),
            "family t needs t0 < min(1+t, 2t) (got t0 = %s, t = %s)" % (t0, t),
        )
        return (3 + t - t0, 3 - t, -2 + t0, Fraction(-2), Fraction(-2))
    if family == "tprime":
        _require(t <= 3, "family tprime needs t <= 3 (got t = %s)" % t)
        _require(t > -1, "family tprime needs t > -1 (got t = %s)" % t)
        _require(
            t0 > max(Fraction(0), -2 * t),
            "family tprime needs t0 > max(0, -2t) (got t0 = %s, t = %s)" % (t0, t),
        )
        return (3 + t + t0, 3 - t, Fraction(-2), Fraction(-2), -2 - t0)
    if family == "pm":
        _require(t0 == 0, "family pm has no t0 parameter (pass t0 = 0)")
        _require(0 < t <= 3, "family pm needs 0 < t <= 3 (got t = %s)" % t)
        return (3 + t, 3 - t, Fraction(-2), Fraction(-2), Fraction(-2))
    raise DomainError("unknown family %r; expected one of %s" % (family, FAMILIES))


def _closed_form_coeffs(family: str, t0, t):
    if family in ("t", "pm"):
        k2 = -t * t + t0 * t - t0 * t0 + 5 * t0 - 15
        k3 = -(6 - t0) * t * t + t0 * (6 - t0) * t - t0 * t0 + 5 * t0 - 10
        k4 = 4 * ((t0 - 3) * t * t + t0 * (3 - t0) * t + 2 * t0 * t0 - 10 * t0 + 15)
        k5 = 4 * (t - 3) * (t - t0 + 3) * (t0 - 2)
    else:
        k2 = -(t * t + t0 * t + t0 * t0 + 5 * t0 + 15)
        k3 = -((t0 + 6) * t * t + t0 * (t0 + 6) * t + t0 * t0 + 5 * t0 + 10)
        k4 = -4 * ((t0 + 3) * t * t + t0 * (t0 + 3) * t - 2 * t0 * t0 - 10 * t0 - 15)
        k5 = 4 * (3 - t) * (t + t0 + 3) * (t0 + 2)
    return (k2, k3, k4, k5)


@dataclass(frozen=True)
class Family5Point:
    family: str
    t0: Fraction
    t: Fraction
    values: tuple  # the five entries in template order
    coeffs: tuple  # (k2, k3, k4, k5), exact

    @property
    def spectrum(self) -> Spectrum:
        return Spectrum.from_values(self.values)

    def gamma1(self) -> tuple:
        """Degree-4 sub-list: the five values with one -2 removed."""
        vals = list(self.values)
        vals.remove(Fraction(-2))
        return tuple(vals)

    def gamma1_coeffs(self) -> list:
        return poly_from_roots(self.gamma1())


def make_point(family: str, t0, t) -> Family5Point:
    """Build a family point; coefficients are double-computed and cross-checked."""
    t0 = rat(t0)
    t = rat(t)
    values = family_list(family, t0, t)
    expanded = poly_from_roots(values)
    if expanded[1] != 0:
        raise SpectraError("internal error: family list does not have trace zero")
    closed = _closed_form_coeffs(family, t0, t)
    if tuple(expanded[2:]) != closed:
        raise SpectraError(
            "internal error: closed-form coefficients disagree with factor expansion"
        )
    return Family5Point(family=family, t0=t0, t=t, values=values, coeffs=closed)


# ---------------------------------------------------------------------------
# realizability test on coefficients (exact)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorreVerdict:
    realizable: bool
    failed_condition: str | None
    detail: str

    def __bool__(self):
        return self.realizable


def torre_realizable(k2, k3, k4, k5) -> TorreVerdict:
    """Exact test: is x^5 + k2 x^3 + k3 x^2 + k4 x + k5 the characteristic
    polynomial of a nonnegative matrix?

    Conditions: (a) k2, k3 <= 0; (b) k4 <= k2^2/4; (c) k5 <= k2 k3 when
    k4 <= 0, else k5 <= k3 (k2/2 - sqrt(k2^2/4 - k4)).  The square root in
    (c) is eliminated by sign analysis and exact squaring, so verdicts never
    flap near region boundaries.
    """
    k2, k3, k4, k5 = rat(k2), rat(k3), rat(k4), rat(k5)
    if k2 > 0 or k3 > 0:
        return TorreVerdict(
            False,
            "a",
            "k2 = %s, k3 = %s must both be <= 0"
            % (format_rational(k2), format_rational(k3)),
        )
    disc = k2 * k2 / 4 - k4
    if disc < 0:
        return TorreVerdict(
            False,
            "b",
            "k4 = %s exceeds k2^2/4 = %s"
            % (format_rational(k4), format_rational(k2 * k2 / 4)),
        )
    if k4 <= 0:
        if k5 <= k2 * k3:
            return TorreVerdict(True, None, "k4 <= 0 branch: k5 <= k2*k3")
        return TorreVerdict(
            False,
            "c",
            "k5 = %s exceeds k2*k3 = %s"
            % (format_rational(k5), format_rational(k2 * k3)),
        )
    # k4 > 0 branch: k5 - k3*k2/2 <= -k3*sqrt(disc), RHS >= 0 since k3 <= 0
    lhs = k5 - k3 * k2 / 2
    if lhs <= 0:
        return TorreVerdict(True, None, "k4 > 0 branch: left side nonpositive")
    if lhs * lhs <= k3 * k3 * disc:
        return TorreVerdict(True, None, "k4 > 0 branch: squared comparison holds")
    return TorreVerdict(
        False,
        "c",
        "k5 = %s exceeds k3*(k2/2 - sqrt(k2^2/4 - k4))" % format_rational(k5),
    )


def torre_realizable_point(point: Family5Point) -> TorreVerdict:
    return torre_realizable(*point.coeffs)


# ---------------------------------------------------------------------------
# closed-form region boundaries (float) and membership
# ---------------------------------------------------------------------------

PM_THRESHOLD = math.sqrt(16 * math.sqrt(6) - 39)


def region_boundary(family: str, t0) -> float:
    """Lower boundary of t for realizability (not symmetrically realizable)."""
    t0f = float(rat(t0))
    if family == "pm":
        return PM_THRESHOLD
    if family == "t":
        inner = 16 * math.sqrt(6 - t0f) * (4 - t0f) - 3 * t0f**2 + 52 * t0f - 156
        return (t0f + math.sqrt(inner)) / 2
    if family == "tprime":
        inner = 16 * math.sqrt(6 + t0f) * (4 + t0f) - 3 * t0f**2 - 52 * t0f - 156
        return (-t0f + math.sqrt(inner)) / 2
    raise DomainError("unknown family %r" % family)


@dataclass(frozen=True)
class RegionVerdict:
    member: bool
    symmetric_realizable: bool
    boundary: float


def region_member(family: str, t0, t) -> RegionVerdict:
    """Membership in the realizable-but-not-symmetric region of the family.

    The domain is the open triangle T (family t: 0 < t0 < 2t < 2) or
    R (family tprime: t0, t > 0, t0 + t < 1); family pm uses the threshold
    sqrt(16 sqrt(6) - 39) on 0 < t <= 3.  The symmetric flag is t >= 1.
    """
    t0 = rat(t0)
    t = rat(t)
    if family == "t":
        _require(
            0 < t0 < 2 * t < 2,
            "family t region needs 0 < t0 < 2t < 2 (got t0 = %s, t = %s)" % (t0, t),
        )
    elif family == "tprime":
        _require(
            t0 > 0 and t > 0 and t0 + t < 1,
            "family tprime region needs t0, t > 0 and t0 + t < 1 "
            "(got t0 = %s, t = %s)" % (t0, t),
        )
    elif family == "pm":
        _require(t0 == 0, "family pm has no t0 parameter")
        _require(0 < t <= 3, "family pm needs 0 < t <= 3")
    else:
        raise DomainError("unknown family %r" % family)
    boundary = region_boundary(family, t0)
    return RegionVerdict(
        member=float(t) >= boundary,
        symmetric_realizable=t >= 1,
        boundary=boundary,
    )


def spector_symmetric_flag(t) -> bool:
    """Symmetric realizability threshold for these families: t >= 1."""
    return rat(t) >= 1


# ---------------------------------------------------------------------------
# single-parameter 4x4 realization of the degree-4 sub-list
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeasibleInterval:
    """d1 range on which all four parametric entries are nonnegative."""

    empty: bool
    lo: float
    hi: float
    lo_exact: Fraction | None
    hi_exact: Fraction | None

    def contains(self, d1) -> bool:
        d1 = rat(d1)
        if self.empty:
            return False
        lo_ok = d1 >= self.lo_exact if self.lo_exact is not None else float(d1) >= self.lo - 1e-12
        hi_ok = d1 <= self.hi_exact if self.hi_exact is not None else float(d1) <= self.hi + 1e-12
        return lo_ok and hi_ok


@dataclass(frozen=True)
class CompanionParams:
    d1: Fraction
    d3: Fraction
    b: Fraction
    a: Fraction


def _quartic_coeffs(gamma_coeffs):
    coeffs = [rat(c) for c in gamma_coeffs]
    if len(coeffs) != 5 or coeffs[0] != 1:
        raise DomainError("expected a monic degree-4 coefficient list")
    if coeffs[1] != -2:
        raise DomainError(
            "the single-parameter scheme needs trace 2 (x^3 coefficient -2), "
            "got %s" % format_rational(coeffs[1])
        )
    return coeffs[2], coeffs[3], coeffs[4]


def feasible_d1(gamma_coeffs) -> FeasibleInterval:
    """Intersection of {d3 >= 0} = {d1 <= -k2}, {b >= 0} = {d1 >= k3/2}, {a >= 0}.

    The a-constraint is the root interval of -d1^2 + (4-k2) d1 - 2 k3 - k4;
    endpoints are exact when rational, else float brackets good to 1e-12.
    """
    k2, k3, k4 = _quartic_coeffs(gamma_coeffs)
    lo_lin = k3 / 2
    hi_lin = -k2
    bq = 4 - k2
    cq = 2 * k3 + k4
    disc = bq * bq - 4 * cq
    if disc < 0:
        return FeasibleInterval(True, math.nan, math.nan, None, None)
    root = rational_sqrt(disc)
    if root is not None:
        lo_q = (bq - root) / 2
        hi_q = (bq + root) / 2
        lo = max(lo_lin, lo_q)
        hi = min(hi_lin, hi_q)
        if lo > hi:
            return FeasibleInterval(True, math.nan, math.nan, None, None)
        return FeasibleInterval(False, float(lo), float(hi), lo, hi)
    sq = math.sqrt(float(disc))
    lo_q = (float(bq) - sq) / 2
    hi_q = (float(bq) + sq) / 2
    lo_mixed = [(float(lo_lin), lo_lin), (lo_q, None)]
    hi_mixed = [(float(hi_lin), hi_lin), (hi_q, None)]
    lo_pair = max(lo_mixed, key=lambda p: p[0])
    hi_pair = min(hi_mixed, key=lambda p: p[0])
    if lo_pair[0] > hi_pair[0] + 1e-12:
        return FeasibleInterval(True, math.nan, math.nan, None, None)
    return FeasibleInterval(False, lo_pair[0], hi_pair[0], lo_pair[1], hi_pair[1])


def _entry_formulas(k2, k3, k4, d1):
    d3 = -k2 - d1
    b = 2 * d1 - k3
    a = -d1 * d1 + (4 - k2) * d1 - 2 * k3 - k4
    return d3, b, a


def companion4(gamma_coeffs, d1):
    """The 4x4 realization A(d1) of a trace-2 quartic, plus its parameters.

    A(d1) = [[0,1,0,0],[d1,0,1,0],[2d1-k3,0,0,1],
             [-d1^2+(4-k2)d1-2k3-k4, 0, -k2-d1, 2]]
    with char poly exactly the input quartic and diagonal (0,0,0,2).  The
    entries are checked for sign only; diagonalizable_realization certifies
    the bonded 5x5 result, which would expose a wrong char poly here.
    """
    d1 = rat(d1)
    k2, k3, k4 = _quartic_coeffs(gamma_coeffs)
    d3, b, a = _entry_formulas(k2, k3, k4, d1)
    for name, value in (("d1", d1), ("b", b), ("a", a), ("d3", d3)):
        if value < 0:
            raise EntrySignError(
                "entry %s = %s is negative for d1 = %s"
                % (name, format_rational(value), format_rational(d1))
            )
    A = RationalMatrix(
        [
            [0, 1, 0, 0],
            [d1, 0, 1, 0],
            [b, 0, 0, 1],
            [a, 0, d3, 2],
        ]
    )
    return A, CompanionParams(d1=d1, d3=d3, b=b, a=a)


def _auto_d1(gamma_coeffs, interval: FeasibleInterval) -> Fraction:
    """Deterministic interior point: the interval midpoint, rationalized and
    verified against the exact entry signs."""
    k2, k3, k4 = _quartic_coeffs(gamma_coeffs)

    def entries_ok(d1):
        d3, b, a = _entry_formulas(k2, k3, k4, d1)
        return d1 >= 0 and d3 >= 0 and b >= 0 and a >= 0

    if interval.lo_exact is not None and interval.hi_exact is not None:
        mid = (interval.lo_exact + interval.hi_exact) / 2
        if entries_ok(mid):
            return mid
    mid_f = (interval.lo + interval.hi) / 2
    for bound in (100, 10**4, 10**6, 10**9):
        mid = Fraction(mid_f).limit_denominator(bound)
        if entries_ok(mid):
            return mid
    raise ConstructionUnavailableError(
        "could not pick an interior d1; the feasible interval is too thin"
    )


# ---------------------------------------------------------------------------
# full diagonalizable realization via bonding
# ---------------------------------------------------------------------------

GAMMA2_REALIZATION = RationalMatrix([[0, 2], [2, 0]])
GAMMA2_LEFT = (Fraction(1, 2), Fraction(1, 2))
GAMMA2_RIGHT = (Fraction(1), Fraction(1))


def diagonalizable_realization(point: Family5Point, d1=None) -> RealizationCertificate:
    """Certified diagonalizable nonnegative realization of a family point.

    Builds the 4x4 single-parameter realization of the degree-4 sub-list
    (one -2 dropped), bonds it with [[0,2],[2,0]] through the shared
    eigenvalue 2, and certifies: nonnegative, exact spectrum, fully
    diagonal Jordan structure.  d1 = None picks the feasible-interval
    midpoint.  Unavailable for family pm: its sub-list has a repeated -2,
    so this construction is forced into a 2x2 Jordan block there.
    """
    if point.family == "pm":
        raise ConstructionUnavailableError(
            "family pm keeps a repeated -2 in the degree-4 sub-list, so the "
            "bonded matrix is never diagonalizable; a diagonalizable "
            "realization would need t >= 1 and a symmetric construction, "
            "which this toolkit does not build"
        )
    verdict = torre_realizable_point(point)
    if not verdict.realizable:
        raise NotRealizableError(
            "the coefficient test rejects this list (condition %s: %s)"
            % (verdict.failed_condition, verdict.detail)
        )
    gamma = point.gamma1_coeffs()
    interval = feasible_d1(gamma)
    if interval.empty:
        raise ConstructionUnavailableError(
            "no d1 makes all four parametric entries nonnegative"
        )
    if d1 is None:
        d1 = _auto_d1(gamma, interval)
    d1 = rat(d1)
    A, _params = companion4(gamma, d1)
    C = smigoc_bond(A, GAMMA2_REALIZATION, 2, GAMMA2_LEFT, GAMMA2_RIGHT)
    claimed = JordanSpec.from_map(
        [(v, [1] * m) for v, m in point.spectrum.pairs]
    )
    return verify_certificate(C, point.spectrum, claimed)


# ---------------------------------------------------------------------------
# scripted obstruction demonstrations
# ---------------------------------------------------------------------------


@dataclass
class GuoFailureDemo:
    t0: Fraction
    t: Fraction
    original: tuple
    original_member: bool
    collapsed: tuple
    collapsed_t: Fraction
    spector_flag: bool
    collapsed_list_realizable: bool
    diagonalizable_path_error: str


def demo_guo_collapse(t0="1", t="4/5") -> GuoFailureDemo:
    """Perron-up/eigenvalue-down perturbation landing outside the
    diagonalizable construction.

    Start at a family-t point with t < 1 inside its region (universally
    realizable), raise the Perron entry by t0 and lower the third entry by
    t0.  The collapsed list {3+t, 3-t, -2, -2, -2} is realizable as a list,
    but every diagonalizable realization of it needs t >= 1, and the bonding
    construction degenerates (repeated -2 in the sub-list), so the
    diagonalizable path is unavailable.
    """
    point = make_point("t", t0, t)
    member = region_member("t", point.t0, point.t).member
    collapsed_point = make_point("pm", 0, point.t)
    pm_verdict = torre_realizable_point(collapsed_point)
    try:
        diagonalizable_realization(collapsed_point)
        error_text = ""
    except ConstructionUnavailableError as exc:
        error_text = str(exc)
    return GuoFailureDemo(
        t0=point.t0,
        t=point.t,
        original=point.values,
        original_member=member,
        collapsed=collapsed_point.values,
        collapsed_t=point.t,
        spector_flag=spector_symmetric_flag(point.t),
        collapsed_list_realizable=pm_verdict.realizable,
        diagonalizable_path_error=error_text,
    )


@dataclass
class UnionFailureDemo:
    samples: int
    forbidden_hits: int
    perron_diagonal_samples: int
    perron_diagonal_with_coupling: int
    weyr_histogram: dict


def _random_pm1_block(rng) -> RationalMatrix:
    """Random nonnegative 2x2 with spectrum {1,-1}: zero trace forces
    [[0,p],[1/p,0]]."""
    p = Fraction(rng.randint(1, 6), rng.randint(1, 6))
    return RationalMatrix([[0, p], [1 / p, 0]])


def _random_coupling(rng) -> RationalMatrix:
    if rng.random() < 0.25:
        return RationalMatrix.zeros(2, 2)
    return RationalMatrix(
        [
            [Fraction(rng.randint(0, 3), rng.randint(1, 3)) for _ in range(2)]
            for _ in range(2)
        ]
    )


def demo_union_obstruction(samples: int = 10000, seed: int = 0) -> UnionFailureDemo:
    """Randomized search for the impossible Jordan form of {1,1,-1,-1}.

    Every nonnegative realization of {1,1,-1,-1} is block reducible with
    sub-spectra {1,-1} + {1,-1}.  The demonstration samples such block
    realizations [[B,0],[C,D]] and verifies that none combines a diagonal
    structure at +1 with a 2x2 Jordan block at -1: whenever the Weyr
    sequence at +1 is (2), the one at -1 is also (2).  (Generic coupled
    samples pair 2x2 blocks at BOTH eigenvalues, which is allowed.)
    """
    rng = random.Random(seed)
    forbidden = 0
    diag_perron = 0
    diag_perron_coupled = 0
    histogram = {}
    for _ in range(samples):
        B = _random_pm1_block(rng)
        D = _random_pm1_block(rng)
        C = _random_coupling(rng)
        A = RationalMatrix.from_blocks(
            [[B, RationalMatrix.zeros(2, 2)], [C, D]]
        )
        w_plus = weyr_sequence(A, 1)
        w_minus = weyr_sequence(A, -1)
        key = (w_plus, w_minus)
        histogram[key] = histogram.get(key, 0) + 1
        if w_plus == (2,):
            diag_perron += 1
            if any(v != 0 for row in C.entries() for v in row):
                diag_perron_coupled += 1
            if w_minus != (2,):
                forbidden += 1
    return UnionFailureDemo(
        samples=samples,
        forbidden_hits=forbidden,
        perron_diagonal_samples=diag_perron,
        perron_diagonal_with_coupling=diag_perron_coupled,
        weyr_histogram={
            "%s|%s" % (k[0], k[1]): v for k, v in sorted(histogram.items())
        },
    )


@dataclass
class ForcedCouplingDemo:
    instances: list


def demo_forced_coupling(samples: int = 5, seed: int = 1) -> ForcedCouplingDemo:
    """Numeric display of the forced-decoupling algebra for {1,1,-1,-1}.

    A realization with the impossible Jordan form would satisfy the cubic
    minimal polynomial p(x) = x^3 + x^2 - x - 1; its lower-left block
    expands into the sum of three nonnegative terms (CB + DC) + DCB + C,
    so p(A) = 0 forces each term, hence the coupling C, to vanish.
    The instances tabulate the three terms and p(A)'s lower-left block.
    """
    rng = random.Random(seed)
    instances = []
    for _ in range(samples):
        B = _random_pm1_block(rng)
        D = _random_pm1_block(rng)
        C = _random_coupling(rng)
        term1 = C @ B + D @ C
        term2 = D @ C @ B
        term3 = C
        residual = term1 + term2 + term3
        A = RationalMatrix.from_blocks(
            [[B, RationalMatrix.zeros(2, 2)], [C, D]]
        )
        I4 = RationalMatrix.identity(4)
        pA = A @ A @ A + A @ A - A - I4
        lower_left = pA.submatrix((2, 3), (0, 1))
        if lower_left != residual:
            raise SpectraError("internal error: block expansion mismatch")
        instances.append(
            {
                "C": [[format_rational(v) for v in row] for row in C.entries()],
                "CB+DC": [[format_rational(v) for v in row] for row in term1.entries()],
                "DCB": [[format_rational(v) for v in row] for row in term2.entries()],
                "sum": [[format_rational(v) for v in row] for row in residual.entries()],
                "sum_is_zero": all(v == 0 for row in residual.entries() for v in row),
                "C_is_zero": all(v == 0 for row in C.entries() for v in row),
            }
        )
    return ForcedCouplingDemo(instances=instances)


# ---------------------------------------------------------------------------
# region sweep (CSV rows)
# ---------------------------------------------------------------------------


def region_grid(family: str, grid_step) -> list:
    """Deterministic interior grid of the family's parameter triangle."""
    step = rat(grid_step)
    if step <= 0:
        raise DomainError("grid step must be positive")
    points = []
    if family == "t":
        i = 1
        while i * step < 2:
            t0 = i * step
            j = 1
            while j * step < 1:
                t = j * step
                if t0 < 2 * t:
                    points.append((t0, t))
                j += 1
            i += 1
    elif family == "tprime":
        i = 1
        while i * step < 1:
            t0 = i * step
            j = 1
            while t0 + j * step < 1:
                points.append((t0, j * step))
                j += 1
            i += 1
    elif family == "pm":
        j = 1
        while j * step <= 3:
            points.append((Fraction(0), j * step))
            j += 1
    else:
        raise DomainError("unknown family %r" % family)
    return points


def region_rows(family: str, grid_step) -> list:
    """CSV rows (t0, t, torre, boundary_member, symmetric) over the grid."""
    rows = []
    for t0, t in region_grid(family, grid_step):
        point = make_point(family, t0, t)
        verdict = torre_realizable_point(point)
        member = region_member(family, t0, t)
        rows.append(
            (
                format_rational(t0),
                format_rational(t),
                int(verdict.realizable),
                int(member.member),
                int(member.symmetric_realizable),
            )
        )
    return rows
