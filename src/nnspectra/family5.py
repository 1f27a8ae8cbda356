"""Trace-zero degree-5 lists with three negative entries: regions and realizations.

Three parametric families are supported (written in (t0, t) parameters):

  * pm     : {3+t,    3-t, -2,      -2, -2}
  * t      : {3+t-t0, 3-t, -2+t0,   -2, -2}
  * tprime : {3+t+t0, 3-t, -2,      -2, -2-t0}

Coefficients k2..k5 of x^5 + k2 x^3 + k3 x^2 + k4 x + k5 are read off one
expansion of the five linear factors; the tests prove the closed forms and
the zero trace of every family symbolically and compare the expansion with
them.  Realizability of such a polynomial as a nonnegative
matrix is decided by an exact sign test on (k2, k3, k4, k5); the region
boundaries in the (t0, t) plane are evaluated in floating point (they bound
open verification regions, so 1e-12 accuracy is ample).  A diagonalizable
realization is built by bonding a 4x4 single-parameter matrix A(d1) with
the fixed 2x2 realization [[0,2],[2,0]] of {2,-2}; each end of the d1 range
that keeps A(d1) nonnegative is a Fraction when rational, else a float.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain

from .core import (
    RationalMatrix,
    Spectrum,
    _char_poly_int,
    _claim_poly_int,
    format_rational,
    matrix_to_json,
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


@dataclass(frozen=True)
class Family5Point:
    family: str
    t0: Fraction
    t: Fraction
    values: tuple  # the five entries in template order
    coeffs: tuple  # (k2, k3, k4, k5), exact

    # cached on first read, so one realization (and the realize5 artifact
    # built around it) computes each of these once

    @cached_property
    def spectrum(self) -> Spectrum:
        return Spectrum.from_values(self.values)

    @cached_property
    def _gamma1_coeffs(self) -> tuple:
        """Char poly of the degree-4 sub-list: the five values, one -2 removed."""
        gamma1 = list(self.values)
        gamma1.remove(-2)
        return tuple(poly_from_roots(gamma1))

    def gamma1_coeffs(self) -> list:
        return list(self._gamma1_coeffs)

    @cached_property
    def d1_interval(self) -> FeasibleInterval:
        """feasible_d1 of the degree-4 sub-list."""
        return feasible_d1(self._gamma1_coeffs)


def make_point(family: str, t0, t) -> Family5Point:
    """Build a family point; (k2, k3, k4, k5) come from one expansion of
    its five linear factors (the list has trace zero, so x^4 has none)."""
    t0 = rat(t0)
    t = rat(t)
    values = family_list(family, t0, t)
    coeffs = tuple(poly_from_roots(values)[2:])
    return Family5Point(family=family, t0=t0, t=t, values=values, coeffs=coeffs)


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


# ---------------------------------------------------------------------------
# closed-form region boundaries (float) and membership
# ---------------------------------------------------------------------------

PM_THRESHOLD = math.sqrt(16 * math.sqrt(6) - 39)

# per family: the predicate of its open region in the (t0, t) plane, the
# region's wording in refusals, and the box (t0 <= t0_max, t <= t_max) that
# holds the region; t0 ranges over 0 < t0 < t0_max (t0 = 0 when t0_max = 0)
_REGIONS = {
    "t": (lambda t0, t: 0 < t0 < 2 * t < 2, "0 < t0 < 2t < 2", (2, 1)),
    "tprime": (lambda t0, t: t0 > 0 and t > 0 and t0 + t < 1, "t0, t > 0 and t0 + t < 1", (1, 1)),
    "pm": (lambda t0, t: t0 == 0 and 0 < t <= 3, "t0 = 0 and 0 < t <= 3", (0, 3)),
}


def _region(family: str):
    if family not in _REGIONS:
        raise DomainError("unknown family %r" % family)
    return _REGIONS[family]


def region_boundary(family: str, t0) -> float:
    """Lower boundary of t for realizability (not symmetrically realizable)."""
    t0_max = _region(family)[2][0]
    t0 = rat(t0)
    _require(
        0 < t0 < t0_max or t0 == t0_max == 0,
        "family %s boundary needs %s (got t0 = %s)"
        % (family, "0 < t0 < %d" % t0_max if t0_max else "t0 = 0", t0),
    )
    if family == "pm":
        return PM_THRESHOLD
    # family tprime's is family t's at -t0, bit for bit: a - (-b) is a + b
    s = float(t0) if family == "t" else -float(t0)
    inner = 16 * math.sqrt(6 - s) * (4 - s) - 3 * s**2 + 52 * s - 156
    return (s + math.sqrt(inner)) / 2


@dataclass(frozen=True)
class RegionVerdict:
    member: bool
    symmetric_realizable: bool
    boundary: float


def region_member(family: str, t0, t) -> RegionVerdict:
    """Membership in the realizable-but-not-symmetric region of the family.

    The domain is the family's open region in _REGIONS: the triangle T
    (family t: 0 < t0 < 2t < 2), R (family tprime: t0, t > 0, t0 + t < 1)
    or, for family pm, 0 < t <= 3 with the threshold sqrt(16 sqrt(6) - 39).
    The symmetric flag is spector_symmetric_flag(t), t >= 1.
    """
    t0 = rat(t0)
    t = rat(t)
    inside, wording, _ = _region(family)
    _require(
        inside(t0, t),
        "family %s region needs %s (got t0 = %s, t = %s)" % (family, wording, t0, t),
    )
    boundary = region_boundary(family, t0)
    return RegionVerdict(
        member=float(t) >= boundary,
        symmetric_realizable=spector_symmetric_flag(t),
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
    """d1 range on which all four parametric entries are nonnegative; an
    endpoint is a Fraction when it is rational, else a float bracket."""

    empty: bool
    lo: Fraction | float
    hi: Fraction | float


_EMPTY = FeasibleInterval(True, math.nan, math.nan)


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
    its ends are exact, and compared exactly, when the discriminant is a
    rational square, else float brackets good to 1e-12 (a tie keeps k3/2 or -k2).
    """
    k2, k3, k4 = _quartic_coeffs(gamma_coeffs)
    bq = 4 - k2
    disc = bq * bq - 4 * (2 * k3 + k4)
    if disc < 0:
        return _EMPTY
    root = rational_sqrt(disc)
    exact = root is not None
    if not exact:
        root, bq = math.sqrt(float(disc)), float(bq)
    key = None if exact else float
    lo = max(k3 / 2, (bq - root) / 2, key=key)
    hi = min(-k2, (bq + root) / 2, key=key)
    if (lo > hi) if exact else (float(lo) > float(hi) + 1e-12):
        return _EMPTY
    return FeasibleInterval(False, lo, hi)


def _entries(k2, k3, k4, d1) -> dict:
    """The parametric entries d1, b, a, d3 of A(d1), in the order their signs
    are checked."""
    return {
        "d1": d1,
        "b": 2 * d1 - k3,
        "a": -d1 * d1 + (4 - k2) * d1 - 2 * k3 - k4,
        "d3": -k2 - d1,
    }


def companion4(gamma_coeffs, d1) -> RationalMatrix:
    """The 4x4 realization A(d1) of a trace-2 quartic.

    A(d1) = [[0,1,0,0],[d1,0,1,0],[2d1-k3,0,0,1],
             [-d1^2+(4-k2)d1-2k3-k4, 0, -k2-d1, 2]]
    with char poly exactly the input quartic and diagonal (0,0,0,2).  The
    entries are checked for sign only; diagonalizable_realization certifies
    the bonded 5x5 result, which would expose a wrong char poly here.  The
    matrix is built on its integer form: the numerators of the four
    parametric entries over their lcm L, and the constants 1 and 2 as L and
    2L.
    """
    d1 = rat(d1)
    e = _entries(*_quartic_coeffs(gamma_coeffs), d1)
    for name, value in e.items():
        if value < 0:
            raise EntrySignError(
                "entry %s = %s is negative for d1 = %s"
                % (name, format_rational(value), format_rational(d1))
            )
    L = math.lcm(*(value.denominator for value in e.values()))
    x1, b, a, d3 = (value.numerator * (L // value.denominator) for value in e.values())
    return RationalMatrix._of_ints(
        [
            [0, L, 0, 0],
            [x1, 0, L, 0],
            [b, 0, 0, L],
            [a, 0, d3, 2 * L],
        ],
        L,
    )


def _auto_d1(gamma_coeffs, interval: FeasibleInterval) -> Fraction:
    """Deterministic interior point: the interval midpoint, exact when both
    endpoints are Fractions, else rationalized; a candidate is taken when
    none of its entries is negative."""
    k2, k3, k4 = _quartic_coeffs(gamma_coeffs)
    lo, hi = interval.lo, interval.hi
    exact = [(lo + hi) / 2] if isinstance(lo, Fraction) and isinstance(hi, Fraction) else []
    mid_f = (float(lo) + float(hi)) / 2
    ladder = (Fraction(mid_f).limit_denominator(b) for b in (100, 10**4, 10**6, 10**9))
    for d1 in chain(exact, ladder):
        if min(_entries(k2, k3, k4, d1).values()) >= 0:
            return d1
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
    verdict = torre_realizable(*point.coeffs)
    if not verdict.realizable:
        raise NotRealizableError(
            "the coefficient test rejects this list (condition %s: %s)"
            % (verdict.failed_condition, verdict.detail)
        )
    gamma = point.gamma1_coeffs()
    interval = point.d1_interval
    if interval.empty:
        raise ConstructionUnavailableError(
            "no d1 makes all four parametric entries nonnegative"
        )
    if d1 is None:
        d1 = _auto_d1(gamma, interval)
    A = companion4(gamma, d1)
    C = smigoc_bond(A, GAMMA2_REALIZATION, 2, GAMMA2_LEFT, GAMMA2_RIGHT)
    claimed = JordanSpec.from_map([(v, [1] * m) for v, m in point.spectrum.pairs])
    return verify_certificate(C, point.spectrum, claimed)


# ---------------------------------------------------------------------------
# scripted obstruction demonstrations
# ---------------------------------------------------------------------------


@dataclass
class GuoFailureDemo:
    original: tuple
    original_in_region: bool
    collapsed: tuple
    collapsed_realizable_as_list: bool
    symmetric_flag_t_ge_1: bool
    diagonalizable_path_error: str


def demo_guo_collapse() -> GuoFailureDemo:
    """Perron-up/eigenvalue-down perturbation landing outside the
    diagonalizable construction.

    Start at the family-t point t0 = 1, t = 4/5 < 1 inside its region
    (universally realizable), raise the Perron entry by t0 and lower the
    third entry by t0.  The collapsed list {3+t, 3-t, -2, -2, -2} is
    realizable as a list, but every diagonalizable realization of it needs
    t >= 1, and the bonding construction degenerates (repeated -2 in the
    sub-list), so the diagonalizable path is unavailable.
    """
    point = make_point("t", 1, Fraction(4, 5))
    collapsed_point = make_point("pm", 0, point.t)
    try:
        diagonalizable_realization(collapsed_point)
        error_text = ""
    except ConstructionUnavailableError as exc:
        error_text = str(exc)
    return GuoFailureDemo(
        original=point.values,
        original_in_region=region_member("t", point.t0, point.t).member,
        collapsed=collapsed_point.values,
        collapsed_realizable_as_list=torre_realizable(*collapsed_point.coeffs).realizable,
        symmetric_flag_t_ge_1=spector_symmetric_flag(point.t),
        diagonalizable_path_error=error_text,
    )


@dataclass
class UnionFailureDemo:
    samples: int
    forbidden_jordan_hits: int
    perron_diagonal_samples: int
    perron_diagonal_with_nonzero_coupling: int
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


def _random_union_sample(rng):
    """(B, D, C, A): a random block realization A = [[B, 0], [C, D]] of
    {1,1,-1,-1}, drawn in the order B, D, C."""
    B = _random_pm1_block(rng)
    D = _random_pm1_block(rng)
    C = _random_coupling(rng)
    return B, D, C, RationalMatrix.from_blocks([[B, RationalMatrix.zeros(2, 2)], [C, D]])


_UNION_SPECTRUM = Spectrum.from_values([1, 1, -1, -1])


def demo_union_obstruction(samples: int = 10000, seed: int = 0) -> UnionFailureDemo:
    """Randomized search for the impossible Jordan form of {1,1,-1,-1}.

    Every nonnegative realization of {1,1,-1,-1} is block reducible with
    sub-spectra {1,-1} + {1,-1}.  The demonstration samples such block
    realizations [[B,0],[C,D]] and verifies that none combines a diagonal
    structure at +1 with a 2x2 Jordan block at -1: whenever the Weyr
    sequence at +1 is (2), the one at -1 is also (2).  (Generic coupled
    samples pair 2x2 blocks at BOTH eigenvalues, which is allowed.)
    Each sample's char poly is checked exactly, over Z, against (x-1)^2
    (x+1)^2, so both Weyr sequences may stop at multiplicity 2.
    """
    rng = random.Random(seed)
    forbidden = 0
    diag_perron = 0
    diag_perron_coupled = 0
    histogram = {}
    for _ in range(samples):
        _B, _D, C, A = _random_union_sample(rng)
        if _char_poly_int(A.num) != _claim_poly_int(_UNION_SPECTRUM, A.den):
            raise SpectraError("internal error: a sample's char poly is not (x-1)^2 (x+1)^2")
        w_plus = weyr_sequence(A, 1, 2)
        w_minus = weyr_sequence(A, -1, 2)
        key = (w_plus, w_minus)
        histogram[key] = histogram.get(key, 0) + 1
        if w_plus == (2,):
            diag_perron += 1
            if any(map(any, C.num)):
                diag_perron_coupled += 1
            if w_minus != (2,):
                forbidden += 1
    return UnionFailureDemo(
        samples=samples,
        forbidden_jordan_hits=forbidden,
        perron_diagonal_samples=diag_perron,
        perron_diagonal_with_nonzero_coupling=diag_perron_coupled,
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
        B, D, C, A = _random_union_sample(rng)
        term1 = C @ B + D @ C
        term2 = D @ C @ B
        residual = term1 + term2 + C
        pA = A @ A @ A + A @ A - A - RationalMatrix.identity(4)
        if pA.submatrix((2, 3), (0, 1)) != residual:
            raise SpectraError("internal error: block expansion mismatch")
        instances.append(
            {
                "C": matrix_to_json(C)["entries"],
                "CB+DC": matrix_to_json(term1)["entries"],
                "DCB": matrix_to_json(term2)["entries"],
                "sum": matrix_to_json(residual)["entries"],
                "sum_is_zero": not any(map(any, residual.num)),
                "C_is_zero": not any(map(any, C.num)),
            }
        )
    return ForcedCouplingDemo(instances=instances)


# ---------------------------------------------------------------------------
# region sweep (CSV rows)
# ---------------------------------------------------------------------------


def region_grid(family: str, grid_step) -> list:
    """The step multiples (t0, t) in the family's box that lie in its open
    region, t0 outer and t inner, at a step of at least 1/1000 (family t
    has about 1/step^2 points)."""
    step = rat(grid_step)
    if step <= 0:
        raise DomainError("grid step must be positive")
    if step < Fraction(1, 1000):
        raise DomainError("grid step %s is below 1/1000" % format_rational(step))
    inside, _, (t0_max, t_max) = _region(family)
    t0s = [i * step for i in range(int(t0_max / step) + 1)]
    ts = [j * step for j in range(int(t_max / step) + 1)]
    return [(t0, t) for t0 in t0s for t in ts if inside(t0, t)]


def region_rows(family: str, grid_step) -> list:
    """CSV rows (t0, t, torre, boundary_member, symmetric) over the grid."""
    rows = []
    for t0, t in region_grid(family, grid_step):
        point = make_point(family, t0, t)
        verdict = torre_realizable(*point.coeffs)
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
