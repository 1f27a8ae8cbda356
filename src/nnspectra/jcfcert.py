"""Exact Jordan-structure computation and certificate verification.

Weyr sequences are cumulative nullities w_k = dim ker (A - lambda I)^k,
exact ranks of integer powers; the conjugate partition of their increments
is the Segre characteristic (Jordan block sizes).  Once A's char poly has
matched a spectrum exactly, each eigenvalue's multiplicity fixes where its
sequence ends, and only the ranks that leaves open are computed: none at a
simple eigenvalue, at most one per eigenvalue of a nonderogatory matrix.
Everything here certifies matrices with rational spectra, which
rational_spectrum_of tells apart exactly, over Z; irrational spectra are
not certified.  Every char poly here is the integer Berkowitz poly of A's
integer form; only a failing claim's residual is worded from its Fractions.

This module computes the spectral facts that certificates rest on.
jordan_spec first tries a cyclic certificate: one Krylov basis
v, N v, ..., N^(n-1) v of A's integer form N from the fixed vector
v = (1, 2, ..., n), with q(N) v = 0 for the claim's polynomial q over Z
and r(N) v != 0 for the quotient r of q by each of its distinct linear
factors.  That proves, exactly and with no prime, that v's minimal
polynomial is q, so A is nonderogatory with the claimed char poly and its
form is one Jordan block per eigenvalue, with no char poly and no rank.
A quotient that vanishes on (1, 2, ..., n) only puts v in a proper
invariant subspace, so one fixed scrambled integer vector is tried next.
The quotient's vector r(N) v at the Perron value spans that eigenspace,
and the Perron shift's reduction takes it in place of a kernel.  When the
basis cannot conclude (q(N) v != 0, a quotient vanishing on both vectors,
a derogatory A), the same q is compared over Z with the char poly of N
(Berkowitz over the integers); _prove_spectrum is that Krylov-first
order, for every caller that proves a claim, and verify_certificate makes
the same comparison.  Only a failing claim builds the Fraction residual
that words its refusal.  jordan_spec and verify_certificate then share one
Weyr sequence per claimed eigenvalue (ranks by the fraction-free
elimination), and _certificate words every certificate's records from such
facts.  Constructions certified here (the degree-5 realization, bonding)
do not check those facts again.  The Perron shift (perturb.ur_shift)
proves its output's facts from a verified similarity instead and hands
them to _certificate; verify_certificate, which recomputes them, stays the
independent oracle for that derivation.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .core import (
    JordanSpec,
    RationalMatrix,
    Spectrum,
    _char_poly_int,
    _claim_poly_int,
    _integer_product,
    _rational_poly,
    _root_ceiling,
    _shifted,
    exact_rank,
    format_rational,
    matrix_to_json,
    poly_sub,
    poly_to_string,
    rat,
    synthetic_div,
)
from .errors import DimensionError, DomainError, SpectrumMismatchError


def weyr_sequence(A: RationalMatrix, lam, multiplicity=None) -> tuple:
    """Cumulative Weyr sequence of A at lam, up to stabilization.

    Returns () when lam is not an eigenvalue.  N = d (lam I - A), the
    integer form of lam I - A read from A's, has rank(N^k) = rank((A - lam
    I)^k), so the powers are integer products, handed to exact_rank as
    integer matrices and never cleared again.  The loop stops once the
    nullity stops growing (it then equals the algebraic multiplicity).

    multiplicity is the algebraic multiplicity m of lam, passed only by
    callers that have just matched char_poly(A) exactly against a spectrum
    in which lam has multiplicity m.  The sequence then ends exactly at m,
    and its increments w_k - w_(k-1) count the Jordan blocks of size >= k,
    so they never increase.  Three rules skip ranks without changing the
    result:
      1. m = 1: the sequence is (1,), with no rank at all;
      2. a nullity that reaches m ends the sequence, without the rank of
         the next power that would only confirm it;
      3. an increment of 1 forces every later increment to be 1 as well,
         so nullity + 1, ..., m follow without ranks.
    """
    if not A.is_square:
        raise DimensionError("Weyr sequence needs a square matrix")
    if multiplicity == 1:
        return (1,)
    lam = rat(lam)
    n = A.rows
    # the integer rows of lam I - A, whose powers have the ranks of (A - lam I)^k
    N = _shifted(lam, A).num
    out = []
    P = N
    prev = 0
    for _ in range(n):
        nullity = n - exact_rank(RationalMatrix._of_ints(P))
        if nullity == prev:
            break
        out.append(nullity)
        if multiplicity is not None and (nullity == multiplicity or nullity == prev + 1):
            out.extend(range(nullity + 1, multiplicity + 1))
            break
        prev = nullity
        if nullity == n:
            break
        P = _integer_product(P, N)
    return tuple(out)


def segre_from_weyr(weyr) -> tuple:
    """Jordan block sizes (weakly decreasing) from a cumulative Weyr sequence."""
    if not weyr:
        return ()
    increments = [weyr[0]] + [b - a for a, b in zip(weyr, weyr[1:])]
    nblocks = increments[0]
    sizes = [sum(1 for d in increments if d >= i + 1) for i in range(nblocks)]
    return tuple(sorted(sizes, reverse=True))


def _residual(p, spectrum: Spectrum):
    """The char poly p minus the claimed spectrum's polynomial; [0] on a match."""
    return poly_sub(p, spectrum.char_poly())


def _claim_residual(A: RationalMatrix, spectrum: Spectrum):
    """char_poly(A) minus the claimed spectrum's polynomial, compared over Z.

    With N = d A, A's integer form, the claim matches iff _char_poly_int(N)
    (one Berkowitz) equals _claim_poly_int(spectrum, d): the same char poly
    after the substitution y = d x.  A match gives [Fraction(0)] with no
    Fraction poly; a mismatch builds char_poly(A)'s Fraction view of the same
    integer coefficients and returns _residual, which words the refusal.
    """
    c, d = _char_poly_int(A.num), A.den
    if c == _claim_poly_int(spectrum, d):
        return [Fraction(0)]
    return _residual(_rational_poly(c, d), spectrum)


def _weyr_pass(A: RationalMatrix, spectrum: Spectrum, checked: bool):
    """One Weyr sequence of A per claimed eigenvalue, in the spectrum's order.

    checked says that char_poly(A) matches the spectrum exactly, so each
    pair's multiplicity may cut its sequence short (see weyr_sequence).
    """
    return [
        (value, weyr_sequence(A, value, m if checked else None))
        for value, m in spectrum.pairs
    ]


def _jordan_of(A: RationalMatrix, spectrum: Spectrum) -> JordanSpec:
    """The Weyr half of jordan_spec, for a spectrum already checked exactly
    against char_poly(A): each sequence then stabilizes at its eigenvalue's
    multiplicity, so the block sizes partition it."""
    return JordanSpec.from_map(
        [(value, segre_from_weyr(weyr)) for value, weyr in _weyr_pass(A, spectrum, True)]
    )


def _match_spectrum(A: RationalMatrix, spectrum: Spectrum):
    """SpectrumMismatchError, with _claim_residual's residual, unless A's
    char poly is the claimed spectrum's, compared over Z."""
    residual = _claim_residual(A, spectrum)
    if residual != [Fraction(0)]:
        raise SpectrumMismatchError(
            "characteristic polynomial does not match the claimed spectrum; "
            "residual: %s" % poly_to_string(residual),
            residual=residual,
        )


def _cyclic_jordan(A: RationalMatrix, spectrum: Spectrum):
    """(form, x) when a Krylov basis proves A nonderogatory with the
    claimed char poly, the form having one block per claimed eigenvalue;
    None when it cannot conclude.

    N = d A is A's integer form, v = (1, 2, ..., n) and
    q(y) = prod (y - mu_i)^(m_i), mu_i = d lam_i, the claim's polynomial
    over Z (_claim_poly_int, the polynomial the char-poly route compares).
    v is neither e, an eigenvector of every CS-form matrix, nor a unit
    vector, which stays in its block's invariant subspace when A is block
    triangular.  If q(N) v = 0, the minimal polynomial of v under N divides
    q, and it is q itself iff no quotient r_i = q / (y - mu_i) of a distinct
    root has r_i(N) v = 0.  Each r_i(N) v is a combination of the Krylov
    vectors v, N v, ..., N^(n-1) v, tested up to its first nonzero entry.
    Then char_poly(N) = minpoly(N) = q: char_poly(A) is the claim's, and
    each eigenvalue has one Jordan block of its full multiplicity.  Only
    integer mat-vecs are taken, and the proof is exact over Z.

    A vanishing quotient only says that v lies in a proper invariant
    subspace, so the basis is built once more from the fixed scrambled
    vector v_i = (31 i^2 + 17 i + 5) mod 97 + 1 before giving up.
    q(N) v != 0 on either vector gives None at once: by Cayley-Hamilton the
    claim is then wrong.

    As (N - mu I) r(N) v = q(N) v = 0 for the quotient r at mu = d
    spectrum.perron, x = r(N) v spans that eigenvalue's one-dimensional
    eigenspace; it is returned primitive, with its first nonzero entry
    positive, whichever vector concluded: for an irreducible A >= 0 it is
    the positive Perron vector.  A claim of another order, a non-integral
    root (a wrong claim, as the rational roots of a monic integer poly are
    integers), q(N) v != 0, a quotient vanishing on both vectors and a
    derogatory A give None.
    """
    n = A.rows
    if not A.is_square or spectrum.order != n:
        return None
    N, d = A.num, A.den
    q = _claim_poly_int(spectrum, d)  # highest first
    if q is None:
        return None
    # every d lam is now an integer
    quotients = [
        (mu, synthetic_div(q, mu)[0])
        for mu in (value.numerator * d // value.denominator for value, _ in spectrum.pairs)
    ]
    perron = spectrum.perron.numerator * d // spectrum.perron.denominator
    for v in (range(1, n + 1), [(31 * i * i + 17 * i + 5) % 97 + 1 for i in range(1, n + 1)]):
        krylov = [list(v)]
        for _ in range(n):
            w = krylov[-1]
            krylov.append([sum(map(operator.mul, row, w)) for row in N])
        # entry i of every Krylov vector, N^n v first; entry i of q(N) v is
        # sum_k q_k (N^(n-k) v)_i, and that of r(N) v, r of degree n - 1,
        # sum_k r_k (N^(n-1-k) v)_i
        entries = [powers[::-1] for powers in zip(*krylov)]
        if any(sum(map(operator.mul, q, powers)) for powers in entries):
            return None
        for mu, r in quotients:
            # r(N) v, up to its first nonzero entry; in full at the Perron value
            quotient = (sum(map(operator.mul, r, powers[1:])) for powers in entries)
            if mu == perron:
                quotient = x = list(quotient)
            if not any(quotient):
                break
        else:
            g = math.gcd(*x) if next(filter(None, x)) > 0 else -math.gcd(*x)
            form = JordanSpec.from_map([(value, (m,)) for value, m in spectrum.pairs])
            return form, tuple(entry // g for entry in x)
    return None


def _prove_spectrum(A: RationalMatrix, spectrum: Spectrum):
    """Prove that spectrum is A's, Krylov basis first: _cyclic_jordan's
    (form, x) when it concludes, else None once char_poly(A) has matched the
    spectrum exactly; SpectrumMismatchError when it does not."""
    cyclic = _cyclic_jordan(A, spectrum)
    if cyclic is None:
        _match_spectrum(A, spectrum)
    return cyclic


def _certified_jordan(A: RationalMatrix, spectrum: Spectrum):
    """(jordan_spec(A, spectrum), x): x is _cyclic_jordan's eigenvector at
    spectrum.perron when the Krylov basis concluded, else None."""
    cyclic = _prove_spectrum(A, spectrum)
    if cyclic is not None:
        return cyclic
    return _jordan_of(A, spectrum), None


def jordan_spec(A: RationalMatrix, spectrum: Spectrum) -> JordanSpec:
    """Exact Jordan structure of A, given its (rational) spectrum.

    When _cyclic_jordan's Krylov basis proves A nonderogatory (its quotient
    test, exact over Z), the form follows with no char poly and no rank.  Otherwise char_poly(A) is matched
    exactly against the spectrum and the Weyr ranks give the block sizes;
    SpectrumMismatchError, with the char poly's residual, is raised when it
    does not split over the supplied spectrum.
    """
    return _certified_jordan(A, spectrum)[0]


def rational_spectrum_of(A: RationalMatrix):
    """Spectrum of A when its char poly p splits over Q, else None.

    The split test runs over Z: q(y) = d^n p(y/d) = det(yI - N), the integer
    char poly of A's integer form N = d A, is monic, so p splits over Q iff
    q has n integer roots.  Such a q is real-rooted, so _root_ceiling from
    the Cauchy bound (Newton probes decided by the Taylor test, with
    bisection as the bounded fallback) finds its largest root m; q(m) = 0
    is checked, y - m divided out, and the next root sought <= m.
    """
    return _spectrum_from_poly(_char_poly_int(A.num), A.den)


def _spectrum_from_poly(q, d):
    """rational_spectrum_of for the integer char poly q of a form over d."""
    bound = 1 + max(map(abs, q))
    roots, m = [], bound
    while len(q) > 1:
        m = _root_ceiling(q, -bound, m)
        q, remainder = synthetic_div(q, m)
        if remainder:
            return None
        roots.append(Fraction(m, d))
    return Spectrum.from_values(roots)


def _partitions(remaining, largest):
    """Partitions of remaining into parts <= largest, reverse-lexicographic."""
    if remaining == 0:
        yield ()
        return
    for first in range(min(remaining, largest), 0, -1):
        for rest in _partitions(remaining - first, first):
            yield (first,) + rest


def integer_partitions(m: int):
    """Partitions of m in reverse-lexicographic order: (m), ..., (1,...,1)."""
    return list(_partitions(m, m))


# enumerate_jordan_forms refuses a spectrum that allows more forms than this
MAX_JORDAN_FORMS = 10_000


def enumerate_jordan_forms(spectrum: Spectrum):
    """All JordanSpecs allowed by the spectrum, in deterministic order.

    Eigenvalues ascend; per eigenvalue the partitions of its multiplicity
    run in reverse-lexicographic order.  The forms are counted by listing
    those partitions, at most MAX_JORDAN_FORMS // count + 1 of them per
    multiplicity, count being the product of the partition counts before
    it; a spectrum allowing more than MAX_JORDAN_FORMS forms raises
    DomainError as soon as that product passes the bound, before any form
    is built.
    """
    count, choices = 1, []
    for v, m in sorted(spectrum.pairs):
        listed = list(itertools.islice(_partitions(m, m), MAX_JORDAN_FORMS // count + 1))
        count *= len(listed)
        if count > MAX_JORDAN_FORMS:
            raise DomainError(
                "the spectrum allows more than %d Jordan forms; refusing to list them"
                % MAX_JORDAN_FORMS
            )
        choices.append([(v, p) for p in listed])
    return [JordanSpec.from_map(list(form)) for form in itertools.product(*choices)]


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckRecord:
    name: str
    passed: bool
    detail: str

    def to_json(self):
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class RealizationCertificate:
    matrix: RationalMatrix
    claimed_spectrum: Spectrum
    claimed_jordan: JordanSpec
    verdict: bool
    checks: tuple = field(default_factory=tuple)

    def to_json(self):
        return {
            "schema": 1,
            "verdict": "pass" if self.verdict else "fail",
            "matrix": matrix_to_json(self.matrix),
            "spectrum": self.claimed_spectrum.to_json(),
            "jordan": self.claimed_jordan.to_json(),
            "checks": [c.to_json() for c in self.checks],
        }


def verify_certificate(
    matrix: RationalMatrix, claimed_spectrum: Spectrum, claimed_jordan: JordanSpec
) -> RealizationCertificate:
    """Run the full exact check suite; failures are verdicts, never errors.

    The char-poly check compares one integer char poly with the claim's over
    Z (_claim_residual); only a failing claim builds the Fraction residual
    that its record prints.
    """
    residual = _claim_residual(matrix, claimed_spectrum)
    # a failing char poly keeps the full towers, and with them the details
    weyrs = _weyr_pass(matrix, claimed_spectrum, residual == [Fraction(0)])
    return _certificate(matrix, claimed_spectrum, claimed_jordan, residual, weyrs)


def _certificate(
    matrix: RationalMatrix,
    claimed_spectrum: Spectrum,
    claimed_jordan: JordanSpec,
    residual,
    weyrs,
) -> RealizationCertificate:
    """The certificate's records, from facts established about matrix.

    residual is char_poly(matrix) minus the claimed spectrum's polynomial, and
    weyrs holds one (value, Weyr sequence of matrix at value) per claimed
    pair, in the spectrum's order.  verify_certificate computes both; a caller
    that has proved them another way (the Perron shift) passes them here, so
    every certificate words its records the same way.
    """
    checks = []

    def record(name, ok, passed, failed):
        checks.append(CheckRecord(name, ok, passed if ok else failed))

    record(
        "nonnegativity",
        matrix.is_nonnegative,
        "all entries >= 0",
        "a negative entry is present",
    )
    record(
        "char-poly",
        residual == [Fraction(0)],
        "char poly matches spectrum exactly",
        "residual: %s" % poly_to_string(residual),
    )
    record(
        "jordan-vs-spectrum",
        claimed_jordan.spectrum().pairs == claimed_spectrum.pairs,
        "claimed Jordan blocks partition the claimed multiplicities",
        "claimed Jordan blocks do not match the spectrum multiplicities",
    )
    for value, got in weyrs:
        label = format_rational(value)
        expected = claimed_jordan.weyr_at(value)
        record(
            "weyr@" + label,
            got == expected,
            "weyr %s" % (got,),
            "weyr %s, claimed %s" % (got, expected),
        )
        derived = segre_from_weyr(got)
        sizes = claimed_jordan.sizes_at(value)
        record(
            "segre@" + label,
            derived == sizes,
            "block sizes %s" % (derived,),
            "block sizes %s, claimed %s" % (derived, sizes),
        )

    return RealizationCertificate(
        matrix=matrix,
        claimed_spectrum=claimed_spectrum,
        claimed_jordan=claimed_jordan,
        verdict=all(check.passed for check in checks),
        checks=tuple(checks),
    )
