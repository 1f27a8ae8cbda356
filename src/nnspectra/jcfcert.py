"""Exact Jordan-structure computation and certificate verification.

Weyr sequences are cumulative nullities w_k = dim ker (A - lambda I)^k,
exact ranks of integer powers; the conjugate partition of their increments
is the Segre characteristic (Jordan block sizes).  Once char_poly(A) has
matched a spectrum exactly, each eigenvalue's multiplicity fixes where its
sequence ends, and only the ranks that leaves open are computed: none at a
simple eigenvalue, at most one per eigenvalue of a nonderogatory matrix.
Everything here certifies matrices with rational spectra; irrational
spectra are not certified.

This module is the one place that checks a matrix against a spectral claim:
jordan_spec and verify_certificate share one char-poly residual (Berkowitz
over the integers) and one Weyr sequence per claimed eigenvalue (ranks by the
fraction-free elimination).  Constructions certified
here (the degree-5 realization, bonding) do not check those facts again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import (
    JordanSpec,
    RationalMatrix,
    Spectrum,
    _integer_row,
    char_poly,
    exact_rank,
    format_rational,
    matrix_to_json,
    poly_from_roots,
    poly_sub,
    poly_to_string,
    rat,
    to_float,
)
from .errors import DimensionError, SpectrumMismatchError


def weyr_sequence(A: RationalMatrix, lam, multiplicity=None) -> tuple:
    """Cumulative Weyr sequence of A at lam, up to stabilization.

    Returns () when lam is not an eigenvalue.  N = d (A - lam I) is cleared
    to integers once, and rank(N^k) = rank((A - lam I)^k), so the powers are
    integer products ranked by exact_rank.  The loop stops once the nullity
    stops growing (it then equals the algebraic multiplicity).

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
    shifted = [v - lam if i == j else v for i, r in enumerate(A.entries()) for j, v in enumerate(r)]
    flat, _ = _integer_row(shifted)
    N = [flat[i * n : (i + 1) * n] for i in range(n)]
    columns = list(zip(*N))
    out = []
    P = N
    prev = 0
    for _ in range(n):
        nullity = n - exact_rank(RationalMatrix(P))
        if nullity == prev:
            break
        out.append(nullity)
        if multiplicity is not None and (nullity == multiplicity or nullity == prev + 1):
            out.extend(range(nullity + 1, multiplicity + 1))
            break
        prev = nullity
        if nullity == n:
            break
        P = [[sum(a * b for a, b in zip(row, col)) for col in columns] for row in P]
    return tuple(out)


def segre_from_weyr(weyr) -> tuple:
    """Jordan block sizes (weakly decreasing) from a cumulative Weyr sequence."""
    if not weyr:
        return ()
    increments = [weyr[0]] + [b - a for a, b in zip(weyr, weyr[1:])]
    nblocks = increments[0]
    sizes = [sum(1 for d in increments if d >= i + 1) for i in range(nblocks)]
    return tuple(sorted(sizes, reverse=True))


def _residual(A: RationalMatrix, spectrum: Spectrum):
    """char_poly(A) minus the claimed spectrum's polynomial; [0] on a match."""
    return poly_sub(char_poly(A), spectrum.char_poly())


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


def jordan_spec(A: RationalMatrix, spectrum: Spectrum) -> JordanSpec:
    """Exact Jordan structure of A, given its (rational) spectrum.

    Raises SpectrumMismatchError when char_poly(A) does not split exactly
    over the supplied spectrum.
    """
    residual = _residual(A, spectrum)
    if residual != [Fraction(0)]:
        raise SpectrumMismatchError(
            "characteristic polynomial does not match the claimed spectrum; "
            "residual: %s" % poly_to_string(residual),
            residual=residual,
        )
    return _jordan_of(A, spectrum)


def integer_partitions(m: int):
    """Partitions of m in reverse-lexicographic order: (m), ..., (1,...,1)."""

    def gen(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return list(gen(m, m))


def enumerate_jordan_forms(spectrum: Spectrum):
    """All JordanSpecs allowed by the spectrum, in deterministic order.

    Eigenvalues ascend; per eigenvalue the partitions of its multiplicity
    run in reverse-lexicographic order.
    """
    values = sorted(v for v, _ in spectrum.pairs)
    mults = {v: m for v, m in spectrum.pairs}
    choices = [[(v, p) for p in integer_partitions(mults[v])] for v in values]
    forms = []

    def rec(i, acc):
        if i == len(choices):
            forms.append(JordanSpec.from_map(list(acc)))
            return
        for v, p in choices[i]:
            rec(i + 1, acc + [(v, p)])

    rec(0, [])
    return forms


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
    """Run the full exact check suite; failures are verdicts, never errors."""
    checks = []

    def record(name, ok, passed, failed):
        checks.append(CheckRecord(name, ok, passed if ok else failed))

    record(
        "nonnegativity",
        matrix.is_nonnegative,
        "all entries >= 0",
        "a negative entry is present",
    )
    residual = _residual(matrix, claimed_spectrum)
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
    # a failing char poly keeps the full towers, and with them the details
    for value, got in _weyr_pass(matrix, claimed_spectrum, residual == [Fraction(0)]):
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


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

_DENOMINATOR_BOUND = 10**6


def rational_spectrum_of(A: RationalMatrix):
    """Spectrum of A when its char poly splits over Q, else None.

    Float eigenvalues are rationalized with denominators up to 10^6 and the
    factorization is re-verified exactly, so a returned Spectrum is always
    correct; a None only means the reconstruction heuristic failed (e.g.
    huge denominators or complex pairs).
    """
    ev = np.linalg.eigvals(to_float(A).array)
    if np.max(np.abs(ev.imag)) > 1e-7:
        return None
    candidates = []
    for x in sorted(ev.real.tolist(), reverse=True):
        candidates.append(Fraction(x).limit_denominator(_DENOMINATOR_BOUND))
    if poly_sub(char_poly(A), poly_from_roots(candidates)) != [Fraction(0)]:
        return None
    return Spectrum.from_values(candidates)

