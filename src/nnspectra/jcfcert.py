"""Exact Jordan-structure computation and certificate verification.

Weyr sequences are cumulative nullities w_k = dim ker (A - lambda I)^k,
computed with exact ranks; the conjugate partition of their increments is
the Segre characteristic (Jordan block sizes).  Everything here certifies
matrices with rational spectra; irrational spectra only get a float-mode
estimate that is clearly marked non-certifying.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import (
    JordanSpec,
    RationalMatrix,
    Spectrum,
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


def weyr_sequence(A: RationalMatrix, lam) -> tuple:
    """Cumulative Weyr sequence of A at lam, up to stabilization.

    Returns () when lam is not an eigenvalue.  Powers of (A - lam I) are
    built incrementally and the loop short-circuits once the nullity stops
    growing (it then equals the algebraic multiplicity).
    """
    if not A.is_square:
        raise DimensionError("Weyr sequence needs a square matrix")
    lam = rat(lam)
    n = A.rows
    M = A - RationalMatrix.identity(n).scale(lam)
    out = []
    P = M
    prev = 0
    for _ in range(n):
        nullity = n - exact_rank(P)
        if nullity == prev:
            break
        out.append(nullity)
        prev = nullity
        if nullity == n:
            break
        P = P @ M
    return tuple(out)


def segre_from_weyr(weyr) -> tuple:
    """Jordan block sizes (weakly decreasing) from a cumulative Weyr sequence."""
    if not weyr:
        return ()
    increments = [weyr[0]] + [b - a for a, b in zip(weyr, weyr[1:])]
    nblocks = increments[0]
    sizes = [sum(1 for d in increments if d >= i + 1) for i in range(nblocks)]
    return tuple(sorted(sizes, reverse=True))


def jordan_spec(A: RationalMatrix, spectrum: Spectrum) -> JordanSpec:
    """Exact Jordan structure of A, given its (rational) spectrum.

    Raises SpectrumMismatchError when char_poly(A) does not split exactly
    over the supplied spectrum.
    """
    actual = char_poly(A)
    claimed = spectrum.char_poly()
    residual = poly_sub(actual, claimed)
    if residual != [Fraction(0)]:
        raise SpectrumMismatchError(
            "characteristic polynomial does not match the claimed spectrum; "
            "residual: %s" % poly_to_string(residual),
            residual=residual,
        )
    blocks = []
    for value, mult in spectrum.pairs:
        weyr = weyr_sequence(A, value)
        sizes = segre_from_weyr(weyr)
        if sum(sizes) != mult:
            raise SpectrumMismatchError(
                "Weyr sequence at %s stabilized at %d, expected multiplicity %d"
                % (format_rational(value), sum(sizes), mult)
            )
        blocks.append((value, sizes))
    return JordanSpec.from_map(blocks)


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

    nonneg = matrix.is_nonnegative
    checks.append(
        CheckRecord(
            "nonnegativity",
            nonneg,
            "all entries >= 0" if nonneg else "a negative entry is present",
        )
    )

    actual = char_poly(matrix)
    claimed_poly = claimed_spectrum.char_poly()
    residual = poly_sub(actual, claimed_poly)
    char_ok = residual == [Fraction(0)]
    checks.append(
        CheckRecord(
            "char-poly",
            char_ok,
            "char poly matches spectrum exactly"
            if char_ok
            else "residual: %s" % poly_to_string(residual),
        )
    )

    jordan_matches_spectrum = (
        claimed_jordan.spectrum().pairs == claimed_spectrum.pairs
    )
    checks.append(
        CheckRecord(
            "jordan-vs-spectrum",
            jordan_matches_spectrum,
            "claimed Jordan blocks partition the claimed multiplicities"
            if jordan_matches_spectrum
            else "claimed Jordan blocks do not match the spectrum multiplicities",
        )
    )

    weyr_all_ok = True
    for value, _mult in claimed_spectrum.pairs:
        expected = claimed_jordan.weyr_at(value)
        got = weyr_sequence(matrix, value)
        ok = got == expected
        weyr_all_ok = weyr_all_ok and ok
        checks.append(
            CheckRecord(
                "weyr@%s" % format_rational(value),
                ok,
                "weyr %s" % (got,)
                if ok
                else "weyr %s, claimed %s" % (got, expected),
            )
        )
        derived = segre_from_weyr(got)
        ok2 = derived == claimed_jordan.sizes_at(value)
        weyr_all_ok = weyr_all_ok and ok2
        checks.append(
            CheckRecord(
                "segre@%s" % format_rational(value),
                ok2,
                "block sizes %s" % (derived,)
                if ok2
                else "block sizes %s, claimed %s"
                % (derived, claimed_jordan.sizes_at(value)),
            )
        )

    verdict = nonneg and char_ok and jordan_matches_spectrum and weyr_all_ok
    return RealizationCertificate(
        matrix=matrix,
        claimed_spectrum=claimed_spectrum,
        claimed_jordan=claimed_jordan,
        verdict=verdict,
        checks=tuple(checks),
    )


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def rational_spectrum_of(A: RationalMatrix, denominator_bound: int = 10**6):
    """Spectrum of A when its char poly splits over Q, else None.

    Float eigenvalues are rationalized and the factorization is re-verified
    exactly, so a returned Spectrum is always correct; a None only means the
    reconstruction heuristic failed (e.g. huge denominators or complex pairs).
    """
    ev = np.linalg.eigvals(to_float(A).array)
    if np.max(np.abs(ev.imag)) > 1e-7:
        return None
    candidates = []
    for x in sorted(ev.real.tolist(), reverse=True):
        candidates.append(Fraction(x).limit_denominator(denominator_bound))
    if poly_sub(char_poly(A), poly_from_roots(candidates)) != [Fraction(0)]:
        return None
    return Spectrum.from_values(candidates)


def weyr_sequence_float(F, lam: float, tol: float = 1e-8) -> tuple:
    """Non-certifying float Weyr estimate via SVD rank with threshold tol.

    Only for irrational/complex spectra; exact certification is impossible
    here and results must be labelled accordingly by callers.
    """
    arr = np.asarray(F.array if hasattr(F, "array") else F, dtype=float)
    n = arr.shape[0]
    M = arr - lam * np.eye(n)
    out = []
    P = M.copy()
    prev = 0
    for _ in range(n):
        s = np.linalg.svd(P, compute_uv=False)
        rank = int(np.sum(s > tol * max(1.0, float(s[0]) if len(s) else 1.0)))
        nullity = n - rank
        if nullity == prev:
            break
        out.append(nullity)
        prev = nullity
        if nullity == n:
            break
        P = P @ M
    return tuple(out)
