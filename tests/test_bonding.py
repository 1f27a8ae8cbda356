import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from nnspectra.bonding import bond_certificate, bonded_jordan_claim, smigoc_bond
from nnspectra.core import (
    JordanSpec,
    RationalMatrix,
    Spectrum,
    char_poly,
    poly_mul,
    poly_sub,
    solve,
)
from nnspectra.errors import (
    CertificationError,
    CornerMismatchError,
    DomainError,
    NormalizationError,
)
from nnspectra.jcfcert import jordan_spec

from conftest import random_invertible

B2 = RationalMatrix([[0, 2], [2, 0]])
U2 = (F(1, 2), F(1, 2))
V2 = (F(1), F(1))


def A_of_d1(d1, k2, k3, k4):
    d1 = F(d1)
    return RationalMatrix(
        [
            [0, 1, 0, 0],
            [d1, 0, 1, 0],
            [2 * d1 - k3, 0, 0, 1],
            [-d1 * d1 + (4 - k2) * d1 - 2 * k3 - k4, 0, -k2 - d1, 2],
        ]
    )


class TestWorkedBonds:
    def test_first_worked_example(self):
        A = A_of_d1("11/2", F(-171, 25), F(212, 25), F(308, 25))
        C = smigoc_bond(A, B2, 2, U2, V2)
        expected = RationalMatrix(
            [
                ["0", "1", "0", "0", "0"],
                ["11/2", "0", "1", "0", "0"],
                ["63/25", "0", "0", "1/2", "1/2"],
                ["9/100", "0", "67/50", "0", "2"],
                ["9/100", "0", "67/50", "2", "0"],
            ]
        )
        assert C == expected
        cert = bond_certificate(A, B2, 2, C)
        assert cert is not None and cert.verdict
        assert cert.claimed_jordan.is_diagonal

    def test_second_worked_example(self):
        A = A_of_d1(9, F(-1399, 100), F(1367, 100), F(513, 10))
        C = smigoc_bond(A, B2, 2, U2, V2)
        expected = RationalMatrix(
            [
                ["0", "1", "0", "0", "0"],
                ["9", "0", "1", "0", "0"],
                ["433/100", "0", "0", "1/2", "1/2"],
                ["227/100", "0", "499/100", "0", "2"],
                ["227/100", "0", "499/100", "2", "0"],
            ]
        )
        assert C == expected
        cert = bond_certificate(A, B2, 2, C)
        assert cert is not None and cert.verdict

    def test_scalar_b_is_identity(self):
        A = RationalMatrix([[1, 1], [2, 3]])
        C = smigoc_bond(A, RationalMatrix([[3]]), 3, [1], [1])
        assert C == A


class TestHypothesisChecks:
    def test_corner_mismatch(self):
        A = RationalMatrix([[1, 1], [2, 5]])
        with pytest.raises(CornerMismatchError):
            smigoc_bond(A, B2, 2, U2, V2)

    def test_missing_unit_block(self):
        A = RationalMatrix([[1, 1], [2, 2]])
        B = RationalMatrix([[2, 1], [0, 2]])  # single 2x2 block at 2
        with pytest.raises(DomainError):
            smigoc_bond(A, B, 2)

    def test_zero_pairing_names_the_missing_unit_block(self):
        A = RationalMatrix([[1, 1], [2, 2]])
        B = RationalMatrix([[2, 1], [0, 2]])
        for vectors in ((), ((F(0), F(1)), (F(1), F(0)))):
            with pytest.raises(DomainError, match="no 1x1 Jordan block of B at 2"):
                smigoc_bond(A, B, 2, *vectors, auto_normalize=True)
        with pytest.raises(DomainError, match="eigenspace of B at 2 has dimension 0"):
            smigoc_bond(A, RationalMatrix([[3, 0], [0, 3]]), 2)

    def test_unnormalized_pair_rejected_then_autofixed(self):
        A = RationalMatrix([[1, 1], [2, 2]])
        u_bad = (F(1), F(1))  # u^T v = 2
        with pytest.raises(NormalizationError):
            smigoc_bond(A, B2, 2, u_bad, V2)
        C = smigoc_bond(A, B2, 2, u_bad, V2, auto_normalize=True)
        assert C == smigoc_bond(A, B2, 2, U2, V2)

    def test_wrong_eigenvector_rejected(self):
        A = RationalMatrix([[1, 1], [2, 2]])
        with pytest.raises(DomainError):
            smigoc_bond(A, B2, 2, (F(1), F(0)), V2)

    def test_internal_eigenvectors_for_simple_eigenvalue(self):
        A = RationalMatrix([[1, 1], [2, 2]])
        C = smigoc_bond(A, B2, 2)  # u, v computed and normalized internally
        assert C == smigoc_bond(A, B2, 2, U2, V2)


def _planted_b(rng, m, c):
    """B = V diag(c, ...) V^-1 with exact left/right eigenvectors at the
    leading 1x1 block; u^T v = 1 automatically."""
    V = random_invertible(rng, m)
    diag_entries = [c] + [F(rng.randint(-2, 4)) for _ in range(m - 1)]
    D = RationalMatrix.diagonal(diag_entries)
    Vinv = solve(V, RationalMatrix.identity(m))
    B = V @ D @ Vinv
    u = tuple(Vinv.transpose().column_entries(0))
    v = tuple(V.column_entries(0))
    return B, u, v


def _random_bond_instance(rng):
    """Dense random A (unknown spectrum) for the characteristic identity."""
    n = rng.randint(2, 4)
    m = rng.randint(1, 3)
    c = F(rng.randint(-2, 3))
    a_rows = [
        [F(rng.randint(-2, 3), rng.randint(1, 2)) for _ in range(n)]
        for _ in range(n)
    ]
    a_rows[n - 1][n - 1] = c
    A = RationalMatrix(a_rows)
    B, u, v = _planted_b(rng, m, c)
    return A, B, c, u, v


def _random_triangular_bond_instance(rng, upper: bool):
    """Triangular A (planted rational spectrum): exercises one coupling side."""
    n = rng.randint(2, 4)
    m = rng.randint(1, 3)
    c = F(rng.randint(-2, 3))
    a_rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if (j < i and not upper) or (j > i and upper):
                a_rows[i][j] = F(rng.randint(0, 3))
    for i in range(n - 1):
        a_rows[i][i] = F(rng.randint(-2, 4))
    a_rows[n - 1][n - 1] = c
    A = RationalMatrix(a_rows)
    B, u, v = _planted_b(rng, m, c)
    return A, B, c, u, v


class TestRandomizedBonds:
    def test_char_identity(self):
        rng = random.Random(83)
        for _ in range(40):
            A, B, c, u, v = _random_bond_instance(rng)
            C = smigoc_bond(A, B, c, u, v)
            lhs = poly_mul(char_poly(C), [F(1), -c])
            rhs = poly_mul(char_poly(A), char_poly(B))
            assert poly_sub(lhs, rhs) == [F(0)]

    def test_jordan_union_matches_exact_computation(self):
        from nnspectra.jcfcert import rational_spectrum_of

        rng = random.Random(89)
        for trial in range(25):
            A, B, c, u, v = _random_triangular_bond_instance(rng, upper=trial % 2 == 0)
            C = smigoc_bond(A, B, c, u, v)
            spec_a = Spectrum.from_values([A[i, i] for i in range(A.rows)])
            spec_b = rational_spectrum_of(B)
            assert spec_b is not None
            claim = bonded_jordan_claim(
                jordan_spec(A, spec_a), jordan_spec(B, spec_b), c
            )
            values = list(spec_a.values()) + list(spec_b.values())
            values.remove(c)
            assert jordan_spec(C, Spectrum.from_values(values)) == claim

    def test_nonnegative_bond_stays_nonnegative(self):
        rng = random.Random(97)
        for _ in range(20):
            # A nonnegative with corner 2; bond against the nonneg pair
            n = rng.randint(2, 3)
            rows = [
                [F(rng.randint(0, 3)) for _ in range(n)] for _ in range(n)
            ]
            rows[n - 1][n - 1] = F(2)
            A = RationalMatrix(rows)
            C = smigoc_bond(A, B2, 2, U2, V2)
            assert C.is_nonnegative


def _corrupted(C):
    rows = [list(row) for row in C.entries()]
    rows[0][0] += 1
    return RationalMatrix(rows)


class TestBondCertificate:
    def test_irrational_factor_checked_by_identity(self):
        A = RationalMatrix([[1, 1, 0], [1, 0, 1], [0, 1, 2]])  # irrational spectrum
        C = smigoc_bond(A, B2, 2)
        assert bond_certificate(A, B2, 2, C) is None
        with pytest.raises(CertificationError):
            bond_certificate(A, B2, 2, _corrupted(C))

    def test_rational_factors_corrupted_bond_fails(self):
        A = A_of_d1("11/2", F(-171, 25), F(212, 25), F(308, 25))
        cert = bond_certificate(A, B2, 2, _corrupted(smigoc_bond(A, B2, 2, U2, V2)))
        assert not cert.verdict
        failed = [check.name for check in cert.checks if not check.passed]
        assert "char-poly" in failed


class TestBondedJordanClaim:
    def test_union_minus_one_unit_block(self):
        ja = JordanSpec.from_map({F(2): [1], F(-1): [2]})
        jb = JordanSpec.from_map({F(2): [2, 1], F(0): [1]})
        claim = bonded_jordan_claim(ja, jb, 2)
        assert claim.sizes_at(2) == (2, 1)
        assert claim.sizes_at(-1) == (2,)
        assert claim.sizes_at(0) == (1,)

    def test_no_unit_block_rejected(self):
        ja = JordanSpec.from_map({F(2): [1]})
        jb = JordanSpec.from_map({F(2): [2]})
        with pytest.raises(DomainError):
            bonded_jordan_claim(ja, jb, 2)


# sha256 over diagonalizable_realization certificates on region_grid(family,
# 1/10) for families t and tprime (a typed refusal contributes its class name),
# then over bond_certificate JSON for 40 seeded triangular bonds (seed 4243);
# pins matrices, spectra, Jordan claims and the full check lists
REALIZE5_BOND_GOLDEN_SHA256 = "38e41dbde28681679ee290e52f637687ec41760dece40eb2805674ec391a0cc2"


def test_realize5_and_bond_certificates_match_golden_digest():
    from nnspectra.errors import SpectraError
    from nnspectra.family5 import diagonalizable_realization, make_point, region_grid

    digest = hashlib.sha256()
    for family in ("t", "tprime"):
        for t0, t in region_grid(family, F(1, 10)):
            try:
                cert = diagonalizable_realization(make_point(family, t0, t))
            except SpectraError as exc:
                digest.update(type(exc).__name__.encode())
                continue
            digest.update(json.dumps(cert.to_json(), sort_keys=True).encode())
    rng = random.Random(4243)
    for trial in range(40):
        A, B, c, u, v = _random_triangular_bond_instance(rng, upper=trial % 2 == 0)
        cert = bond_certificate(A, B, c, smigoc_bond(A, B, c, u, v))
        digest.update(json.dumps(cert.to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == REALIZE5_BOND_GOLDEN_SHA256
