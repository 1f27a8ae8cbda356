import collections
import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from nnspectra import bonding, core, jcfcert
from nnspectra.bonding import bond_certificate, bonded_jordan_claim, smigoc_bond
from nnspectra.core import (
    JordanSpec,
    RationalMatrix,
    Spectrum,
    char_poly,
    format_rational,
    poly_mul,
    poly_sub,
    solve,
)
from nnspectra.errors import (
    CertificationError,
    CornerMismatchError,
    DimensionError,
    DomainError,
    NormalizationError,
)
from nnspectra.jcfcert import jordan_spec

from conftest import random_invertible, random_jordan_spec

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
        with pytest.raises(DomainError, match="c = 2 is not an eigenvalue of B"):
            smigoc_bond(A, RationalMatrix([[3, 0], [0, 3]]), 2)
        with pytest.raises(DomainError, match="dimension 2, not 1; supply u and v"):
            smigoc_bond(A, RationalMatrix([[2, 0], [0, 2]]), 2)

    def test_unnormalized_pair_rejected_then_autofixed(self):
        A = RationalMatrix([[1, 1], [2, 2]])
        u_bad = (F(1), F(1))  # u^T v = 2
        with pytest.raises(NormalizationError):
            smigoc_bond(A, B2, 2, u_bad, V2)
        C = smigoc_bond(A, B2, 2, u_bad, V2, auto_normalize=True)
        assert C == smigoc_bond(A, B2, 2, U2, V2)

    def test_wrong_eigenvector_rejected(self):
        A = RationalMatrix([[1, 1], [2, 2]])
        with pytest.raises(DomainError, match="u is not a left eigenvector"):
            smigoc_bond(A, B2, 2, (F(1), F(0)), V2)

    @pytest.mark.parametrize(
        "A, B, u, v, error, message",
        [
            ([[1, 2]], [[0, 2], [2, 0]], U2, V2, DimensionError, "A and B must be square"),
            ([[1, 1], [2, 2]], [[2, 0, 0], [0, 2, 0]], U2, V2, DimensionError, "A and B must be square"),
            ([[1, 1], [2, 2]], [[0, 2], [2, 0]], U2 + (0,), V2, DimensionError, "u and v must have length 2"),
            ([[1, 1], [2, 2]], [[0, 2], [2, 0]], U2, V2 + (0,), DimensionError, "u and v must have length 2"),
            # u^T v = 1, so only the eigenvector check refuses (2, 0)
            ([[1, 1], [2, 2]], [[0, 2], [2, 0]], U2, (2, 0), DomainError, "v is not a right eigenvector"),
        ],
        ids=["non-square-a", "non-square-b", "long-u", "long-v", "v-not-eigenvector"],
    )
    def test_refusals(self, A, B, u, v, error, message):
        with pytest.raises(error, match=message):
            smigoc_bond(RationalMatrix(A), RationalMatrix(B), 2, u, v)

    def test_one_by_one_a_gives_b(self):
        # A = [c]: the general row construction leaves B's rows alone
        for c, B, u, v in ((2, B2, U2, V2), (-2, B2, (F(1, 2), F(-1, 2)), (F(1), F(-1)))):
            A = RationalMatrix([[c]])
            assert smigoc_bond(A, B, c) == B
            assert smigoc_bond(A, B, c, u, v) == B

    def test_internal_eigenvectors_for_simple_eigenvalue(self):
        A = RationalMatrix([[1, 1], [2, 2]])
        C = smigoc_bond(A, B2, 2)  # u, v computed and normalized internally
        assert C == smigoc_bond(A, B2, 2, U2, V2)


def _bond_reference(A, B, u, v):
    """[[A1, a u^T], [v b^T, B]] entry by entry over Fractions."""
    n, m = A.rows, B.rows
    rows = [
        [A[i, j] for j in range(n - 1)] + [A[i, n - 1] * x for x in u] for i in range(n - 1)
    ]
    rows += [[y * A[n - 1, j] for j in range(n - 1)] + list(B.row(i)) for i, y in enumerate(v)]
    return RationalMatrix(rows)


# c = 1/2 with B = B'/6 not symmetric: q = 2 and b = 6 enter the integer
# checks, and the left and right eigenvectors (1, 6) and (1, 0) differ
A_HALF = RationalMatrix([[1, 2], [3, F(1, 2)]])
B_HALF = RationalMatrix([[F(1, 2), 1], [0, F(1, 3)]])
U_HALF, V_HALF = (F(1), F(6)), (F(1), F(0))


class TestIntegerChecks:
    """smigoc_bond checks B^T u = c u, B v = c v and u^T v = 1 on integer
    forms; the Fraction formula is the reference for the matrix it builds."""

    @pytest.mark.parametrize(
        "A, B, c, u, v",
        [
            (RationalMatrix([[1, 1], [1, 1]]), RationalMatrix([[F(1, 2)] * 2] * 2), 1, U2, V2),
            (A_HALF, B_HALF, F(1, 2), U_HALF, V_HALF),
            (
                RationalMatrix([[F(1, 3), F(2, 3)], [1, F(-2, 3)]]),
                RationalMatrix([[F(-2, 3), 1], [0, 1]]),
                F(-2, 3),
                (F(5, 3), F(-1)),
                (F(3, 5), 0),
            ),
        ],
        ids=["b-denominator", "c-and-b-denominators", "negative-c"],
    )
    def test_denominators_in_c_and_b(self, A, B, c, u, v):
        assert B.transpose().mat_vec(u) == tuple(F(c) * x for x in u)
        assert B.mat_vec(v) == tuple(F(c) * x for x in v)
        assert sum(x * y for x, y in zip(u, v)) == 1
        C = smigoc_bond(A, B, c, u, v)
        assert C == _bond_reference(A, B, u, v)
        lhs = poly_mul(char_poly(C), [F(1), -F(c)])
        assert poly_sub(lhs, poly_mul(char_poly(A), char_poly(B))) == [F(0)]

    def test_row_and_column_checks_are_not_swapped(self):
        # B_HALF is not symmetric: (1, 6) is a left eigenvector only and
        # (1, 0) a right one only
        with pytest.raises(DomainError, match="u is not a left eigenvector"):
            smigoc_bond(A_HALF, B_HALF, F(1, 2), V_HALF, V_HALF)
        with pytest.raises(DomainError, match="v is not a right eigenvector"):
            smigoc_bond(A_HALF, B_HALF, F(1, 2), U_HALF, U_HALF)
        with pytest.raises(DomainError, match="u is not a left eigenvector"):
            smigoc_bond(A_HALF, B_HALF, F(1, 2), (F(1), F(5)), V_HALF)
        with pytest.raises(DomainError, match="v is not a right eigenvector"):
            smigoc_bond(A_HALF, B_HALF, F(1, 2), U_HALF, (F(1), F(1, 2)))

    @pytest.mark.parametrize("scale", [F(3, 2), F(-2, 5), F(7)], ids=["3/2", "-2/5", "7"])
    def test_rescaled_pairing_equals_the_prescaled_call(self, scale):
        u = tuple(scale * x for x in U_HALF)
        with pytest.raises(NormalizationError, match="u\\^T v = %s, not 1" % format_rational(scale)):
            smigoc_bond(A_HALF, B_HALF, F(1, 2), u, V_HALF)
        C = smigoc_bond(A_HALF, B_HALF, F(1, 2), u, V_HALF, auto_normalize=True)
        assert C == smigoc_bond(A_HALF, B_HALF, F(1, 2), U_HALF, V_HALF)
        # v scaled by 1/scale pairs to 1 with no rescaling
        v = tuple(x / scale for x in V_HALF)
        assert smigoc_bond(A_HALF, B_HALF, F(1, 2), u, v) == _bond_reference(A_HALF, B_HALF, u, v)

    def test_corner_compared_with_c_on_integers(self):
        with pytest.raises(CornerMismatchError, match="corner entry 1/2 does not equal c = 1/3"):
            smigoc_bond(A_HALF, B_HALF, F(1, 3), U_HALF, V_HALF)
        # 3/6 is the corner 1/2
        C = smigoc_bond(A_HALF, B_HALF, "3/6", U_HALF, V_HALF)
        assert C == _bond_reference(A_HALF, B_HALF, U_HALF, V_HALF)


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

    def test_identity_reuses_the_factor_char_polys(self, monkeypatch):
        # one integer char poly per matrix: A's and B's serve the split test
        # and the identity
        orders = []
        real = core._char_poly_int

        def spy(N):
            orders.append(len(N))
            return real(N)

        for module in (bonding, jcfcert):
            monkeypatch.setattr(module, "_char_poly_int", spy)
        A = RationalMatrix([[1, 1, 0], [1, 0, 1], [0, 1, 2]])
        C = smigoc_bond(A, B2, 2)
        assert bond_certificate(A, B2, 2, C) is None
        assert orders == [3, 2, 4]
        with pytest.raises(CertificationError):
            bond_certificate(A, B2, 2, _corrupted(C))

    def test_rational_factors_corrupted_bond_fails(self):
        A = A_of_d1("11/2", F(-171, 25), F(212, 25), F(308, 25))
        cert = bond_certificate(A, B2, 2, _corrupted(smigoc_bond(A, B2, 2, U2, V2)))
        assert not cert.verdict
        failed = [check.name for check in cert.checks if not check.passed]
        assert "char-poly" in failed

    def test_jordan_block_factor_certified(self):
        # B = X^-1 (J3(1) + [2]) X: its spectrum {2, 1, 1, 1} is found exactly,
        # though float eigenvalues split the triple root 1 into a complex pair
        X = RationalMatrix([[3, 0, 3, 0], [-3, -1, 1, 0], [0, 3, 3, -1], [0, -1, 1, -2]])
        J = JordanSpec.from_map({F(1): [3], F(2): [1]}).jordan_matrix()
        B = solve(X, J @ X)
        A = RationalMatrix([[2]])
        cert = bond_certificate(A, B, 2, smigoc_bond(A, B, 2))
        assert cert is not None
        checks = {check.name: check for check in cert.checks}
        assert checks["char-poly"].passed
        assert checks["weyr@1"].passed and checks["segre@1"].passed
        assert checks["segre@1"].detail == "block sizes (3,)"
        assert cert.claimed_jordan.sizes_at(1) == (3,)
        # B has negative entries, so the verdict fails on nonnegativity alone
        assert [check.name for check in cert.checks if not check.passed] == ["nonnegativity"]


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


def _planted(rng, spec):
    """S^-1 J S for the Jordan matrix J of spec and a random invertible S."""
    S = random_invertible(rng, spec.order)
    return solve(S, spec.jordan_matrix() @ S)


def _jordan_bond_instance(rng):
    """(A, B, c): A = [[A1, a], [0, c]] or its transpose, A1 with a planted
    Jordan form, and B with a planted form that has one block at c, of size
    1; c is often an eigenvalue of A1 and the two forms share values, so the
    bonded claim merges blocks."""
    spec_a = random_jordan_spec(rng, rng.randint(1, 4))
    c = rng.choice([v for v, _ in spec_a.blocks] + [F(rng.randint(-3, 4), rng.randint(1, 2))])
    A1 = _planted(rng, spec_a)
    k = A1.rows
    rows = [list(row) + [F(rng.randint(-2, 2))] for row in A1.entries()]
    A = RationalMatrix(rows + [[F(0)] * k + [c]])
    if rng.random() < 0.5:
        A = A.transpose()
    spec_b = random_jordan_spec(rng, rng.randint(0, 3))
    blocks = [(v, sizes) for v, sizes in spec_b.blocks if v != c] + [(c, [1])]
    return A, _planted(rng, JordanSpec.from_map(blocks)), c


def _irrational_b_instance(rng):
    """(A, B, c): A as in _jordan_bond_instance, B similar to
    [c] + [[0, 2], [1, 0]], whose eigenvalues +-sqrt(2) are irrational."""
    A, _, c = _jordan_bond_instance(rng)
    X = random_invertible(rng, 3)
    J = RationalMatrix([[c, 0, 0], [0, 0, 2], [0, 1, 0]])
    return A, solve(X, J @ X), c


def bond_digest_inputs():
    """30 seeded (A, B, c, u, v): rational factors with planted Jordan forms,
    dense A (mostly irrational spectra) and irrational B, in turn; u and v
    are None where B's eigenspace at c is a line."""
    rng = random.Random(4271)
    out = []
    for trial in range(30):
        if trial % 3 == 0:
            out.append(_jordan_bond_instance(rng) + (None, None))
        elif trial % 3 == 1:
            out.append(_random_bond_instance(rng))
        else:
            out.append(_irrational_b_instance(rng) + (None, None))
    return out


# sha256 over bond_certificate JSON (b"null" when a factor's spectrum is
# irrational) for bond_digest_inputs(); pins the bonded Jordan claim and the
# claimed spectrum read off it
BOND_GOLDEN_SHA256 = "fa32cc393f808f6a1f74a20eed79db85983d68548e0b5aed24549699e771f079"


def test_bond_certificates_match_golden_digest():
    digest = hashlib.sha256()
    kinds = collections.Counter()
    for A, B, c, u, v in bond_digest_inputs():
        cert = bond_certificate(A, B, c, smigoc_bond(A, B, c, u, v))
        if cert is None:
            kinds["irrational"] += 1
            digest.update(b"null")
            continue
        kinds["diagonal" if cert.claimed_jordan.is_diagonal else "jordan"] += 1
        digest.update(json.dumps(cert.to_json(), sort_keys=True).encode())
    assert kinds == {"irrational": 18, "jordan": 4, "diagonal": 8}
    assert digest.hexdigest() == BOND_GOLDEN_SHA256


def test_claimed_spectrum_is_the_joined_values_less_one_c():
    # the certificate reads its spectrum off the bonded Jordan claim; the
    # reference joins the factors' values, drops one c and parses afresh
    from nnspectra.jcfcert import rational_spectrum_of

    rng = random.Random(4243)
    cases = [
        _random_triangular_bond_instance(rng, upper=trial % 2 == 0) for trial in range(40)
    ] + bond_digest_inputs()
    for coefficients in (
        ("11/2", F(-171, 25), F(212, 25), F(308, 25)),
        (9, F(-1399, 100), F(1367, 100), F(513, 10)),
    ):
        cases.append((A_of_d1(*coefficients), B2, F(2), U2, V2))
    checked = 0
    for A, B, c, u, v in cases:
        cert = bond_certificate(A, B, c, smigoc_bond(A, B, c, u, v))
        spec_a, spec_b = rational_spectrum_of(A), rational_spectrum_of(B)
        assert (cert is None) == (spec_a is None or spec_b is None)
        if cert is None:
            continue
        values = list(spec_a.values()) + list(spec_b.values())
        values.remove(c)
        assert cert.claimed_spectrum == Spectrum.from_values(values)
        checked += 1
    assert checked == 54


def _fraction_identity(A, B, c, C):
    """char(C) (x - c) = char(A) char(B) over Fractions: the reference for
    bond_certificate's identity over Z."""
    lhs = poly_mul(char_poly(C), [F(1), -c])
    return poly_sub(lhs, poly_mul(char_poly(A), char_poly(B))) == [F(0)]


def _bond_verdict(A, B, c, C):
    """(verdict, irrational): on an irrational factor, whether bond_certificate
    accepts C by its identity; on rational factors, whether its certificate's
    char-poly check passes."""
    try:
        cert = bond_certificate(A, B, c, C)
    except CertificationError:
        return False, True
    if cert is None:
        return True, True
    return next(check.passed for check in cert.checks if check.name == "char-poly"), False


def _denominator_bond_instance(rng):
    """Random A with denominators in its entries and in c = its corner, dense
    (mostly irrational spectra) or triangular (rational), and B planted with
    c in a 1x1 block, with its left and right eigenvectors there."""
    n, m = rng.randint(2, 4), rng.randint(1, 3)
    c = F(rng.randint(-3, 3), rng.choice([1, 2, 3, 5]))
    rows = [[F(rng.randint(-3, 3), rng.choice([1, 2, 4, 7])) for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.4:
        rows = [[x if j >= i else F(0) for j, x in enumerate(row)] for i, row in enumerate(rows)]
    rows[n - 1][n - 1] = c
    A = RationalMatrix(rows)
    if rng.random() < 0.5:
        A = A.transpose()
    B, u, v = _planted_b(rng, m, c)
    return A, B, c, u, v


def _off_by_a_seventh(rng, C):
    rows = [list(row) for row in C.entries()]
    rows[rng.randrange(C.rows)][rng.randrange(C.cols)] += F(1, 7)
    return RationalMatrix(rows)


class TestIntegerIdentity:
    """bond_certificate's split test and identity run over Z; the Fraction
    identity is the reference."""

    def test_verdicts_equal_the_fraction_identity(self):
        cases = [(A_HALF, B_HALF, F(1, 2), U_HALF, V_HALF)]
        for coefficients in (
            ("11/2", F(-171, 25), F(212, 25), F(308, 25)),
            (9, F(-1399, 100), F(1367, 100), F(513, 10)),
        ):
            cases.append((A_of_d1(*coefficients), B2, F(2), U2, V2))
        cases += bond_digest_inputs()
        rng = random.Random(4243)
        cases += [_random_triangular_bond_instance(rng, upper=trial % 2 == 0) for trial in range(40)]
        rng = random.Random(83)
        cases += [_random_bond_instance(rng) for _ in range(40)]
        rng = random.Random(4409)
        cases += [_denominator_bond_instance(rng) for _ in range(150)]
        seen = collections.Counter()
        for A, B, c, u, v in cases:
            C = smigoc_bond(A, B, c, u, v)
            for matrix in (C, _off_by_a_seventh(rng, C)):
                verdict, irrational = _bond_verdict(A, B, c, matrix)
                assert verdict == _fraction_identity(A, B, c, matrix)
                seen[irrational, verdict] += 1
        assert seen[True, True] >= 80 and seen[True, False] >= 80, seen
        assert seen[False, True] >= 80 and seen[False, False] >= 80, seen

    def test_c_off_the_corner_fails_the_identity(self):
        # c's denominator enters D even where A, B and C do not carry it: a
        # c just above the corner 2 must not round onto it
        A = RationalMatrix([[1, 1, 0], [1, 0, 1], [0, 1, 2]])  # irrational spectrum
        C = smigoc_bond(A, B2, 2)
        for c in (F(23, 11), 2 + F(1, 10**9)):
            assert not _fraction_identity(A, B2, c, C)
            with pytest.raises(CertificationError, match="^bond failed the exact characteristic identity$"):
                bond_certificate(A, B2, c, C)

    def test_no_fraction_char_poly_is_built(self, monkeypatch):
        # a certified bond and a bond checked by its identity build neither a
        # Fraction char poly nor a Fraction difference of polys
        def forbidden(name):
            def call(*args):
                raise AssertionError("%s called" % name)

            return call

        for module in (core, jcfcert, bonding):
            for name in ("char_poly", "_rational_poly", "poly_sub"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden(name))
        monkeypatch.setattr(Spectrum, "char_poly", forbidden("Spectrum.char_poly"))
        A = A_of_d1("11/2", F(-171, 25), F(212, 25), F(308, 25))
        assert bond_certificate(A, B2, 2, smigoc_bond(A, B2, 2, U2, V2)).verdict
        A = RationalMatrix([[1, 1, 0], [1, 0, 1], [0, 1, 2]])
        assert bond_certificate(A, B2, 2, smigoc_bond(A, B2, 2)) is None

    def test_non_square_c_raises_the_char_poly_error(self):
        A = RationalMatrix([[1, 1, 0], [1, 0, 1], [0, 1, 2]])  # irrational spectrum
        for C in (RationalMatrix.zeros(4, 3), RationalMatrix([[1, 2, 3], [4, 5, 6]])):
            with pytest.raises(DimensionError) as reference:
                char_poly(C)
            with pytest.raises(DimensionError) as err:
                bond_certificate(A, B2, 2, C)
            assert str(err.value) == str(reference.value) == "characteristic polynomial of non-square matrix"
