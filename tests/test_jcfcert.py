import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from nnspectra import core, jcfcert
from nnspectra.core import (
    JordanSpec,
    RationalMatrix,
    Spectrum,
    char_poly,
    companion_matrix,
    exact_rank,
    format_rational,
    poly_from_roots,
    solve,
)
from nnspectra.errors import SpectrumMismatchError
from nnspectra.jcfcert import (
    enumerate_jordan_forms,
    integer_partitions,
    jordan_spec,
    rational_spectrum_of,
    segre_from_weyr,
    verify_certificate,
    weyr_sequence,
)

from conftest import (
    random_invertible,
    random_jordan_spec,
    scramble,
    suleimanova_companion,
)
from test_core import _from_sympy, _random_entry, _to_sympy


class TestWeyr:
    def test_single_j2(self):
        A = RationalMatrix([[1, 0], [1, 1]])
        assert weyr_sequence(A, 1) == (1, 2)

    def test_diagonal(self):
        assert weyr_sequence(RationalMatrix.identity(2), 1) == (2,)

    def test_companion_is_nonderogatory(self):
        # (x+2)^2 (x-3): companion has a single 2x2 block at -2
        C = companion_matrix(poly_from_roots([F(-2), F(-2), F(3)]))
        assert weyr_sequence(C, -2) == (1, 2)
        assert weyr_sequence(C, 3) == (1,)

    def test_non_eigenvalue_is_empty(self):
        assert weyr_sequence(RationalMatrix.identity(2), 5) == ()

    def test_weakly_increasing_and_stabilizes_at_multiplicity(self):
        rng = random.Random(2)
        for _ in range(10):
            spec = random_jordan_spec(rng, rng.randint(2, 5))
            J = spec.jordan_matrix()
            for value, sizes in spec.blocks:
                w = weyr_sequence(J, value)
                assert all(a < b for a, b in zip(w, w[1:]))
                assert w[-1] == sum(sizes)

    def test_multiplicity_gives_the_full_tower(self):
        # planted S^-1 J S plus the derogatory J3+J1+J1 (increments 3, 1, 1),
        # J2+J2 and J3+J2, where an increment of 1 ends no ranking early
        rng = random.Random(12)
        specs = [random_jordan_spec(rng, rng.randint(1, 7)) for _ in range(25)]
        specs += [
            JordanSpec.from_map({F(2): [3, 1, 1]}),
            JordanSpec.from_map({F(-1): [2, 2], F(3): [1]}),
            JordanSpec.from_map({F(1, 2): [3, 2], F(0): [1]}),
        ]
        for spec in specs:
            S = random_invertible(rng, spec.order)
            A = solve(S, spec.jordan_matrix() @ S)
            for value, m in spec.spectrum().pairs:
                assert weyr_sequence(A, value, m) == weyr_sequence(A, value)
                assert weyr_sequence(A, value, m) == spec.weyr_at(value)

    @pytest.mark.parametrize("values, ranks", [([9, -1, -2, -3], 0), ([9, -1, -2, -2], 1)])
    def test_checked_companion_ranks_once_per_repeated_eigenvalue(
        self, monkeypatch, values, ranks
    ):
        # a scrambled companion is nonderogatory: a simple eigenvalue needs no
        # rank, a repeated one needs rank(A - lam I) only
        C = scramble(random.Random(5), companion_matrix(poly_from_roots(values)))
        calls = []

        def spy(M):
            calls.append(M.rows)
            return exact_rank(M)

        monkeypatch.setattr(jcfcert, "exact_rank", spy)
        jordan_spec(C, Spectrum.from_values(values))
        assert len(calls) == ranks


class TestCharPolyRoute:
    def test_one_integer_route_into_the_elimination(self, monkeypatch):
        # char_poly works on the cleared integer rows: no matrix is built and
        # no determinant taken on the way
        values = [9, -1, -2, -2, F(1, 3)]
        C = scramble(random.Random(5), companion_matrix(poly_from_roots(values)))
        calls, init, det = [], RationalMatrix.__init__, core.determinant

        def matrix_spy(self, data):
            calls.append("RationalMatrix")
            init(self, data)

        def determinant_spy(M):
            calls.append("determinant")
            return det(M)

        monkeypatch.setattr(RationalMatrix, "__init__", matrix_spy)
        monkeypatch.setattr(core, "determinant", determinant_spy)
        assert char_poly(C) == poly_from_roots(values)
        assert calls == []

    def test_berkowitz_needs_no_elimination_and_no_poly_mul(self, monkeypatch):
        # char_poly is division-free over the cleared integers and
        # poly_from_roots multiplies integer factors: neither eliminates,
        # builds a matrix or multiplies Fraction polynomials
        values = [9, -1, -2, -2, F(1, 3)]
        C = scramble(random.Random(5), companion_matrix(poly_from_roots(values)))
        calls, init = [], RationalMatrix.__init__

        def matrix_spy(self, data):
            calls.append("RationalMatrix")
            init(self, data)

        def forbidden(name):
            def call(*args):
                raise AssertionError("%s called" % name)

            return call

        monkeypatch.setattr(RationalMatrix, "__init__", matrix_spy)
        monkeypatch.setattr(core, "_eliminate", forbidden("_eliminate"))
        monkeypatch.setattr(core, "poly_mul", forbidden("poly_mul"))
        assert char_poly(C) == poly_from_roots(values)
        assert calls == []


class TestSegreWeyrConjugacy:
    def test_roundtrip(self):
        rng = random.Random(4)
        for _ in range(20):
            spec = random_jordan_spec(rng, rng.randint(1, 6))
            for value, sizes in spec.blocks:
                assert segre_from_weyr(spec.weyr_at(value)) == sizes


class TestJordanSpecOf:
    def test_worked_5x5_diagonalizable(self):
        C = RationalMatrix(
            [
                ["0", "1", "0", "0", "0"],
                ["11/2", "0", "1", "0", "0"],
                ["63/25", "0", "0", "1/2", "1/2"],
                ["9/100", "0", "67/50", "0", "2"],
                ["9/100", "0", "67/50", "2", "0"],
            ]
        )
        spectrum = Spectrum.from_values(["14/5", "11/5", "-1", "-2", "-2"])
        j = jordan_spec(C, spectrum)
        assert j.is_diagonal

    def test_direct_sum_with_j2(self):
        spec = JordanSpec.from_map({F(-2): [2], F(1): [1], F(4): [1]})
        J = spec.jordan_matrix()
        assert jordan_spec(J, spec.spectrum()) == spec

    def test_plant_and_recover(self):
        rng = random.Random(8)
        for _ in range(25):
            spec = random_jordan_spec(rng, rng.randint(2, 6))
            J = spec.jordan_matrix()
            S = random_invertible(rng, spec.order)
            A = solve(S, J @ S)  # S^-1 J S
            assert jordan_spec(A, spec.spectrum()) == spec

    def test_spectrum_mismatch_reports_residual(self):
        A = RationalMatrix.identity(2)
        with pytest.raises(SpectrumMismatchError) as err:
            jordan_spec(A, Spectrum.from_values([1, 2]))
        assert err.value.residual is not None


class TestEnumerate:
    def test_worked_list_has_two_forms(self):
        s = Spectrum.from_values(["14/5", "11/5", -1, -2, -2])
        forms = enumerate_jordan_forms(s)
        assert len(forms) == 2
        assert forms[0].sizes_at(-2) == (2,)  # reverse-lex: (2) before (1,1)
        assert forms[1].sizes_at(-2) == (1, 1)

    def test_all_simple_single_form(self):
        assert len(enumerate_jordan_forms(Spectrum.from_values([3, 1, 0]))) == 1

    def test_triple_multiplicity(self):
        assert integer_partitions(3) == [(3,), (2, 1), (1, 1, 1)]
        forms = enumerate_jordan_forms(Spectrum.from_values([-2, -2, -2]))
        assert len(forms) == 3

    def test_count_is_product_of_partition_counts(self):
        s = Spectrum.from_values([5, 1, 1, -2, -2, -2])
        assert len(enumerate_jordan_forms(s)) == len(integer_partitions(2)) * len(
            integer_partitions(3)
        )


class TestVerifyCertificate:
    def test_pass_case(self):
        C = RationalMatrix(
            [
                ["0", "1", "0", "0", "0"],
                ["9", "0", "1", "0", "0"],
                ["433/100", "0", "0", "1/2", "1/2"],
                ["227/100", "0", "499/100", "0", "2"],
                ["227/100", "0", "499/100", "2", "0"],
            ]
        )
        spectrum = Spectrum.from_values(["19/5", "27/10", "-2", "-2", "-5/2"])
        diag = JordanSpec.from_map([(v, [1] * m) for v, m in spectrum.pairs])
        cert = verify_certificate(C, spectrum, diag)
        assert cert.verdict
        assert all(c.passed for c in cert.checks)

    def test_fail_at_weyr(self):
        A = RationalMatrix([[1, 0], [1, 1]])
        spectrum = Spectrum.from_values([1, 1])
        diag = JordanSpec.from_map({F(1): [1, 1]})
        cert = verify_certificate(A, spectrum, diag)
        assert not cert.verdict
        failing = [c.name for c in cert.checks if not c.passed]
        assert any(name.startswith("weyr@") for name in failing)

    def test_failing_char_poly_keeps_the_full_tower(self):
        # the char poly (x - 1)^2 fails the claim {2, 1}, so the claimed
        # multiplicity 1 of the eigenvalue 1 must not cut its tower short
        A = RationalMatrix([[1, 1], [0, 1]])
        spectrum = Spectrum.from_values([1, 2])
        diag = JordanSpec.from_map([(v, [1]) for v, _ in spectrum.pairs])
        cert = verify_certificate(A, spectrum, diag)
        record = next(c for c in cert.checks if c.name == "weyr@1")
        assert not record.passed
        assert record.detail == "weyr (1, 2), claimed (1,)"

    def test_fail_is_verdict_not_error(self):
        A = RationalMatrix([[0, 1], [0, 0]])
        cert = verify_certificate(
            A, Spectrum.from_values([5, 5]), JordanSpec.from_map({F(5): [2]})
        )
        assert not cert.verdict

    def test_json_shape(self):
        A = RationalMatrix([[2]])
        cert = verify_certificate(
            A, Spectrum.from_values([2]), JordanSpec.from_map({F(2): [1]})
        )
        blob = cert.to_json()
        assert blob["verdict"] == "pass"
        assert blob["schema"] == 1


class TestRationalSpectrumOf:
    def test_recovers_planted(self):
        values = [F(3), F(-1, 2), F(-1, 2)]
        C = companion_matrix(poly_from_roots(values))
        assert rational_spectrum_of(C) == Spectrum.from_values(values)

    def test_irrational_returns_none(self):
        A = RationalMatrix([[0, 2], [1, 0]])  # roots +-sqrt(2)
        assert rational_spectrum_of(A) is None


def _wrong_claims(rng, spec):
    """The claim with one eigenvalue moved by 1, and (when some block has
    size >= 2) the claim with one block split into sizes s - 1 and 1."""
    blocks = [(v, list(sizes)) for v, sizes in spec.blocks]
    moved_at = rng.randrange(len(blocks))
    moved = {}
    for k, (v, sizes) in enumerate(blocks):
        moved.setdefault(v + 1 if k == moved_at else v, []).extend(sizes)
    claims = [JordanSpec.from_map(moved.items())]
    splittable = [k for k, (_, sizes) in enumerate(blocks) if sizes[0] >= 2]
    if splittable:
        k = rng.choice(splittable)
        v, sizes = blocks[k]
        blocks[k] = (v, [sizes[0] - 1, 1] + sizes[1:])
        claims.append(JordanSpec.from_map(blocks))
    return claims


# sha256 over verify_certificate(...).to_json() and the jordan_spec result (or
# the SpectrumMismatchError message and residual) for 60 seeded matrices
# (seed 2043): planted S^-1 J S (n = 2..7) and scrambled Suleimanova
# companions (n = 2..6), each against its true claim and the wrong claims of
# _wrong_claims; pins the residual text of failing char-poly records
CERTIFICATE_GOLDEN_SHA256 = "b4feadc2aa828c569a1f2bdcbf3e8dfff9bceaa3e47ee1a837dca03ec61704e9"


def test_certificates_and_jordan_specs_match_golden_digest():
    rng = random.Random(2043)
    digest = hashlib.sha256()
    for i in range(60):
        if i % 3 == 2:
            C, values = suleimanova_companion(rng, rng.randint(2, 6))
            A = scramble(rng, C)
            spec = jordan_spec(A, Spectrum.from_values(values))
        else:
            spec = random_jordan_spec(rng, rng.randint(2, 7))
            S = random_invertible(rng, spec.order)
            A = solve(S, spec.jordan_matrix() @ S)
        for claim in [spec] + _wrong_claims(rng, spec):
            cert = verify_certificate(A, claim.spectrum(), claim)
            digest.update(json.dumps(cert.to_json(), sort_keys=True).encode())
            try:
                result = jordan_spec(A, claim.spectrum()).to_json()
            except SpectrumMismatchError as exc:
                result = [str(exc), [format_rational(c) for c in exc.residual]]
            digest.update(json.dumps(result, sort_keys=True).encode())
    assert digest.hexdigest() == CERTIFICATE_GOLDEN_SHA256


def _sympy_weyr(S, lam):
    """n - rank((S - lam I)^k) for k = 1, 2, ... while it grows."""
    n = S.rows
    M = S - lam * S.eye(n)
    out, P = [], M
    for _ in range(n):
        nullity = n - P.rank()
        if nullity == (out[-1] if out else 0):
            break
        out.append(nullity)
        P = P * M
    return tuple(out)


class TestKernelsAgainstSympy:
    """char_poly (Berkowitz over the integers) and weyr_sequence (ranks by
    the one elimination) are compared exactly with sympy's charpoly and rank
    on dense, sparse and planted S^-1 J S matrices of order 1..7."""

    def test_char_poly_and_weyr_sequence(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(47)
        checked = 0
        for n in range(1, 8):
            for trial in range(30):
                kind = ("dense", "sparse", "planted")[trial % 3]
                if kind == "planted":
                    spec = random_jordan_spec(rng, n)
                    S = random_invertible(rng, spec.order)
                    A = solve(S, spec.jordan_matrix() @ S)
                else:
                    density = 1.0 if kind == "dense" else 0.3
                    A = RationalMatrix(
                        [[_random_entry(rng, density) for _ in range(n)] for _ in range(n)]
                    )
                SA = _to_sympy(A)
                poly = SA.charpoly(x)
                assert char_poly(A) == [_from_sympy(c) for c in poly.all_coeffs()]
                roots = poly.ground_roots()  # the rational eigenvalues
                outside = 1 + sum(abs(v) for row in A.entries() for v in row)
                for lam in [_from_sympy(r) for r in roots] + [outside]:
                    expected = _sympy_weyr(SA, sympy.Rational(lam.numerator, lam.denominator))
                    assert weyr_sequence(A, lam) == expected
                    checked += 1
        assert checked >= 500


class TestCharPolyAgainstSympyAtLargerOrders:
    """char_poly at orders 8..14, where each entry has its own denominator so
    the global lcm d exceeds every row lcm, and poly_from_roots against the
    expansion of prod (x - r)."""

    def test_char_poly(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(53)

        def entry(density):
            if rng.random() >= density:
                return F(0)
            return F(rng.randint(-99, 99), rng.randint(1, 40))

        matrices = [RationalMatrix([[F(-7, 3)]]), RationalMatrix.zeros(9, 9)]
        matrices.append(
            RationalMatrix([[entry(1.0) if j >= i else 0 for j in range(11)] for i in range(11)])
        )
        for n in range(8, 15):
            for density in (1.0, 1.0, 0.3, 0.3):
                matrices.append(RationalMatrix([[entry(density) for _ in range(n)] for _ in range(n)]))
        for A in matrices:
            expected = _to_sympy(A).charpoly(x).all_coeffs()
            assert char_poly(A) == [_from_sympy(c) for c in expected]

    @pytest.mark.parametrize(
        "roots",
        [
            [],
            [F(3), F(3), F(3), F(-1, 2), F(-1, 2)],
            [F(-5), F(-7, 4), F(-1, 9), F(0)],
            [F(123457, 999983), F(-654321, 100003), F(1, 250001), F(123457, 999983)],
        ],
        ids=["empty", "repeated", "negative", "six-digit-denominators"],
    )
    def test_poly_from_roots(self, roots):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        product = sympy.Mul(*[x - sympy.Rational(r.numerator, r.denominator) for r in roots])
        expected = sympy.Poly(product, x).all_coeffs()
        assert poly_from_roots(roots) == [_from_sympy(c) for c in expected]
