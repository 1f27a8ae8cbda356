import collections
import hashlib
import json
import math
import random
import time
import types
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
from nnspectra.errors import DimensionError, DomainError, SpectrumMismatchError
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
    integer_poly,
    random_invertible,
    random_jordan_spec,
    scramble,
    suleimanova_companion,
)
from test_core import _from_sympy, _random_entry, _to_sympy


def _direct_sum(*blocks):
    return RationalMatrix.from_blocks(
        [
            [B if i == j else RationalMatrix.zeros(B.rows, C.cols) for j, C in enumerate(blocks)]
            for i, B in enumerate(blocks)
        ]
    )


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

    def test_non_square_refused(self):
        with pytest.raises(DimensionError, match="Weyr sequence needs a square matrix"):
            weyr_sequence(RationalMatrix([[1, 0]]), 1)

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

    @pytest.mark.parametrize(
        "blocks",
        [
            {F(2): [3, 2], F(-1): [2, 1], F(5): [1]},
            {F(1, 2): [4, 2, 1], F(3): [3], F(-2): [1, 1]},
        ],
    )
    def test_dense_powers_are_the_powers_of_n(self, monkeypatch, blocks):
        # planted S^-1 J S with every entry of S nonzero, so the powers fill
        # in: each matrix ranked is N^k for N = d (lam I - A), d the lcm of
        # the entries' denominators, checked by Fraction loops, and the
        # sequence is the planted one
        spec = JordanSpec.from_map(blocks)
        n, rng = spec.order, random.Random(39)
        S = RationalMatrix([[rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n)] for _ in range(n)])
        A = solve(S, spec.jordan_matrix() @ S)
        ranked = []

        def spy(M):
            ranked.append(M)
            return exact_rank(M)

        monkeypatch.setattr(jcfcert, "exact_rank", spy)
        for value, m in spec.spectrum().pairs:
            shifted = [[(value if i == j else 0) - A[i, j] for j in range(n)] for i in range(n)]
            d = math.lcm(*(v.denominator for row in shifted for v in row))
            N = [[d * v for v in row] for row in shifted]
            for multiplicity in (None, m):
                ranked.clear()
                assert weyr_sequence(A, value, multiplicity) == spec.weyr_at(value)
                P = N
                if multiplicity is None:
                    # unchecked, the tower reaches N^s for the largest block size s
                    assert len(ranked) >= max(spec.sizes_at(value))
                for M in ranked:
                    assert [list(row) for row in M.entries()] == P
                    P = [[sum(x * y[j] for x, y in zip(row, N)) for j in range(n)] for row in P]

    @pytest.mark.parametrize(
        "values, ranks",
        [([[9, -1, -2, -3]], 0), ([[9, -1, -2, -2]], 0), ([[9, -1, -2], [-2]], 1)],
    )
    def test_checked_companion_ranks_once_per_repeated_eigenvalue(
        self, monkeypatch, values, ranks
    ):
        # values lists the roots of each companion block.  A scrambled
        # companion is nonderogatory, and its Krylov basis proves it with no
        # rank; two blocks sharing -2 make A derogatory, so the char poly is
        # matched and rank(A + 2 I) alone shows the nullity 2 = multiplicity
        blocks = [companion_matrix(poly_from_roots(roots)) for roots in values]
        A = scramble(random.Random(5), _direct_sum(*blocks))
        calls = []

        def spy(M):
            calls.append(M.rows)
            return exact_rank(M)

        monkeypatch.setattr(jcfcert, "exact_rank", spy)
        spec = jordan_spec(A, Spectrum.from_values([v for roots in values for v in roots]))
        assert len(spec.sizes_at(-2)) == len(values)
        assert len(calls) == ranks


class TestCharPolyRoute:
    def test_weyr_powers_reach_the_elimination_as_integers(self, monkeypatch):
        # derogatory J2(1/2) + J1(1/2) + J1(3), planted with fractional
        # entries: lam I - A is read off A's integer form, and its integer
        # powers reach _bareiss without any matrix being cleared again
        spec = JordanSpec.from_map({F(1, 2): [2, 1], F(3): [1]})
        S = RationalMatrix([[2, 1, 0, 1], [0, 1, 1, 0], [1, 0, 3, 1], [0, 1, 0, 2]])
        A = solve(S, spec.jordan_matrix() @ S)
        assert A.den > 1
        cleared, eliminated = [], []
        clear, bareiss = core._clear, core._bareiss

        def clear_spy(rows):
            cleared.append(len(rows))
            return clear(rows)

        def bareiss_spy(m, pivot_cols):
            eliminated.append([list(row) for row in m])
            return bareiss(m, pivot_cols)

        monkeypatch.setattr(core, "_clear", clear_spy)
        monkeypatch.setattr(core, "_bareiss", bareiss_spy)
        assert weyr_sequence(A, F(1, 2)) == (2, 3)
        assert len(eliminated) == 3  # ranks of N, N^2 and N^3, which confirms N^2
        assert all(type(v) is int for m in eliminated for row in m for v in row)
        assert cleared == []

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


def _nonderogatory_spec(rng, n):
    """A JordanSpec of order n with one block per eigenvalue, over small
    fractions."""
    pool = sorted({F(a, b) for a in range(-4, 6) for b in (1, 2, 3)})
    rng.shuffle(pool)
    blocks, left = [], n
    while left:
        m = rng.randint(1, min(3, left))
        blocks.append((pool.pop(), [m]))
        left -= m
    return JordanSpec.from_map(blocks)


def _nonderogatory_inputs(rng, count):
    """(A, spectrum): scrambled Suleimanova companions (n = 2..8) and planted
    S^-1 J S with one block per value (n = 1..7), in turn; both have
    fractional entries."""
    out = []
    for i in range(count):
        if i % 2:
            C, values = suleimanova_companion(rng, rng.randint(2, 8))
            out.append((scramble(rng, C), Spectrum.from_values(values)))
        else:
            spec = _nonderogatory_spec(rng, rng.randint(1, 7))
            S = random_invertible(rng, spec.order)
            out.append((solve(S, spec.jordan_matrix() @ S), spec.spectrum()))
    return out


def _krylov_vectors(n):
    """The two vectors that _cyclic_jordan tries in turn: (1, ..., n) and
    v_i = (31 i^2 + 17 i + 5) mod 97 + 1."""
    return [list(range(1, n + 1)), [(31 * i * i + 17 * i + 5) % 97 + 1 for i in range(1, n + 1)]]


def _krylov_determinant(A, v=None):
    """det[v, N v, ..., N^(n-1) v] for N = A's integer form, v = (1, ..., n)
    by default."""
    vectors = [tuple(v or range(1, A.rows + 1))]
    for _ in range(A.rows - 1):
        vectors.append(RationalMatrix._of_ints(A.num).mat_vec(vectors[-1]))
    return core.determinant(RationalMatrix(vectors))


def _char_poly_route(A, spectrum):
    jcfcert._match_spectrum(A, spectrum)
    return jcfcert._jordan_of(A, spectrum)


class TestCyclicRoute:
    """jordan_spec's cyclic certificate against the char-poly + Weyr route
    that it replaces on nonderogatory inputs, and its fallbacks."""

    def test_equals_the_char_poly_route_on_nonderogatory_inputs(self):
        # where (1, ..., n) lies in a proper invariant subspace, the second
        # vector concludes: no input falls back to the char poly
        second = 0
        for A, spectrum in _nonderogatory_inputs(random.Random(3101), 220):
            cyclic, reference = jcfcert._cyclic_jordan(A, spectrum), _char_poly_route(A, spectrum)
            assert jordan_spec(A, spectrum) == reference
            assert cyclic is not None and cyclic[0] == reference
            assert all(len(sizes) == 1 for _, sizes in cyclic[0].blocks)
            second += _krylov_determinant(A) == 0
        assert second >= 10

    def test_sympy_jordan_form_agrees(self):
        sympy = pytest.importorskip("sympy")
        for A, spectrum in _nonderogatory_inputs(random.Random(3102), 12):
            cyclic = jcfcert._cyclic_jordan(A, spectrum)
            if cyclic is None:
                continue
            _, J = _to_sympy(A).jordan_form()
            n = J.rows
            sizes, run = {}, 1
            for i in range(n):
                if i + 1 < n and J[i, i + 1] == 1:
                    run += 1
                    continue
                sizes.setdefault(_from_sympy(J[i, i]), []).append(run)
                run = 1
            assert cyclic[0] == JordanSpec.from_map(sizes)

    def test_derogatory_and_wrong_claims_fall_back(self):
        rng = random.Random(3103)
        derogatory = 0
        while derogatory < 20:
            spec = random_jordan_spec(rng, rng.randint(2, 7))
            if all(len(sizes) == 1 for _, sizes in spec.blocks):
                continue
            derogatory += 1
            S = random_invertible(rng, spec.order)
            A = solve(S, spec.jordan_matrix() @ S)
            assert jcfcert._cyclic_jordan(A, spec.spectrum()) is None
            assert jordan_spec(A, spec.spectrum()) == spec
            for claim in _wrong_claims(rng, spec):
                assert jcfcert._cyclic_jordan(A, claim.spectrum()) is None

    @pytest.mark.parametrize(
        "values",
        [[F(1, 2)], [9, F(-1, 3)], [3, 3], [9, -1, -2]],
        ids=["non-integral", "non-integral-root", "wrong", "short"],
    )
    def test_mismatch_keeps_its_message(self, values):
        C = scramble(random.Random(7), companion_matrix(poly_from_roots([9, -1, -2, -2])))
        claim = Spectrum.from_values(values)
        assert jcfcert._cyclic_jordan(C, claim) is None
        with pytest.raises(SpectrumMismatchError) as err:
            jordan_spec(C, claim)
        residual = jcfcert._residual(char_poly(C), claim)
        assert err.value.residual == residual
        assert str(err.value).endswith("residual: %s" % core.poly_to_string(residual))

    def test_non_integral_claim_takes_no_krylov_product(self, monkeypatch):
        # d lam = -5/2 is no integer, so the claim is wrong (the rational
        # roots of a monic integer poly are integers): _cyclic_jordan gives
        # up before its first mat-vec, and the char poly words the mismatch
        products = []
        monkeypatch.setattr(
            jcfcert, "operator", types.SimpleNamespace(mul=lambda a, b: products.append(1) or a * b)
        )
        A = companion_matrix(poly_from_roots([9, -1, -2, -2]))
        claim = Spectrum.from_values([9, -1, -2, F(-5, 2)])
        assert jcfcert._cyclic_jordan(A, claim) is None
        with pytest.raises(SpectrumMismatchError) as err:
            jordan_spec(A, claim)
        assert products == []
        assert str(err.value) == (
            "characteristic polynomial does not match the claimed spectrum; "
            "residual: -1/2*x^3 + 3*x^2 + 25/2*x + 9"
        )

    def test_scrambled_companion_takes_no_char_poly_and_no_rank(self, monkeypatch):
        def forbidden(name):
            def call(*args):
                raise AssertionError("%s called" % name)

            return call

        monkeypatch.setattr(jcfcert, "_char_poly_int", forbidden("_char_poly_int"))
        monkeypatch.setattr(jcfcert, "exact_rank", forbidden("exact_rank"))
        monkeypatch.setattr(core, "_bareiss", forbidden("_bareiss"))
        values = [9, -1, -2, -2, F(-1, 3), F(-1, 3), F(-1, 3)]
        C = scramble(random.Random(5), companion_matrix(poly_from_roots(values)))
        spec = jordan_spec(C, Spectrum.from_values(values))
        assert spec == JordanSpec.from_map({9: [1], -1: [1], -2: [2], F(-1, 3): [3]})

    def test_krylov_determinant_a_multiple_of_the_prime_concludes(self, monkeypatch):
        # N = [[0, 0], [c, 0]] is J2(0), and v = (1, 2) gives the Krylov
        # determinant c: the quotient y of q = y^2 has N v = (0, c) != 0,
        # so c = _PRIME, a zero residue modulo the prime, concludes like
        # c = _PRIME + 1, with no char poly and no elimination
        inputs = [RationalMatrix([[0, 0], [c, 0]]) for c in (core._PRIME, core._PRIME + 1)]
        assert [_krylov_determinant(A) for A in inputs] == [core._PRIME, core._PRIME + 1]
        calls = []
        monkeypatch.setattr(core, "_bareiss", lambda *args: calls.append("_bareiss"))
        monkeypatch.setattr(jcfcert, "_char_poly_int", lambda *args: calls.append("_char_poly_int"))
        claim, expected = Spectrum.from_values([0, 0]), JordanSpec.from_map({0: [2]})
        for A in inputs:
            assert jcfcert._cyclic_jordan(A, claim) == (expected, (0, 1))
            assert jordan_spec(A, claim) == expected
        assert calls == []

    def test_concludes_iff_q_annihilates_v_and_the_krylov_determinant_is_nonzero(self):
        # the exact Krylov determinant (core.determinant) and p(A) v by
        # Horner over Fractions are the reference, on claims of A's order:
        # right and wrong claims of nonderogatory, derogatory and diagonal
        # inputs, and rank-one inputs with v itself an eigenvector
        rng = random.Random(3104)
        cases = _nonderogatory_inputs(random.Random(3101), 220)
        for _ in range(40):
            spec = random_jordan_spec(rng, rng.randint(2, 7))
            S = random_invertible(rng, spec.order)
            A = solve(S, spec.jordan_matrix() @ S)
            cases += [(A, claim.spectrum()) for claim in [spec] + _wrong_claims(rng, spec)]
        for _ in range(30):
            values = [F(rng.randint(-3, 4), rng.randint(1, 2)) for _ in range(rng.randint(2, 6))]
            cases.append((RationalMatrix.diagonal(values), Spectrum.from_values(values)))
        for n in range(2, 7):
            # (1, ..., n) u^T has v = (1, ..., n) as its eigenvector at u.v,
            # so the quotient at 0 vanishes; its negative puts 0 first
            u = [rng.randint(1, 3) for _ in range(n)]
            for sign in (1, -1):
                A = RationalMatrix([[sign * i * c for c in u] for i in range(1, n + 1)])
                dot = sum(i * c for i, c in enumerate(u, 1))
                cases.append((A, Spectrum.from_values([sign * dot] + [0] * (n - 1))))
        seen = collections.Counter()
        for A, claim in cases:
            facts = []  # (q(A) v = 0, Krylov determinant != 0) for each vector
            for v in _krylov_vectors(A.rows):
                w = [F(0)] * A.rows
                for c in claim.char_poly():
                    w = [a + c * b for a, b in zip(A.mat_vec(w), v)]
                facts.append((not any(w), _krylov_determinant(A, v) != 0))
            # the second vector is tried only when q annihilates the first
            # and its Krylov matrix is singular
            decided = facts[1] if facts[0] == (True, False) else facts[0]
            cyclic = jcfcert._cyclic_jordan(A, claim)
            assert (cyclic is not None) == (decided == (True, True))
            seen[facts[0]] += 1
            if facts[0] == (True, False):
                seen["second", facts[1]] += 1
            if cyclic is None:
                continue
            form, x = cyclic
            assert form == JordanSpec.from_map([(value, [m]) for value, m in claim.pairs])
            # x spans the eigenspace at the Perron value: primitive, first nonzero entry > 0
            assert any(x) and A.mat_vec(x) == tuple(claim.perron * v for v in x)
            assert math.gcd(*x) == 1 and next(filter(None, x)) > 0
        # on the first vector: concluded, a vanishing quotient, q(N) v != 0
        # with det != 0 and with det = 0; then the second vector concludes
        # or meets a vanishing quotient again
        assert seen[True, True] >= 240 and seen[True, False] >= 60
        assert seen[False, True] >= 10 and seen[False, False] >= 20
        assert seen["second", (True, True)] >= 15 and seen["second", (True, False)] >= 50


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

    def test_form_count_matches_sympy_partition_numbers(self):
        partition = pytest.importorskip("sympy.functions.combinatorial.numbers").partition
        rng = random.Random(31)
        for _ in range(40):
            ms = [rng.randint(1, 14) for _ in range(rng.randint(1, 3))]
            expected = 1
            for m in ms:
                expected *= int(partition(m))
            values = [v for v, m in enumerate(ms) for _ in range(m)]
            s = Spectrum.from_values(values)
            if expected <= jcfcert.MAX_JORDAN_FORMS:
                assert len(enumerate_jordan_forms(s)) == expected
            else:
                with pytest.raises(DomainError, match="more than 10000 Jordan forms"):
                    enumerate_jordan_forms(s)

    def test_many_large_multiplicities_refused_quickly(self):
        # the first multiplicity alone passes the bound, so at most 10^4 + 1
        # of its p(40) = 37338 partitions are listed and the other 49 never are
        start = time.perf_counter()
        with pytest.raises(DomainError, match="more than 10000 Jordan forms"):
            enumerate_jordan_forms(Spectrum.from_values([v for v in range(50) for _ in range(40)]))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "values",
        [
            [1] * 40,  # p(40) = 37338
            [2] * 20 + [1] * 20,  # p(20)^2 = 627^2
            list(range(10**4)) + [0] * 10**4,  # one value of multiplicity 10^4 + 1
        ],
    )
    def test_too_many_forms_refused_before_any_is_built(self, monkeypatch, values):
        monkeypatch.setattr(jcfcert, "JordanSpec", None)  # never reached
        with pytest.raises(DomainError, match="more than 10000 Jordan forms"):
            enumerate_jordan_forms(Spectrum.from_values(values))

    def test_counts_near_the_bound(self):
        # p(21) p(3)^2 = 792 * 9 = 7128 forms are listed, p(21) p(7) = 792 * 15 = 11880 refused
        listed = Spectrum.from_values([3] * 21 + [2] * 3 + [1] * 3)
        assert len(enumerate_jordan_forms(listed)) == 7128
        with pytest.raises(DomainError):
            enumerate_jordan_forms(Spectrum.from_values([3] * 21 + [2] * 7))


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


def _check_against_the_fraction_residual(A, spectrum, jordan):
    """verify_certificate, _match_spectrum and _claim_poly_int against the
    Fraction residual of the same claim (char_poly(A) minus the claim's
    polynomial, both over Q); True when the claim matched."""
    reference = jcfcert._residual(char_poly(A), spectrum)
    matched = reference == [F(0)]
    assert jcfcert._claim_residual(A, spectrum) == reference
    record = next(c for c in verify_certificate(A, spectrum, jordan).checks if c.name == "char-poly")
    assert record.passed == matched
    if not matched:
        assert record.detail == "residual: %s" % core.poly_to_string(reference)
    if matched:
        jcfcert._match_spectrum(A, spectrum)
    else:
        with pytest.raises(SpectrumMismatchError) as err:
            jcfcert._match_spectrum(A, spectrum)
        assert err.value.residual == reference
        assert str(err.value).endswith("residual: %s" % core.poly_to_string(reference))
    d = A.den
    q = core._claim_poly_int(spectrum, d)
    if any((value * d).denominator != 1 for value, _ in spectrum.pairs):
        assert q is None
    else:
        # d^n times the claim's polynomial at y / d, over Z
        assert q == integer_poly(spectrum.char_poly(), d)
        assert (q == core._char_poly_int(A.num)) == matched
    return matched


class TestIntegerClaimCheck:
    """The char-poly check compares integer polys over Z; the Fraction
    residual of char_poly(A) and the claim's polynomial is its reference."""

    def test_planted_claims_against_the_fraction_residual(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        value = st.builds(F, st.integers(-4, 5), st.sampled_from([1, 1, 2, 3]))
        spec = st.lists(
            st.tuples(value, st.lists(st.integers(1, 2), min_size=1, max_size=2)),
            min_size=1,
            max_size=4,
            unique_by=lambda pair: pair[0],
        ).filter(lambda blocks: sum(sum(sizes) for _, sizes in blocks) <= 6)
        entry = st.builds(F, st.integers(-2, 2), st.sampled_from([1, 1, 2]))
        seen = collections.Counter()

        @hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
        @hypothesis.given(
            blocks=spec,
            data=st.data(),
            wrong=st.sampled_from(["true", "off-by-one", "longer", "shorter", "non-integral"]),
        )
        def check(blocks, data, wrong):
            form = JordanSpec.from_map(blocks)
            n = form.order
            S = RationalMatrix(data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)))
            hypothesis.assume(core.determinant(S) != 0)
            A = solve(S, form.jordan_matrix() @ S)  # S^-1 J S
            values = list(form.spectrum().values())
            i = data.draw(st.integers(0, n - 1))
            if wrong == "off-by-one":
                values[i] += 1
            elif wrong == "longer":
                values.append(values[i])
            elif wrong == "shorter" and n > 1:
                del values[i]
            elif wrong == "non-integral":
                # d lam + 1/2 for the integer d lam of a true claim
                values[i] += F(1, 2 * A.den)
            claim = Spectrum.from_values(values)
            matched = _check_against_the_fraction_residual(A, claim, form)
            assert matched == (claim == form.spectrum())
            seen[wrong, matched] += 1

        check()
        assert seen["true", True] and seen["off-by-one", False] and seen["longer", False]
        assert seen["shorter", False] and seen["non-integral", False]

    def test_non_square_raises_the_char_poly_error(self):
        A = RationalMatrix([[1, 2]])
        with pytest.raises(DimensionError) as reference:
            char_poly(A)
        claim = Spectrum.from_values([1])
        for call in (
            lambda: verify_certificate(A, claim, JordanSpec.from_map({1: [1]})),
            lambda: jcfcert._match_spectrum(A, claim),
        ):
            with pytest.raises(DimensionError) as err:
                call()
            assert str(err.value) == str(reference.value)

    def test_non_integral_claim_fails_with_its_residual(self):
        # d = 1 and d lam = 1/2: the claim is refused, never rounded to 0,
        # whose y would equal the char poly of [[0]]
        A, claim = RationalMatrix([[0]]), Spectrum.from_values([F(1, 2)])
        assert core._claim_poly_int(claim, A.den) is None
        cert = verify_certificate(A, claim, JordanSpec.from_map({F(1, 2): [1]}))
        assert not cert.verdict
        record = next(c for c in cert.checks if c.name == "char-poly")
        assert (record.passed, record.detail) == (False, "residual: 1/2")
        with pytest.raises(SpectrumMismatchError, match="residual: 1/2$"):
            jcfcert._match_spectrum(A, claim)

    def test_a_passing_claim_builds_no_fraction_poly(self, monkeypatch):
        # the match runs on integers; only a mismatch builds A's Fraction
        # char poly (from the same integers) and the claim's Fraction polynomial;
        # jcfcert holds no name of the Fraction char poly itself
        assert not hasattr(jcfcert, "char_poly")
        calls = []
        for module, name in ((core, "char_poly"), (jcfcert, "_rational_poly"), (jcfcert, "poly_sub")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
        monkeypatch.setattr(Spectrum, "char_poly", lambda self: calls.append("claim") or poly_from_roots(self.values()))
        C = RationalMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 3]])
        form = JordanSpec.from_map({1: [2], 3: [1]})
        assert verify_certificate(C, form.spectrum(), form).verdict
        jcfcert._match_spectrum(C, form.spectrum())
        assert calls == []
        assert not verify_certificate(C, Spectrum.from_values([1, 2, 3]), form).verdict
        assert calls == ["_rational_poly", "claim", "poly_sub"]


class TestRationalSpectrumOf:
    def test_recovers_planted(self):
        values = [F(3), F(-1, 2), F(-1, 2)]
        C = companion_matrix(poly_from_roots(values))
        assert rational_spectrum_of(C) == Spectrum.from_values(values)

    def test_irrational_returns_none(self):
        A = RationalMatrix([[0, 2], [1, 0]])  # roots +-sqrt(2)
        assert rational_spectrum_of(A) is None

    def test_non_square_raises_the_char_poly_error(self):
        A = RationalMatrix([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(DimensionError) as reference:
            char_poly(A)
        with pytest.raises(DimensionError) as err:
            rational_spectrum_of(A)
        assert str(err.value) == str(reference.value) == "characteristic polynomial of non-square matrix"

    def test_against_sympy_factor_list(self):
        """A Spectrum comes back exactly when sympy factors the char poly
        into linear factors, and then holds sympy's roots: 250 planted
        S^-1 J S, each with a Jordan block of size >= 2 and half of them
        shifted to denominators above 10^6, and 100 random dense matrices."""
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(1301)
        planted = []
        while len(planted) < 250:
            spec = random_jordan_spec(rng, rng.randint(2, 6))
            if max(sizes[0] for _, sizes in spec.blocks) < 2:
                continue
            if len(planted) % 2:
                shift = F(rng.randint(1, 10**7), rng.choice([1000003, 10**12 + 39]))
                spec = JordanSpec.from_map([(v + shift, sizes) for v, sizes in spec.blocks])
            S = random_invertible(rng, spec.order)
            planted.append((solve(S, spec.jordan_matrix() @ S), spec.spectrum()))
        dense = [
            RationalMatrix([[_random_entry(rng) for _ in range(n)] for _ in range(n)])
            for n in [rng.randint(1, 6) for _ in range(100)]
        ]
        assert max(v.denominator for _, spectrum in planted for v in spectrum.values()) > 10**6
        split = 0
        for A, known in planted + [(A, None) for A in dense]:
            _, factors = sympy.factor_list(_to_sympy(A).charpoly(x).as_expr(), x)
            coeffs = [(sympy.Poly(f, x).all_coeffs(), m) for f, m in factors]
            got = rational_spectrum_of(A)
            if all(len(c) == 2 for c, _ in coeffs):
                roots = [_from_sympy(-c0 / c1) for (c1, c0), m in coeffs for _ in range(m)]
                assert got == Spectrum.from_values(roots)
                assert known is None or got == known
                split += 1
            else:
                assert got is None and known is None
        # every planted input splits; most dense ones have irrational or complex roots
        assert 250 <= split <= 300


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
