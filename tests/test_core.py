import collections
import math
import random
from fractions import Fraction as F

import pytest

from nnspectra import core
from nnspectra.core import (
    FloatMatrix,
    JordanSpec,
    RationalMatrix,
    Spectrum,
    char_poly,
    companion_matrix,
    determinant,
    exact_rank,
    inverse,
    kernel,
    matrix_from_json,
    matrix_to_json,
    poly_eval,
    poly_from_roots,
    poly_mul,
    poly_sub,
    rat,
    rational_sqrt,
    solve,
    synthetic_div,
    to_float,
)
from nnspectra.errors import (
    DimensionError,
    DomainError,
    SingularMatrixError,
)

from conftest import bisect_root_ceiling, random_invertible


def brute_force_char_poly(A):
    """Independent oracle: expand det(xI - A) over all n! permutations."""
    import itertools

    n = A.rows
    total = [F(0)]
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = [F(sign)]
        for i in range(n):
            j = perm[i]
            if i == j:
                term = poly_mul(term, [F(1), -A[i, j]])
            else:
                term = poly_mul(term, [-A[i, j]])
        width = max(len(total), len(term))
        total = [F(0)] * (width - len(total)) + total
        padded = [F(0)] * (width - len(term)) + term
        total = [a + b for a, b in zip(total, padded)]
    while len(total) > 1 and total[0] == 0:
        total.pop(0)
    return total


class TestRationalParsing:
    def test_decimal_is_exact(self):
        assert rat("2.52") == F(63, 25)
        assert rat("11/2") == F(11, 2)
        assert rat(-3) == F(-3)

    def test_float_rejected(self):
        with pytest.raises(DomainError):
            rat(0.1)

    @pytest.mark.parametrize("value", [True, False])
    def test_bool_rejected(self, value):
        with pytest.raises(DomainError, match="bool"):
            rat(value)

    @pytest.mark.parametrize(
        "text",
        ["abc", "1" * 5000, "1/0", "1e5000"],
        ids=["malformed", "5000-digits", "zero-denominator", "exponent-5000"],
    )
    def test_bad_or_oversized_string_is_domain_error(self, text):
        with pytest.raises(DomainError) as err:
            rat(text)
        assert text[:20] in str(err.value)

    def test_exponent_bound_is_symmetric_and_inclusive(self):
        assert rat("1e4300") == 10**4300
        assert rat("1e-4300") == F(1, 10**4300)
        with pytest.raises(DomainError):
            rat("1e-4301")


class TestCharPoly:
    def test_worked_quartic(self):
        A = RationalMatrix(
            [
                ["0", "1", "0", "0"],
                ["11/2", "0", "1", "0"],
                ["63/25", "0", "0", "1"],
                ["9/100", "0", "67/50", "2"],
            ]
        )
        assert char_poly(A) == [
            F(1),
            F(-2),
            F(-171, 25),
            F(212, 25),
            F(308, 25),
        ]

    def test_identity(self):
        assert char_poly(RationalMatrix.identity(3)) == [F(1), F(-3), F(3), F(-1)]

    def test_against_permutation_expansion_oracle(self):
        rng = random.Random(7)
        for _ in range(20):
            A = RationalMatrix(
                [
                    [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
                    for _ in range(4)
                ]
            )
            assert char_poly(A) == brute_force_char_poly(A)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            char_poly(RationalMatrix.zeros(2, 3))

    @pytest.mark.parametrize(
        "N",
        [[[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4], [5, 6]], [[1, 2], [3]], [[1], [2, 3]], [[1, 2]]],
        ids=["2x3", "3x2", "ragged-short", "ragged-long", "1x2"],
    )
    def test_integer_kernel_refuses_non_square_rows(self, N):
        # the one non-square check, which every integer char poly passes:
        # [[1, 2, 3], [4, 5, 6]] would otherwise give [1, -6, -3]
        with pytest.raises(DimensionError, match="^characteristic polynomial of non-square matrix$"):
            core._char_poly_int(N)

    def test_similarity_invariance(self):
        rng = random.Random(3)
        for _ in range(15):
            n = rng.randint(2, 5)
            A = RationalMatrix(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            )
            S = random_invertible(rng, n)
            B = solve(S, A @ S)
            assert char_poly(B) == char_poly(A)

    def test_integer_char_poly_matches_sympy(self):
        # det(yI - N) over Z, negative entries and zeros, n = 1..9
        sympy = pytest.importorskip("sympy")
        y = sympy.symbols("y")
        rng = random.Random(36)
        for n in range(1, 10):
            for _ in range(3):
                N = [[rng.choice((0, rng.randint(-40, 40))) for _ in range(n)] for _ in range(n)]
                expected = sympy.Matrix(N).charpoly(y).all_coeffs()
                got = core._char_poly_int(N)
                assert got == [int(c) for c in expected]
                assert all(type(c) is int for c in got)


class TestExactRank:
    def test_shifted_jordan_witness(self):
        M = RationalMatrix([[1, 0], [1, 1]]) - RationalMatrix.identity(2)
        assert exact_rank(M) == 1

    def test_zero_matrix(self):
        assert exact_rank(RationalMatrix.zeros(3, 3)) == 0

    def test_planted_factorization(self):
        rng = random.Random(11)
        for _ in range(10):
            U = RationalMatrix(
                [
                    [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)]
                    for _ in range(5)
                ]
            )
            V = RationalMatrix(
                [
                    [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(5)]
                    for _ in range(3)
                ]
            )
            if exact_rank(U) == 3 and exact_rank(V) == 3:
                assert exact_rank(U @ V) == 3

    def test_rank_nullity(self):
        rng = random.Random(13)
        for _ in range(15):
            rows, cols = rng.randint(2, 5), rng.randint(2, 5)
            A = RationalMatrix(
                [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
            )
            assert exact_rank(A) + len(kernel(A)) == cols


def _to_sympy(A):
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix(
        [[sympy.Rational(v.numerator, v.denominator) for v in row] for row in A.entries()]
    )


def _from_sympy(x):
    return F(int(x.p), int(x.q))


def _random_entry(rng, density=1.0):
    return F(rng.randint(-5, 5), rng.randint(1, 6)) if rng.random() < density else F(0)


def _random_matrix(rng, rows, cols):
    """Dense, sparse, or planted low rank U V with inner dimension 0..3."""
    kind = rng.choice(("dense", "sparse", "planted"))
    if kind == "planted":
        k = rng.randint(0, 3)
        U = [[_random_entry(rng) for _ in range(k)] for _ in range(rows)]
        V = [[_random_entry(rng) for _ in range(cols)] for _ in range(k)]
        return RationalMatrix(
            [
                [sum((U[i][t] * V[t][j] for t in range(k)), F(0)) for j in range(cols)]
                for i in range(rows)
            ]
        )
    density = 1.0 if kind == "dense" else 0.4
    return RationalMatrix(
        [[_random_entry(rng, density) for _ in range(cols)] for _ in range(rows)]
    )


def _differential_matrices(seed):
    """For every shape 1..7 x 1..7: the zero matrix, then seven random ones."""
    rng = random.Random(seed)
    for rows in range(1, 8):
        for cols in range(1, 8):
            yield RationalMatrix.zeros(rows, cols)
            for _ in range(7):
                yield _random_matrix(rng, rows, cols)


class TestEliminationAgainstSympy:
    """rank, determinant, kernel and solve share one elimination; each is
    compared exactly with sympy's independent implementation."""

    def test_rank_determinant_kernel(self):
        pytest.importorskip("sympy")
        for A in _differential_matrices(seed=41):
            S = _to_sympy(A)
            assert exact_rank(A) == S.rank()
            assert kernel(A) == [
                tuple(_from_sympy(x) for x in v) for v in S.nullspace()
            ]
            if A.is_square:
                assert determinant(A) == _from_sympy(S.det())

    def test_solve_multi_column(self):
        pytest.importorskip("sympy")
        rng = random.Random(43)
        solved = singular = 0
        for n in range(1, 8):
            for _ in range(40):
                A = _random_matrix(rng, n, n)
                width = rng.randint(2, 3)
                B = RationalMatrix([[_random_entry(rng) for _ in range(width)] for _ in range(n)])
                S = _to_sympy(A)
                if S.det() == 0:
                    with pytest.raises(SingularMatrixError):
                        solve(A, B)
                    singular += 1
                    continue
                expected = S.LUsolve(_to_sympy(B))
                assert [list(row) for row in solve(A, B).entries()] == [
                    [_from_sympy(expected[i, j]) for j in range(width)] for i in range(n)
                ]
                solved += 1
        assert solved >= 100 and singular >= 20

    def test_non_square_dimension_errors(self):
        A = RationalMatrix.zeros(2, 3)
        with pytest.raises(DimensionError):
            determinant(A)
        with pytest.raises(DimensionError):
            solve(A, RationalMatrix.zeros(2, 1))
        with pytest.raises(DimensionError):
            solve(RationalMatrix.identity(2), RationalMatrix.zeros(3, 1))


class TestIntegerForm:
    """A matrix is stored once, as integer rows over the lcm of its reduced
    denominators.  One built from Fractions and one built by _of_ints from
    the same values over any common denominator are the same matrix."""

    def test_fraction_and_integer_builds_agree(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=120, deadline=None, database=None)
        @hypothesis.given(
            shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
            values=st.lists(
                st.builds(F, st.integers(-30, 30), st.integers(1, 12)), min_size=16, max_size=16
            ),
            extra=st.integers(1, 40),
            sign=st.sampled_from((1, -1)),
        )
        def check(shape, values, extra, sign):
            r, c = shape
            rows = [values[i * c : (i + 1) * c] for i in range(r)]
            A = RationalMatrix(rows)
            lcm = 1
            for v in values[: r * c]:
                lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
            # any common denominator, not reduced, of either sign
            d = sign * extra * lcm
            B = RationalMatrix._of_ints([[int(v * d) for v in row] for row in rows], d)
            assert A == B and hash(A) == hash(B)
            assert A.den == B.den == lcm
            assert B.entries() == A.entries() == tuple(map(tuple, rows))
            assert all(type(v) is F for row in B.entries() for v in row)
            assert matrix_to_json(B) == matrix_to_json(A)

        check()

    def test_kernels_on_integer_backed_inputs_match_sympy(self):
        hypothesis = pytest.importorskip("hypothesis")
        sympy = pytest.importorskip("sympy")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=80, deadline=None, database=None)
        @hypothesis.given(
            n=st.integers(1, 5),
            values=st.lists(st.integers(-9, 9), min_size=35, max_size=35),
            zeros=st.lists(st.booleans(), min_size=25, max_size=25),
            d=st.integers(1, 24),
        )
        def check(n, values, zeros, d):
            ints = [
                [0 if zeros[i * n + j] else values[i * n + j] for j in range(n)] for i in range(n)
            ]
            rhs = [values[25 + i : 27 + i] for i in range(n)]
            A = RationalMatrix._of_ints(ints, d)
            B = RationalMatrix._of_ints(rhs, d + 1)
            S = sympy.Matrix(ints) / d
            assert exact_rank(A) == S.rank()
            nullspace = [tuple(_from_sympy(x) for x in v) for v in S.nullspace()]
            assert kernel(A) == nullspace
            primitive = kernel(A, primitive=True)
            assert len(primitive) == len(nullspace)
            for v, p in zip(nullspace, primitive):
                # the least positive integer multiple of v
                k = next(i for i, y in enumerate(v) if y)
                ratio = F(p[k]) / v[k]
                assert ratio > 0 and list(p) == [ratio * y for y in v]
                assert all(type(y) is int for y in p) and math.gcd(*p) == 1
            assert determinant(A) == _from_sympy(S.det())
            x = sympy.symbols("x")
            assert char_poly(A) == [_from_sympy(c) for c in S.charpoly(x).all_coeffs()]
            if S.det() == 0:
                with pytest.raises(SingularMatrixError):
                    solve(A, B)
            else:
                expected = S.LUsolve(sympy.Matrix(rhs) / (d + 1))
                assert [list(row) for row in solve(A, B).entries()] == [
                    [_from_sympy(expected[i, j]) for j in range(2)] for i in range(n)
                ]

        check()


class TestFloatBridge:
    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            FloatMatrix([[float("nan")]])

    def test_to_float_rounds_each_entry_as_float_of_its_fraction(self):
        # to_float divides num by den; float() of the entry's Fraction is the
        # reference, bit for bit, for numerators and denominators past 2^1100
        # and quotients across the whole float64 range and just beyond it
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        boundary = [-1076, -1075, -1074, -1023, -1022, -1021, 1021, 1022, 1023]
        exponents = [
            st.integers(-60, 60),
            st.one_of(st.integers(-1080, 1024), st.sampled_from(boundary)),
        ]

        @st.composite
        def entry(draw, exponent):
            # sign (1 + f/k) 2^s, in [2^s, 2^(s+1)) in modulus, or zero
            if draw(st.integers(0, 5)) == 0:
                return F(0)
            bits = draw(st.one_of(st.integers(1, 70), st.integers(1100, 1200)))
            k = draw(st.integers(2 ** (bits - 1), 2**bits - 1))
            f, s = draw(st.integers(0, k - 1)), draw(exponent)
            sign = draw(st.sampled_from((1, -1)))
            return sign * F(k + f, k) * F(2) ** s

        @st.composite
        def matrix(draw):
            # one range of exponents per matrix: moderate quotients, or
            # quotients up to and past both ends of the float64 range
            r, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
            exponent = draw(st.sampled_from(exponents))
            return [[draw(entry(exponent)) for _ in range(c)] for _ in range(r)]

        @hypothesis.settings(max_examples=200, deadline=None, database=None)
        @hypothesis.given(rows=matrix())
        def check(rows):
            A = RationalMatrix(rows)
            values = sum(rows, [])
            try:
                expected = [[float(F(v, A.den)) for v in row] for row in A.num]
            except OverflowError:
                with pytest.raises(DomainError, match="beyond the float64 range"):
                    to_float(A)
                return
            if any(v and not x for v, x in zip(values, sum(expected, []))):
                with pytest.raises(DomainError, match="below the float64 range"):
                    to_float(A)
                return
            got = to_float(A).array.tolist()
            assert [[x.hex() for x in row] for row in got] == [
                [x.hex() for x in row] for row in expected
            ]

        check()

    def test_entries_below_the_float_range_are_refused_by_position(self):
        A = RationalMatrix([["1", "1e-400"], ["-1e-400", "0"]])
        with pytest.raises(DomainError, match=r"^entry \(0,1\) is below the float64 range$"):
            to_float(A)
        # a subnormal result is a float64, not an underflow
        B = RationalMatrix([["1e-320", "0"], ["0", "-5e-324"]])
        assert to_float(B).array.tolist() == [[1e-320, 0.0], [0.0, -5e-324]]


class TestLinearAlgebra:
    def test_inverse(self):
        A = RationalMatrix([[2, 1], [1, 1]])
        assert A @ inverse(A) == RationalMatrix.identity(2)

    def test_kernel_dimension(self):
        A = RationalMatrix([[1, 2, 3], [2, 4, 6]])
        basis = kernel(A)
        assert len(basis) == 2
        for vec in basis:
            assert all(v == 0 for v in A.mat_vec(vec))

    def test_companion_char_poly(self):
        p = poly_from_roots([F(3), F(-1), F(-2)])
        C = companion_matrix(p)
        assert char_poly(C) == p

    def test_synthetic_div(self):
        p = poly_from_roots([F(2), F(-1)])
        q, rem = synthetic_div(p, F(2))
        assert rem == 0 and poly_eval(q, F(-1)) == 0

    def test_rational_sqrt(self):
        assert rational_sqrt(F(9, 4)) == F(3, 2)
        assert rational_sqrt(F(2)) is None


class TestOnePrime:
    """det != 0 from one residue modulo the word-size prime _PRIME; the
    Bareiss elimination runs only on a zero residue."""

    def test_nonzero_exactly_when_the_determinant_is_nonzero_modulo_the_prime(self):
        rng = random.Random(61)
        for n in range(1, 8):
            for _ in range(20):
                span = rng.choice([3, 10**30])
                rows = [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
                if n > 2 and rng.random() < 0.3:  # a dependent last row
                    rows[-1] = [a - 3 * b for a, b in zip(rows[0], rows[1])]
                det = determinant(RationalMatrix(rows))
                assert core._nonzero_mod_prime(rows) == (int(det) % core._PRIME != 0)

    def _bareiss_calls(self, monkeypatch):
        calls, bareiss = [], core._bareiss

        def spy(m, pivot_cols):
            calls.append(len(m))
            return bareiss(m, pivot_cols)

        monkeypatch.setattr(core, "_bareiss", spy)
        return calls

    def test_nonzero_residue_takes_no_elimination(self, monkeypatch):
        calls = self._bareiss_calls(monkeypatch)
        S = RationalMatrix.diagonal([F(2, 3), F(7), F(1, 5)])
        assert not core._is_singular(S)
        assert not core._is_singular(RationalMatrix([[2, 1], [1, 1]]))
        assert calls == []

    def test_determinant_a_multiple_of_the_prime_falls_back_to_bareiss(self, monkeypatch):
        calls = self._bareiss_calls(monkeypatch)
        p = core._PRIME
        A = RationalMatrix([[p, 1], [0, 1]])  # det p: residue 0, yet invertible
        assert not core._nonzero_mod_prime(A.num)
        assert not core._is_singular(A)
        assert calls == [2]
        assert core._is_singular(RationalMatrix([[p, 2 * p], [1, 2]]))
        assert calls == [2, 2]


class TestInternalResults:
    """Arithmetic results skip the parser; they must equal the matrix parsed
    from the same values, and hold Fractions only."""

    @staticmethod
    def _assert_parsed_alike(M):
        assert M == RationalMatrix([[str(v) for v in row] for row in M.entries()])
        assert all(type(v) is F for row in M.entries() for v in row)

    def test_results_equal_parsed_matrices(self):
        rng = random.Random(17)
        for _ in range(60):
            r, k, c = (rng.randint(1, 5) for _ in range(3))
            A, B, C = _random_matrix(rng, r, k), _random_matrix(rng, r, k), _random_matrix(rng, k, c)
            rows = rng.sample(range(r), rng.randint(1, r))
            cols = rng.sample(range(k), rng.randint(1, k))
            results = [
                A + B,
                A - B,
                A.scale(rng.randint(-3, 3)),
                A.scale("2/7"),
                A @ C,
                A.transpose(),
                A.submatrix(rows, cols),
                RationalMatrix.from_blocks([[A, B], [B, A]]),
                RationalMatrix.identity(k),
                RationalMatrix.zeros(r, c),
                RationalMatrix.diagonal([1, "1/2", F(-3, 4)]),
            ]
            if r == k and determinant(A) != 0:
                results.append(solve(A, B))
            for M in results:
                self._assert_parsed_alike(M)

    def test_empty_shapes_are_dimension_errors(self):
        A = RationalMatrix([[1, 2], [3, 4]])
        builds = [
            lambda: A.submatrix([], []),
            lambda: A.submatrix([0], []),
            lambda: RationalMatrix.from_blocks([]),
            lambda: RationalMatrix.from_blocks([[]]),
            lambda: RationalMatrix.from_blocks([[A], [A, A]]),  # ragged
            lambda: RationalMatrix.identity(0),
            lambda: RationalMatrix.zeros(0, 2),
        ]
        for build in builds:
            with pytest.raises(DimensionError):
                build()

    @pytest.mark.parametrize(
        "entries, error",
        [([[True]], DomainError), ([[1.5]], DomainError), ([[1, 2], [3]], DimensionError)],
    )
    def test_public_constructors_still_parse(self, entries, error):
        with pytest.raises(error):
            RationalMatrix(entries)
        with pytest.raises(error):
            matrix_from_json({"entries": entries})


def _fraction_product(X, Y):
    """The reference product: Fraction triple loops over full rows and
    columns, with no sparsity and no integer form."""
    return [
        [sum((F(X[i][t]) * F(Y[t][j]) for t in range(len(Y))), F(0)) for j in range(len(Y[0]))]
        for i in range(len(X))
    ]


class TestIntegerProduct:
    """core._integer_product and RationalMatrix.__matmul__ against
    Fraction triple loops."""

    @staticmethod
    def _factors():
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        # zero-heavy, negative, and beyond 2^64
        entry = st.sampled_from([0, 0, 0, 1, -1, 2]) | st.integers(-(2**70), 2**70)

        @st.composite
        def matrix(draw, rows, cols, pattern):
            if pattern == "zero":
                return [[0] * cols for _ in range(rows)]
            if pattern == "diagonal":
                return [[draw(entry) if i == j else 0 for j in range(cols)] for i in range(rows)]
            if pattern == "companion":
                # superdiagonal entries and a full last row
                return [
                    [draw(entry) if j == i + 1 or i == rows - 1 else 0 for j in range(cols)]
                    for i in range(rows)
                ]
            if pattern == "single":
                # exactly one nonzero entry per row
                rows_ = []
                for _ in range(rows):
                    row = [0] * cols
                    row[draw(st.integers(0, cols - 1))] = draw(st.integers(-(2**70), 2**70).filter(bool))
                    rows_.append(row)
                return rows_
            M = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
            if pattern == "zero rows":
                for i in draw(st.lists(st.integers(0, rows - 1), max_size=rows)):
                    M[i] = [0] * cols
            return M

        patterns = st.sampled_from(("dense", "zero rows", "zero", "single", "diagonal", "companion"))

        @st.composite
        def pair(draw):
            r, k, c = (draw(st.integers(1, 6)) for _ in range(3))
            X = draw(matrix(r, k, draw(patterns)))
            Y = draw(matrix(k, c, draw(patterns)))
            return X, Y

        return hypothesis, st, pair()

    @staticmethod
    def _assert_fresh_rows(out, Y):
        # a shared zero row, or a row of Y handed back, is the easy mistake
        assert len({id(row) for row in out}) == len(out)
        assert not any(row is y for row in out for y in Y)

    def test_integer_product_against_fraction_loops(self):
        hypothesis, _, pairs = self._factors()

        @hypothesis.settings(max_examples=250, deadline=None, database=None, derandomize=True)
        @hypothesis.given(pairs)
        @hypothesis.example(([[0, 0], [0, 0], [0, 0]], [[1, 2], [3, 4]]))
        @hypothesis.example(([[0, 3], [5, 0]], [[1, 2], [3, 4]]))
        def check(args):
            X, Y = args
            for rows in (X, [tuple(r) for r in X]):
                out = core._integer_product(rows, Y)
                assert out == _fraction_product(X, Y)
                assert all(type(v) is int for row in out for v in row)
                self._assert_fresh_rows(out, Y)

        check()

    def test_matmul_against_fraction_loops(self):
        hypothesis, st, pairs = self._factors()
        den = st.sampled_from([1, 2, 6, 10**9 + 7, 2**64 + 13])

        @hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
        @hypothesis.given(pairs, den, den)
        def check(args, p, q):
            X, Y = args
            A = RationalMatrix([[F(v, p) for v in row] for row in X])
            B = RationalMatrix([[F(v, q) for v in row] for row in Y])
            C = A @ B
            assert [list(row) for row in C.entries()] == _fraction_product(A.entries(), B.entries())
            assert C == RationalMatrix([[str(v) for v in row] for row in C.entries()])

        check()


class TestJson:
    def test_roundtrip(self):
        A = RationalMatrix([["11/2", "2.52"], ["0", "-3"]])
        assert matrix_from_json(matrix_to_json(A)) == A

    def test_accepts_mixed_entry_kinds(self):
        obj = {"rows": 1, "cols": 3, "entries": [[2, "1/2", "0.2"]]}
        assert matrix_from_json(obj) == RationalMatrix([[2, F(1, 2), F(1, 5)]])

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            matrix_from_json({"rows": 2, "cols": 1, "entries": [["1"]]})


class TestSpectrum:
    def test_perron_tracking(self):
        s = Spectrum.from_values(["14/5", "11/5", -1, -2, -2])
        assert s.perron == F(14, 5)
        assert vars(s)["perron"] == F(14, 5)  # cached on first read
        assert s.order == 5
        assert Spectrum.from_values([2, -2]).perron == 2  # modulus tie
        assert Spectrum.from_values([-3, 1]).perron == -3  # negative max

    def test_perron_is_the_two_step_rule(self):
        # the reference takes the largest modulus, then the larger of the
        # values that attain it
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        value = st.builds(F, st.integers(-6, 6), st.integers(1, 3))

        @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
        @hypothesis.given(st.lists(value, min_size=1, max_size=6), st.booleans())
        def check(values, tie):
            if tie:  # the negation of the largest modulus joins the list
                values = values + [-max(values, key=abs)]
            modulus = max(abs(v) for v in values)
            expected = max(v for v in values if abs(v) == modulus)
            assert Spectrum.from_values(values).perron == expected
            seen["tie"] += tie and modulus != 0
            seen["negative"] += max(values) < modulus

        seen = collections.Counter()
        check()
        assert seen["tie"] >= 50 and seen["negative"] >= 50, seen

    def test_char_poly_match(self):
        s = Spectrum.from_values([1, 1, -1, -1])
        assert s.char_poly() == poly_from_roots([1, 1, -1, -1])

    def test_json_roundtrip(self):
        s = Spectrum.from_values(["3", "-1/2", "-1/2"])
        assert Spectrum.from_json(s.to_json()) == s

    def test_empty_json_spectrum_refused(self):
        with pytest.raises(DomainError, match="lists no eigenvalue"):
            Spectrum.from_json({"values": []})

    def test_jordan_spectrum_matches_a_fresh_parse(self):
        j = JordanSpec.from_map({F(-2): [2, 1], F(1, 2): [1], F(3): [1]})
        values = [v for v, sizes in j.blocks for size in sizes for _ in range(size)]
        assert j.spectrum() == Spectrum.from_values(values)


class TestJordanSpec:
    def test_sizes_sorted_and_diagonal_flag(self):
        j = JordanSpec.from_map({F(-2): [1, 2], F(3): [1]})
        assert j.sizes_at(-2) == (2, 1)
        assert not j.is_diagonal
        assert j.order == 4

    def test_weyr_from_segre(self):
        j = JordanSpec.from_map({F(-2): [2, 1]})
        assert j.weyr_at(-2) == (2, 3)

    def test_jordan_matrix_roundtrip(self):
        # blocks are laid out by ascending eigenvalue
        j = JordanSpec.from_map({F(1): [2], F(0): [1]})
        J = j.jordan_matrix()
        assert J == RationalMatrix([[0, 0, 0], [0, 1, 1], [0, 0, 1]])

    def test_json_roundtrip(self):
        j = JordanSpec.from_map({F(-2): [2, 1], F(1, 2): [1]})
        assert JordanSpec.from_json(j.to_json()) == j

    def test_block_size_must_be_a_positive_integer(self):
        for size in (1.5, True, "3/2", F(1, 2), 0):
            with pytest.raises(DomainError):
                JordanSpec.from_map({F(1): [size]})
        assert JordanSpec.from_map({F(1): ["2", F(1)]}).sizes_at(1) == (2, 1)


class TestPolySub:
    def test_residual_zero(self):
        assert poly_sub([F(1), F(2)], [F(1), F(2)]) == [F(0)]


def _times_linear(q, r):
    """q(y) (y - r)."""
    return [a - r * b for a, b in zip(q + [0], [0] + q)]


def _from_roots(roots):
    q = [1]
    for r in roots:
        q = _times_linear(q, r)
    return q


def _ceiling_inputs():
    """(q, lo, hi) for the differential of core._root_ceiling: monic integer
    q of degree 1..9, real-rooted with integer or irrational largest roots,
    with complex roots (lists that do not split), or clustered as (y - r)^k
    (y - r - 1); brackets from the Cauchy bound, lo == hi, lo above every
    root, brackets with no passing m, and huge ones."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    integer_roots = st.lists(st.integers(-60, 60), min_size=1, max_size=9).map(_from_roots)

    @st.composite
    def irrational_top(draw):
        # (y - a)^2 - s with k^2 < s < (k + 1)^2, over integer roots <= a
        a, k = draw(st.integers(-30, 30)), draw(st.integers(1, 30))
        s = k * k + draw(st.integers(1, 2 * k))
        q = [1, -2 * a, a * a - s]
        for r in draw(st.lists(st.integers(0, 40), max_size=7)):
            q = _times_linear(q, a - r)
        return q

    @st.composite
    def complex_roots(draw):
        if draw(st.booleans()):
            return [1] + draw(st.lists(st.integers(-200, 200), min_size=1, max_size=9))
        q = [1]
        for _ in range(draw(st.integers(1, 4))):
            a, b = draw(st.integers(-30, 30)), draw(st.integers(1, 900))
            q = poly_mul(q, [1, -2 * a, a * a + b])
        for r in draw(st.lists(st.integers(-40, 40), max_size=9 - (len(q) - 1))):
            q = _times_linear(q, r)
        return [int(c) for c in q]

    @st.composite
    def clustered(draw):
        r, k = draw(st.integers(-40, 40)), draw(st.integers(1, 8))
        return _from_roots([r] * k + [r + 1])

    @st.composite
    def triple(draw):
        q = draw(st.one_of(integer_roots, irrational_top(), complex_roots(), clustered()))
        bound = 1 + max(map(abs, q))
        kind = draw(st.sampled_from(("cauchy", "point", "above", "none", "any", "huge")))
        if kind == "cauchy":
            return q, -bound, bound
        if kind == "point":
            m = draw(st.integers(-bound - 3, bound + 3))
            return q, m, m
        if kind == "above":
            lo = bound + draw(st.integers(0, 5))
            return q, lo, lo + draw(st.integers(0, 2**20))
        if kind == "none":
            # hi below the least passing m: the answer is hi
            top, _ = bisect_root_ceiling(q, -bound, bound)
            hi = top - 1 - draw(st.integers(0, 5))
            return q, hi - draw(st.integers(0, 2**12)), hi
        if kind == "any":
            lo, hi = sorted(draw(st.integers(-bound - 5, bound + 5)) for _ in range(2))
            return q, lo, hi
        lo = draw(st.integers(-bound, bound))
        return q, lo, lo + draw(st.integers(0, 2**80))

    return hypothesis, triple()


class TestRootCeiling:
    """core._root_ceiling against the bisection it replaced, kept here as
    the reference (conftest.bisect_root_ceiling)."""

    def test_same_m_as_the_bisection(self):
        hypothesis, triples = _ceiling_inputs()

        @hypothesis.settings(max_examples=600, deadline=None, database=None, derandomize=True)
        @hypothesis.given(triples)
        def check(args):
            assert core._root_ceiling(*args) == bisect_root_ceiling(*args)[0]

        check()

    def test_work_within_the_bisections(self, monkeypatch):
        # at most two Taylor tests more than the bisection, and at most
        # deg q times (hi - lo).bit_length() Horner steps
        hypothesis, triples = _ceiling_inputs()
        tests, steps = [0], [0]
        taylor, horner = core._taylor, core._value_and_slope

        def taylor_spy(q, m):
            tests[0] += 1
            return taylor(q, m)

        def horner_spy(q, x):
            steps[0] += 1
            return horner(q, x)

        monkeypatch.setattr(core, "_taylor", taylor_spy)
        monkeypatch.setattr(core, "_value_and_slope", horner_spy)

        @hypothesis.settings(max_examples=600, deadline=None, database=None, derandomize=True)
        @hypothesis.given(triples)
        # a cluster below the settled x: x - 1 and x - 2 both pass, and the
        # bracket they leave is most of [lo, hi]
        @hypothesis.example((_from_roots([19] + [18] * 6), -29, 22))
        def check(args):
            q, lo, hi = args
            tests[0] = steps[0] = 0
            core._root_ceiling(q, lo, hi)
            assert tests[0] <= bisect_root_ceiling(q, lo, hi)[1] + 2
            assert steps[0] <= (len(q) - 1) * (hi - lo).bit_length()

        check()

    @pytest.mark.parametrize(
        "roots, lo, hi",
        [
            ([90, 10, -20, -30, 5], 30, 39072),
            ([300, -100, 7, 1, -250], 30, 109475),
            ([16920, 100, -3000, 5, -16000, 2], 648, 3569165),
        ],
    )
    def test_far_above_the_root_newton_still_settles_it(self, monkeypatch, roots, lo, hi):
        # far above every root a Newton step cuts x - r only by about a
        # factor 1 - 1/deg; a budget of (hi - lo).bit_length() steps ran
        # out on these radius brackets, and the bisection took 11 to 18
        # Taylor tests
        tests = [0]
        taylor = core._taylor

        def spy(q, m):
            tests[0] += 1
            return taylor(q, m)

        monkeypatch.setattr(core, "_taylor", spy)
        q = _from_roots(roots)
        assert core._root_ceiling(q, lo, hi) == max(roots)
        assert tests[0] <= 3

    @pytest.mark.parametrize(
        "roots",
        [
            [40, -5, -5, -4, -3, -2, -1, -1, -6, -2, -3, -4],
            [90, 10, -20, -30, 5],
            [300, -100, 7, 1, -250],
            [16920, 100, -3000, 5, -16000, 2],
            list(range(-10, 11)),
        ],
    )
    def test_a_loose_bracket_costs_no_long_descent(self, monkeypatch, roots):
        # from the Cauchy bound, as rational_spectrum_of starts: Newton
        # starts at the power-of-2 Fujiwara bound, within a factor of order
        # deg of the largest |root|, so it takes O(deg log deg) Horner steps,
        # not the deg * log(hi / r) that a start at hi costs (50 to 578 here)
        steps = [0]
        horner = core._value_and_slope

        def spy(q, x):
            steps[0] += 1
            return horner(q, x)

        monkeypatch.setattr(core, "_value_and_slope", spy)
        q = _from_roots(roots)
        bound = 1 + max(map(abs, q))
        assert core._root_ceiling(q, -bound, bound) == max(roots)
        deg = len(q) - 1
        assert steps[0] <= 2 * deg * deg.bit_length()

    def test_pinned_brackets(self):
        # (y - 7)(y - 3): the ceiling 7, from a huge bracket too; lo == hi
        # returns lo untested; lo above every root; no passing m gives hi
        q = _from_roots([7, 3])
        assert core._root_ceiling(q, -100, 100) == 7
        assert core._root_ceiling(q, 0, 2**200) == 7
        assert core._root_ceiling(q, 5, 5) == 5
        assert core._root_ceiling(q, 9, 40) == 9
        assert core._root_ceiling(q, -50, 4) == 4
        # y^2 - 2: ceil(sqrt 2); y^2 + 1: ceil of the real part 0
        assert core._root_ceiling([1, 0, -2], -3, 3) == 2
        assert core._root_ceiling([1, 0, 1], -3, 3) == 0

    def test_a_simple_root_costs_one_passing_test(self, monkeypatch):
        # Newton settles next to the root: one test fails at its first
        # coefficient and one passes
        seen = []
        taylor = core._taylor

        def spy(q, m):
            seen.append(m)
            return taylor(q, m)

        monkeypatch.setattr(core, "_taylor", spy)
        q = [1, 0, -2 * 10**12]  # sqrt(2) 10^6, irrational
        assert core._root_ceiling(q, 10**6, 2 * 10**6) == 1414214
        assert seen == [1414213, 1414214]
