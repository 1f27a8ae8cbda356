import random
from fractions import Fraction as F

import pytest

from nnspectra.core import (
    FloatMatrix,
    JordanSpec,
    RationalMatrix,
    Spectrum,
    char_poly,
    companion_matrix,
    determinant,
    exact_rank,
    from_float,
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
    ReconstructionError,
    SingularMatrixError,
)

from conftest import random_invertible


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


class TestFloatBridge:
    def test_decimal_roundtrip(self):
        F1 = FloatMatrix([[2.52]])
        assert from_float(F1, 100) == RationalMatrix([["63/25"]])

    def test_third_reconstructs(self):
        x = float(F(1, 3))
        assert from_float(FloatMatrix([[x]]), 10) == RationalMatrix([["1/3"]])

    def test_unrepresentable_rejected(self):
        import math

        with pytest.raises(ReconstructionError) as err:
            from_float(FloatMatrix([[math.pi]]), 10)
        assert "(0,0)" in str(err.value)

    def test_roundtrip_identity_on_exact_decimals(self):
        A = RationalMatrix([["2.52", "0.09"], ["1.34", "2"]])
        assert from_float(to_float(A), 100) == A

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            FloatMatrix([[float("nan")]])


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
        assert s.perron_simple
        assert s.order == 5

    def test_perron_not_simple_cases(self):
        assert not Spectrum.from_values([2, 2, 1]).perron_simple
        assert not Spectrum.from_values([2, -2]).perron_simple  # modulus tie
        assert not Spectrum.from_values([-2, 1]).perron_simple  # negative max

    def test_char_poly_match(self):
        s = Spectrum.from_values([1, 1, -1, -1])
        assert s.char_poly() == poly_from_roots([1, 1, -1, -1])

    def test_json_roundtrip(self):
        s = Spectrum.from_values(["3", "-1/2", "-1/2"])
        assert Spectrum.from_json(s.to_json()) == s


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
