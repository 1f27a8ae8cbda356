import random
from fractions import Fraction as F

import numpy as np
import pytest

from nnspectra.core import (
    FloatMatrix,
    RationalMatrix,
    char_poly,
    permutation_matrix,
    poly_eval,
    to_float,
)
from nnspectra.errors import DomainError, IterationError
from nnspectra.structure import (
    frobenius_normal_form,
    is_irreducible,
    perron_data,
    strongly_connected_components,
)

from conftest import random_permutation, suleimanova_companion


class TestIrreducibility:
    def test_symmetric_circulant(self):
        assert is_irreducible(RationalMatrix([[0, 2], [2, 0]]))

    def test_lower_triangular(self):
        assert not is_irreducible(RationalMatrix([[1, 0], [1, 1]]))

    def test_one_by_one_zero_by_convention(self):
        assert is_irreducible(RationalMatrix([[0]]))

    def test_negative_entry_rejected(self):
        with pytest.raises(DomainError):
            is_irreducible(RationalMatrix([[0, -1], [1, 0]]))


class TestScc:
    def test_two_cycles_bridge(self) -> None:
        adj = [
            [False, True, False, False],
            [True, False, False, False],
            [False, True, False, True],
            [False, False, True, False],
        ]
        comps = strongly_connected_components(adj)
        assert sorted(map(tuple, comps)) == [(0, 1), (2, 3)]


class TestFrobeniusNormalForm:
    def test_already_in_form(self):
        A = RationalMatrix([[2, 0, 0], [1, 1, 1], [0, 2, 1]])
        form = frobenius_normal_form(A)
        assert form.permutation == (0, 1, 2)
        assert form.block_count == 2
        assert form.is_block_lower_triangular

    def test_upper_form_gets_swapped(self):
        # [[A2, A3'], [0, A1]] with the dominant block at the bottom
        A = RationalMatrix([[1, 0, 3], [0, 1, 1], [0, 0, 5]])
        form = frobenius_normal_form(A)
        assert form.permutation[0] == 2  # dominant 1x1 block first
        assert form.is_block_lower_triangular

    def test_unpermute_reproduces_input(self):
        rng = random.Random(5)
        for _ in range(10):
            A, _ = suleimanova_companion(rng, 3)
            B = RationalMatrix.from_blocks(
                [
                    [A, RationalMatrix.zeros(3, 2)],
                    [
                        RationalMatrix([[1, 0, 0], [0, 0, 0]]),
                        RationalMatrix([[0, 1], [1, 0]]),
                    ],
                ]
            )
            perm = random_permutation(rng, 5)
            P = permutation_matrix(perm)
            scrambled = P @ B @ P.transpose()
            form = frobenius_normal_form(scrambled)
            Q = permutation_matrix(form.permutation)
            assert Q @ scrambled @ Q.transpose() == form.permuted
            assert form.is_block_lower_triangular
            for block in form.diag_blocks:
                assert is_irreducible(block)

    def test_plant_and_recover_components(self):
        rng = random.Random(17)
        for _ in range(10):
            # planted 3-SCC structure on 6 vertices: sizes 2+3+1
            b1 = RationalMatrix([[0, 1], [2, 0]])
            b2, _ = suleimanova_companion(rng, 3)
            b3 = RationalMatrix([[1]])
            grid = [
                [b1, RationalMatrix.zeros(2, 3), RationalMatrix.zeros(2, 1)],
                [RationalMatrix([[1, 0], [0, 0], [0, 1]]), b2, RationalMatrix.zeros(3, 1)],
                [RationalMatrix.zeros(1, 2), RationalMatrix([[0, 1, 0]]), b3],
            ]
            A = RationalMatrix.from_blocks(grid)
            perm = random_permutation(rng, 6)
            P = permutation_matrix(perm)
            scrambled = P @ A @ P.transpose()
            form = frobenius_normal_form(scrambled)
            recovered = {
                frozenset(perm[form.permutation[i]] for i in range(a, b))
                for a, b in form.block_ranges
            }
            assert recovered == {frozenset({0, 1}), frozenset({2, 3, 4}), frozenset({5})}


def bisect_largest_root(coeffs, lo, hi, iters=80):
    """Independent oracle: largest real root of a monic polynomial by scan + bisection."""
    steps = 2000
    x_hi = hi + 1.0
    crossing = None
    for k in range(steps + 1):
        x = x_hi - (x_hi - lo) * k / steps
        if poly_eval(coeffs, F(x).limit_denominator(10**12)) <= 0:
            crossing = x
            break
    assert crossing is not None
    a, b = crossing, x_hi
    for _ in range(iters):
        mid = (a + b) / 2
        if poly_eval(coeffs, F(mid).limit_denominator(10**15)) <= 0:
            a = mid
        else:
            b = mid
    return (a + b) / 2


class TestPerronData:
    def test_symmetric_circulant(self):
        rho, vec = perron_data(to_float(RationalMatrix([[0, 2], [2, 0]])))
        assert abs(rho - 2.0) <= 1e-9
        assert np.max(np.abs(vec - 1.0)) <= 1e-9

    def test_reducible_rejected(self):
        A = RationalMatrix([[2, 0, 0], [0, 2, 0], [2, 0, 1]])
        with pytest.raises(DomainError):
            perron_data(to_float(A))

    def test_against_bisection_oracle(self):
        rng = random.Random(23)
        for _ in range(5):
            A = RationalMatrix(
                [[F(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(4)] for _ in range(4)]
            )
            rho, _ = perron_data(to_float(A))
            coeffs = char_poly(A)
            sums = [float(s) for s in A.row_sums()]
            oracle = bisect_largest_root(coeffs, min(sums) - 1.0, max(sums))
            assert abs(rho - oracle) <= 1e-9

    def test_left_vector_residual(self):
        rng = random.Random(29)
        for _ in range(5):
            A = RationalMatrix(
                [[F(rng.randint(1, 5), 2) for _ in range(3)] for _ in range(3)]
            )
            arr = to_float(A).array
            rho, z = perron_data(FloatMatrix(arr.T))
            assert np.max(np.abs(arr.T @ z - rho * z)) <= 1e-9 * max(1.0, rho)

    def test_nonconvergence_budget(self):
        A = RationalMatrix([[1, 2], [3, 4]])
        with pytest.raises(IterationError):
            perron_data(to_float(A), tol=1e-12, max_iter=1)


class TestPerronAgreesWithExactRoot:
    def test_rho_is_largest_char_root(self):
        rng = random.Random(31)
        for _ in range(5):
            A, values = suleimanova_companion(rng, 4)
            rho, _ = perron_data(to_float(A))
            assert abs(rho - float(max(values))) <= 1e-9
