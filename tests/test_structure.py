import random
from fractions import Fraction as F

import numpy as np
import pytest

from nnspectra.core import (
    RationalMatrix,
    char_poly,
    poly_eval,
    to_float,
)
from nnspectra import structure
from nnspectra.errors import CertificationError, DomainError
from nnspectra.structure import (
    _components,
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
    """The diagonal blocks of the Frobenius normal form are the strongly
    connected components; the condensation edges are its off-diagonal
    block pattern.  rowsum plans its block ordering from these two and the
    Perron block."""

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
            scrambled = A.submatrix(perm, perm)
            comps, edges = _components(scrambled)
            blocks = [frozenset(perm[v] for v in comp) for comp in comps]
            top, middle, bottom = frozenset({0, 1}), frozenset({2, 3, 4}), frozenset({5})
            assert sorted(blocks, key=min) == [top, middle, bottom]
            # each planted block couples into the one above it, and only there
            assert {(blocks[u], blocks[w]) for u, w in edges} == {(middle, top), (bottom, middle)}


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
        rho, vec = perron_data(RationalMatrix([[0, 2], [2, 0]]))
        assert abs(rho - 2.0) <= 1e-9
        assert np.max(np.abs(vec - 1.0)) <= 1e-9

    def test_reducible_rejected(self):
        A = RationalMatrix([[2, 0, 0], [0, 2, 0], [2, 0, 1]])
        with pytest.raises(DomainError):
            perron_data(A)

    def test_against_bisection_oracle(self):
        rng = random.Random(23)
        for _ in range(5):
            A = RationalMatrix(
                [[F(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(4)] for _ in range(4)]
            )
            rho, _ = perron_data(A)
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
            # the exact matrix whose to_float is arr^T
            rho, z = perron_data(RationalMatrix([[F(x) for x in row] for row in arr.T.tolist()]))
            assert np.max(np.abs(arr.T @ z - rho * z)) <= 1e-9 * max(1.0, rho)

    def test_residual_bound(self, monkeypatch):
        # [[2,1],[1,2]] has rho = 3 and x = (1, 1); an eigenvector returned as
        # (1, 1 - off) leaves ||A x - 3 x||_inf = off, against the bound
        # 10 * _PERRON_TOL * 3 = 3e-11
        assert structure._PERRON_TOL == 1e-12
        A = RationalMatrix([[2, 1], [1, 2]])
        for off, passes in ((1.5e-11, True), (6e-11, False)):
            vectors = np.array([[1.0, 1.0], [1.0 - off, -1.0]])
            monkeypatch.setattr(np.linalg, "eig", lambda a: (np.array([3.0, 1.0]), vectors))
            if passes:
                assert perron_data(A)[0] == 3.0
            else:
                with pytest.raises(CertificationError, match="Perron residual"):
                    perron_data(A)


class TestPerronAgreesWithExactRoot:
    def test_rho_is_largest_char_root(self):
        rng = random.Random(31)
        for _ in range(5):
            A, values = suleimanova_companion(rng, 4)
            rho, _ = perron_data(A)
            assert abs(rho - float(max(values))) <= 1e-9
