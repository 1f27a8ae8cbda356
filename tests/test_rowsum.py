import hashlib
import json
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from nnspectra.cli import dispatch
from nnspectra.core import (
    FloatMatrix,
    RationalMatrix,
    Spectrum,
    _taylor,
    char_poly,
    determinant,
    inverse,
    kernel,
    matrix_to_json,
    poly_eval,
    solve,
    to_float,
)
from nnspectra.errors import (
    CertificationError,
    CouplingError,
    DimensionError,
    DomainError,
    ModeError,
    PerronNotSimple,
    SpectralDominanceError,
    UnsupportedLayoutError,
)
from nnspectra import core, perturb, rowsum
from nnspectra.bonding import smigoc_bond
from nnspectra.family5 import (
    GAMMA2_LEFT,
    GAMMA2_REALIZATION,
    GAMMA2_RIGHT,
    _auto_d1,
    companion4,
    diagonalizable_realization,
    make_point,
)
from nnspectra.jcfcert import jordan_spec
from nnspectra.structure import _components, is_irreducible, perron_data
from nnspectra.perturb import _add_rank_one, _check_rank_one, rank_one_shift, ur_shift
from nnspectra.rowsum import (
    _verify_exact,
    _verify_float,
    constant_row_sum_value,
    lemma1_lift,
    lemma2_coupling,
    similarity_to_transpose,
    to_constant_row_sums,
)

from test_core import _from_sympy, _to_sympy
from conftest import (
    bisect_root_ceiling,
    block_layout,
    diag_conjugate,
    entangled_transposed,
    integer_poly,
    random_layout_realization,
    random_realization_with_rational_spectrum,
    scramble,
    suleimanova_companion,
)


class TestLemma1Lift:
    def test_scalar_slice(self):
        # A = [[2,0],[2,1]] slice of the double-root 3x3: y = (2-1)^-1 * 2 = 2
        x, B = lemma1_lift(
            RationalMatrix([[2]]), RationalMatrix([[1]]), RationalMatrix([[2]])
        )
        assert x == (F(1), F(2))
        assert B == RationalMatrix([[2, 0], [1, 1]])
        # the full 3x3 with a double Perron root still has a positive eigenvector
        A = RationalMatrix([[2, 0, 0], [0, 2, 0], [2, 0, 1]])
        assert A.mat_vec((1, 1, 2)) == (2, 2, 4)

    def test_zero_block_a2(self):
        A1 = RationalMatrix([[1, 1], [1, 1]])  # CS_2
        A2 = RationalMatrix([[0]])
        A3 = RationalMatrix([[1, 1]])
        x, B = lemma1_lift(A1, A2, A3)
        assert x == (F(1), F(1), F(1))  # y = A3 e / lambda = 2/2
        assert B.row_sums() == (F(2), F(2), F(2))

    def test_random_conforming_blocks_give_exact_eigenvector(self):
        rng = random.Random(19)
        for _ in range(20):
            n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
            lam = F(5)
            A1 = _random_cs_block(rng, n1, lam)
            A2, _ = suleimanova_companion(rng, n2) if n2 > 1 else (
                RationalMatrix([[F(rng.randint(0, 2))]]),
                None,
            )
            # keep rho(A2) <= 3 via a row-sum bound
            A2 = _cap_row_sums(A2, F(3))
            A3 = RationalMatrix(
                [[F(rng.randint(0, 2)) for _ in range(n1)] for _ in range(n2)]
            )
            if all(v == 0 for row in A3.entries() for v in row):
                A3 = RationalMatrix(
                    [[1] + [0] * (n1 - 1)] + [[0] * n1 for _ in range(n2 - 1)]
                )
            x, B = lemma1_lift(A1, A2, A3)
            A = RationalMatrix.from_blocks(
                [[A1, RationalMatrix.zeros(n1, n2)], [A3, A2]]
            )
            assert A.mat_vec(x) == tuple(lam * v for v in x)
            assert B.row_sums() == tuple([lam] * (n1 + n2))

    def test_zero_coupling_rejected(self):
        with pytest.raises(DomainError):
            lemma1_lift(
                RationalMatrix([[2]]),
                RationalMatrix([[1]]),
                RationalMatrix([[0]]),
            )

    def test_dominance_violation(self):
        with pytest.raises(SpectralDominanceError):
            lemma1_lift(
                RationalMatrix([[2]]),
                RationalMatrix([[5]]),
                RationalMatrix([[1]]),
            )

    def test_corrupted_lift_refused(self, monkeypatch):
        # a lift factor twice the solution y leaves the lifted rows off lambda1
        real = rowsum._lift_factor

        def doubled(*args):
            y = real(*args)
            return rowsum._Ints([2 * v for v in y], y.den)

        monkeypatch.setattr(rowsum, "_lift_factor", doubled)
        with pytest.raises(CertificationError, match="lift produced a matrix outside CS form"):
            lemma1_lift(RationalMatrix([[2]]), RationalMatrix([[1]]), RationalMatrix([[2]]))

    @pytest.mark.parametrize(
        "A1, A2, A3, error, message",
        [
            ([[1, 2], [0, 1]], [[1]], [[1, 1]], DomainError, "A1 is not in constant-row-sum form"),
            ([[2]], [[-1]], [[1]], DomainError, "blocks must be nonnegative"),
            ([[3]], [[1, 0], [0, 1]], [[1], [1]], DomainError, "A2 must be irreducible"),
            ([[3]], [[1]], [[1, 1]], DimensionError, "A3 must be"),
            ([[2]], [[2]], [[1]], SpectralDominanceError, r"lift: \(lambda1 I - K\) is singular"),
        ],
        ids=["a1-not-cs", "negative-block", "reducible-a2", "a3-shape", "singular-lift"],
    )
    def test_refusals(self, A1, A2, A3, error, message):
        with pytest.raises(error, match=message):
            lemma1_lift(RationalMatrix(A1), RationalMatrix(A2), RationalMatrix(A3))


class TestConstantRowSum:
    """constant_row_sum_value is the one CS test: it agrees with the Fraction
    rule, and each site that asks "does every row sum to lambda?" refuses a
    matrix with one middle row off by the smallest step of its denominator."""

    # a circulant in CS_(6/d) form, d = 2^107 - 1, with a simple Perron root
    D = 2**107 - 1
    B = RationalMatrix([[1, 2, 3], [3, 1, 2], [2, 3, 1]]).scale(F(1, D))

    @staticmethod
    def _off_by_one_step(X):
        """X with entry (1, 1) raised by 1 / X.den."""
        rows = [list(row) for row in X.entries()]
        rows[1][1] += F(1, X.den)
        return RationalMatrix(rows)

    def test_agrees_with_the_fraction_rule(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        den = st.sampled_from([1, 2, 6, 2**101 + 1, 3**70]) | st.integers(1, 2**120)
        entry = st.builds(F, st.integers(-(10**40), 10**40), den)

        @hypothesis.settings(max_examples=150, deadline=None, database=None)
        @hypothesis.given(
            data=st.data(), rows=st.integers(1, 5), cols=st.integers(1, 5),
            shape=st.sampled_from(["free", "cs", "off"]),
        )
        def check(data, rows, cols, shape):
            entries = [[data.draw(entry) for _ in range(cols)] for _ in range(rows)]
            if shape != "free":
                # the last column completes each row to the first row's sum
                for row in entries[1:]:
                    row[-1] += sum(entries[0]) - sum(row)
            if shape == "off":
                # one row moved by the smallest step of the denominator
                i, j = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))
                entries[i][j] += F(1, math.lcm(*(v.denominator for row in entries for v in row)))
            sums = [sum(row, F(0)) for row in entries]
            want = sums[0] if all(x == sums[0] for x in sums) else None
            got = constant_row_sum_value(RationalMatrix(entries))
            assert got == want and type(got) is type(want)

        check()

    def test_verify_exact(self):
        S = RationalMatrix.identity(3)
        _verify_exact(self.B, self.B, S, F(6, self.D))
        with pytest.raises(CertificationError, match="result is not in CS form"):
            _verify_exact(self.B, self._off_by_one_step(self.B), S, F(6, self.D))

    def test_lemma1_lift(self, monkeypatch):
        # [[A1, 0], [A3, A2]] with A1 = B (CS_(6/d)), A2 = [[0]], A3 = [[1/d, 0, 0]]
        A2, A3 = RationalMatrix([[0]]), RationalMatrix([[F(1, self.D), 0, 0]])
        lemma1_lift(self.B, A2, A3)
        real = rowsum._scale

        def bumped(M, S, a, vec):
            real(M, S, a, vec)
            M[1][1] += 1  # 1 / M.den

        monkeypatch.setattr(rowsum, "_scale", bumped)
        with pytest.raises(CertificationError, match="lift produced a matrix outside CS form"):
            lemma1_lift(self.B, A2, A3)

    def test_rank_one_shift(self):
        q = (F(1, 3),) * 3
        assert constant_row_sum_value(rank_one_shift(self.B, q)) == F(6, self.D) + 1
        with pytest.raises(DomainError, match="B is not in constant-row-sum form"):
            rank_one_shift(self._off_by_one_step(self.B), q)

    def test_check_rank_one(self):
        # the shifted matrix differs from B by exactly e q^T, so when a middle
        # row of B is off, the same row of the shifted matrix is off too
        q, moved = (F(1, 3),) * 3, F(6, self.D) + 1
        _check_rank_one(self.B, _add_rank_one(self.B, q), q, moved, "B + e q^T")
        B = self._off_by_one_step(self.B)
        with pytest.raises(CertificationError, match="a row of the shifted matrix does not sum to"):
            _check_rank_one(B, _add_rank_one(B, q), q, moved, "B + e q^T")


def _random_cs_block(rng, n, lam):
    """Random nonnegative n x n with every row summing to lam exactly."""
    rows = []
    for _ in range(n):
        cuts = sorted(rng.randint(0, 8) for _ in range(n - 1))
        raw = [a - b for a, b in zip(cuts + [8], [0] + cuts)]
        total = sum(raw)
        if total == 0:
            raw[0] = 1
            total = 1
        rows.append([F(v) * lam / total for v in raw])
    return RationalMatrix(rows)


def _cap_row_sums(A, cap):
    sums = A.row_sums()
    worst = max(sums)
    if worst <= cap:
        return A
    return A.scale(cap / worst)


class TestLemma2Coupling:
    def test_scalar_case(self):
        S, A3 = lemma2_coupling(RationalMatrix([[2]]), RationalMatrix([[1]]), z=[1])
        assert A3 == RationalMatrix([[1]])
        assert S == RationalMatrix([[1, 0], [-1, 1]])

    def test_circulant_block(self):
        S, A3 = lemma2_coupling(
            RationalMatrix([[0, 2], [2, 0]]), RationalMatrix([[1]]), z=[1, 1]
        )
        assert A3 == RationalMatrix([[1, 1]])
        # direct check of the shear identity on diag(A1, A2)
        A = RationalMatrix([[0, 2, 0], [2, 0, 0], [0, 0, 1]])
        coupled = solve(S, A @ S)
        assert coupled == RationalMatrix([[0, 2, 0], [2, 0, 0], [1, 1, 1]])

    def test_rows_all_equal(self):
        rng = random.Random(37)
        for _ in range(20):
            n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
            A1 = _random_cs_block(rng, n1, F(4))
            A2 = _random_cs_block(rng, n2, F(rng.randint(1, 3)))
            if not _is_irreducible_safe(A2):
                continue
            S, A3 = lemma2_coupling(A1, A2)
            first = A3.row(0)
            assert all(A3.row(i) == first for i in range(A3.rows))

    def test_equal_radius_is_coupling_error(self):
        with pytest.raises(CouplingError):
            lemma2_coupling(RationalMatrix([[2]]), RationalMatrix([[2]]), z=[1])

    def test_negative_z_rejected(self):
        with pytest.raises(DomainError):
            lemma2_coupling(RationalMatrix([[2]]), RationalMatrix([[1]]), z=[-1])

    @pytest.mark.parametrize(
        "A1, A2, z, error, message",
        [
            ([[1, 2], [0, 1]], [[1]], None, DomainError, "A1 is not in constant-row-sum form"),
            ([[3]], [[1, 2], [1, 0]], None, DomainError, "A2 is not in constant-row-sum form"),
            ([[3]], [[1, 0], [0, 1]], None, DomainError, "A2 must be irreducible"),
            ([[1]], [[2]], [1], SpectralDominanceError, r"rho\(A2\) exceeds lambda1"),
            ([[2]], [[1]], [1, 1], DimensionError, "z has wrong length"),
            ([[2]], [[1]], [0], DomainError, "z is zero"),
            ([[1, 1], [2, 0]], [[1]], [1, 1], DomainError, "z is not a left eigenvector"),
        ],
        ids=["a1-not-cs", "a2-not-cs", "reducible-a2", "dominance", "z-length", "z-zero", "z-not-left"],
    )
    def test_refusals(self, A1, A2, z, error, message):
        with pytest.raises(error, match=message):
            lemma2_coupling(RationalMatrix(A1), RationalMatrix(A2), z=z)


def _is_irreducible_safe(A):
    from nnspectra.structure import is_irreducible

    return is_irreducible(A)


class TestToConstantRowSums:
    def test_double_perron_root_rejected(self):
        A = RationalMatrix([[2, 0, 0], [0, 2, 0], [2, 0, 1]])
        with pytest.raises(PerronNotSimple):
            to_constant_row_sums(A, mode="exact")

    def test_jordan_witness_rejected(self):
        with pytest.raises(PerronNotSimple):
            to_constant_row_sums(RationalMatrix([[1, 0], [1, 1]]), mode="exact")

    def test_diag_scramble_of_triangular(self):
        rng = random.Random(41)
        base = RationalMatrix([[3, 0], [1, 1]])
        for _ in range(10):
            A = scramble(rng, base)
            result = to_constant_row_sums(A, mode="exact")
            assert result.B.row_sums() == (F(3), F(3))
            assert solve(result.S, A @ result.S) == result.B
            assert result.B == RationalMatrix([[3, 0], [2, 1]])

    def test_irreducible_positive_float_mode(self):
        rng = random.Random(43)
        arr = [[F(rng.randint(1, 9), 2) for _ in range(4)] for _ in range(4)]
        A = RationalMatrix(arr)
        result = to_constant_row_sums(A, mode="float")
        sums = result.B.array @ np.ones(4)
        assert np.max(np.abs(sums - result.lam)) <= 1e-9 * max(1.0, result.lam)

    def test_char_poly_preserved_and_nonneg(self):
        rng = random.Random(47)
        for _ in range(40):
            A, spectrum = random_realization_with_rational_spectrum(rng)
            result = to_constant_row_sums(A, mode="exact")
            assert result.B.is_nonnegative
            assert char_poly(result.B) == char_poly(A)
            lam = spectrum.perron
            assert result.B.row_sums() == tuple([lam] * A.rows)
            assert solve(result.S, A @ result.S) == result.B

    def test_jordan_structure_preserved(self):
        rng = random.Random(53)
        for _ in range(15):
            A, spectrum = random_realization_with_rational_spectrum(rng)
            result = to_constant_row_sums(A, mode="exact")
            assert jordan_spec(result.B, spectrum) == jordan_spec(A, spectrum)

    def test_irrational_perron_exact_mode_error(self):
        A = RationalMatrix([[0, 2], [1, 0]])  # rho = sqrt(2)
        with pytest.raises(ModeError):
            to_constant_row_sums(A, mode="exact")

    def test_irrational_perron_auto_falls_to_float(self):
        A = RationalMatrix([[0, 2], [1, 0]])
        result = to_constant_row_sums(A, mode="auto")
        assert result.mode == "float"
        assert result.transcript[0].kind == "float-mode"
        sums = result.B.array @ np.ones(2)
        assert np.max(np.abs(sums - result.lam)) <= 1e-9

    def test_reducible_float_mode(self):
        # irrational Perron root in a chained layout
        A = RationalMatrix([[0, 2, 0], [1, 0, 0], [1, 1, 1]])
        result = to_constant_row_sums(A, mode="float")
        sums = result.B.array @ np.ones(3)
        assert np.max(np.abs(sums - np.sqrt(2))) <= 1e-9

    def test_bottom_perron_via_sylvester_decoupling(self):
        A = RationalMatrix([[1, 0], [1, 2]])
        result = to_constant_row_sums(A, mode="exact")
        assert result.transcript[0].kind == "sylvester-decoupling"
        assert result.B.row_sums() == (F(2), F(2))
        assert solve(result.S, A @ result.S) == result.B

    def test_shared_eigenvalue_falls_back_to_transpose(self):
        # R = [[0,c],[1/c,0]] and P = [[1,2],[2,1]] share the eigenvalue -1,
        # so the Sylvester system of the decoupling is singular; the
        # transpose path still certifies, and float mode, which has no
        # fallback, refuses, also for c = 1/3 and 3/10, where the float
        # system is singular only numerically (condition numbers about
        # 5e18 and 2e17, past numpy's rank rule)
        for c in (F(1), F(1, 3), F(3, 10)):
            A = RationalMatrix([[0, c, 0, 0], [1 / c, 0, 0, 0], [1, 0, 1, 2], [0, 0, 2, 1]])
            result = to_constant_row_sums(A, mode="exact")
            assert result.transcript[0].kind == "transpose-similarity"
            assert result.lam == 3 and result.B.is_nonnegative
            assert solve(result.S, A @ result.S) == result.B
            with pytest.raises(UnsupportedLayoutError, match="singular Sylvester system"):
                to_constant_row_sums(A, mode="float")

    def test_entangled_layout_with_disjoint_spectra(self):
        # P = [[1,2],[2,1]] feeds L = [1/2] and is fed by H = [1]; H reaches
        # P, so it is decoupled from L along with P, where the transpose path
        # found no plan in either direction
        A = RationalMatrix([["1/2", 0, 0, 0], [1, 1, 2, 0], [0, 2, 1, 0], [0, 0, 1, 1]])
        exact = to_constant_row_sums(A, mode="exact")
        assert exact.transcript[0].to_json() == {
            "kind": "sylvester-decoupling",
            "detail": {"perron-side": [1, 2, 3], "decoupled": [0]},
        }
        assert exact.lam == 3 and exact.B.is_nonnegative
        assert solve(exact.S, A @ exact.S) == exact.B
        approx = to_constant_row_sums(A, mode="float")
        assert [s.kind for s in approx.transcript[1:]] == [s.kind for s in exact.transcript]
        assert np.max(np.abs(approx.B.array - to_float(exact.B).array)) <= 1e-12

    def test_middle_perron_unsupported(self):
        # Perron block feeds an earlier block AND is fed by a later one: in A
        # and in A^T alike, one outer block is on the Perron side and the
        # other is not, and both have the eigenvalue 1
        A = RationalMatrix([[1, 0, 0], [1, 2, 0], [0, 1, 1]])
        with pytest.raises(UnsupportedLayoutError, match="both in A and in A\\^T"):
            to_constant_row_sums(A, mode="exact")

    def test_transposed_layout_needing_a_decoupling(self):
        # X = [1] -> P = [3] -> Z = [2], and an isolated Y = [1]: the Perron
        # side {P, X} of A shares 1 with {Z, Y}; on A^T the Perron side is
        # {P, Z}, disjoint from {X, Y}, so the transpose is decoupled
        A = RationalMatrix([[3, 0, 1, 0], [1, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]])
        result = to_constant_row_sums(A, mode="exact")
        kinds = [s.kind for s in result.transcript]
        assert kinds[:2] == ["transpose-similarity", "sylvester-decoupling"]
        assert result.lam == 3
        _sympy_certifies(A, result)
        with pytest.raises(UnsupportedLayoutError, match="singular Sylvester system"):
            to_constant_row_sums(A, mode="float")

    def test_trivial_sizes(self):
        assert to_constant_row_sums(RationalMatrix([[0]]), mode="exact").B == RationalMatrix([[0]])
        assert to_constant_row_sums(RationalMatrix([[5]]), mode="exact").lam == 5

    def test_one_by_one_beyond_float_reconstruction(self):
        # the entry sits 1e-13 above 1, so no float estimate rationalizes to
        # it; the Perron root of a 1x1 matrix is its entry
        A = RationalMatrix([["10000000000001/10000000000000"]])
        for mode in ("exact", "auto"):
            result = to_constant_row_sums(A, mode=mode)
            assert result.mode == "exact"
            assert result.lam == F(10**13 + 1, 10**13)
            assert result.B == A

    @pytest.mark.parametrize(
        "entries",
        [
            [["11/5", "1/5"], ["1/5", "11/5"]],
            [["12/5", 0], [1, 2]],
            [[2, 0], [1, "12/5"]],
            [["12/5", 0], [0, 2]],
        ],
        ids=["irreducible", "chain", "transpose", "isolated"],
    )
    def test_ladder_skips_a_smaller_eigenvalue(self, entries):
        # rho = 12/5 rationalizes to 2 at denominator 1, and 2 is another
        # eigenvalue; the ladder must not stop there
        A = RationalMatrix(entries)
        for mode in ("exact", "auto"):
            result = to_constant_row_sums(A, mode=mode)
            assert result.mode == "exact"
            assert result.lam == F(12, 5)
            assert result.B.is_nonnegative and result.B.row_sums() == (F(12, 5),) * 2

    @pytest.mark.parametrize(
        "entries, rho",
        [
            ([[F(1, 10000019), F(1, 3)], [F(1, 3), F(1, 10000019)]], F(10000022, 30000057)),
            ([[3, 0, 0], [1, "H", "H"], [0, "H", "H"]], F(3)),
            ([["H", "H", 0], ["H", "H", 0], [0, 1, 3]], F(3)),
            ([["L", 0], [1, F(1, 2)]], F(10**13 + 1, 10**13)),
            ([[F(1, 2), 0], [1, "L"]], F(10**13 + 1, 10**13)),
        ],
        ids=["irreducible", "block-radius", "block-radius-transpose", "chain", "transpose"],
    )
    def test_rational_radius_far_from_short_fractions(self, entries, rho):
        # H = (10^13+1)/(2 10^13), so the lower block of the second layout has
        # the rational radius 2H; L sits 1e-13 above 1
        named = {"H": F(10**13 + 1, 2 * 10**13), "L": F(10**13 + 1, 10**13)}
        A = RationalMatrix([[named.get(v, v) for v in row] for row in entries])
        for mode in ("exact", "auto"):
            result = to_constant_row_sums(A, mode=mode)
            assert result.mode == "exact"
            assert result.lam == rho
            assert result.B.is_nonnegative and result.B.row_sums() == (rho,) * A.rows
            assert solve(result.S, A @ result.S) == result.B

    def test_irrational_block_radius(self):
        A = RationalMatrix([[3, 0, 0], [1, 0, 2], [0, 1, 0]])  # lower block: sqrt(2)
        with pytest.raises(ModeError, match="a diagonal block has an irrational spectral radius"):
            to_constant_row_sums(A, mode="exact")
        result = to_constant_row_sums(A, mode="auto")
        assert result.mode == "float" and result.lam == 3.0

    def test_float_one_by_one(self):
        blob = to_constant_row_sums(RationalMatrix([[5]]), mode="float").to_json()
        assert blob["lambda"] == "5.0"
        assert blob["B"] == [["5.0"]] and blob["S"] == [["1.0"]]
        assert [s["kind"] for s in blob["transcript"]] == ["float-mode", "diagonal-scaling"]

    @pytest.mark.parametrize(
        "A",
        [FloatMatrix(np.array([[0.0, 2.0], [1.0, 0.0]])), [[0, 2], [1, 0]]],
        ids=["FloatMatrix", "list"],
    )
    def test_only_exact_matrices_are_taken(self, A):
        # float mode converts its exact input itself: no normalization or
        # digraph entry point takes a FloatMatrix, or rows that are not a
        # RationalMatrix
        for mode in ("exact", "float", "auto"):
            with pytest.raises(DomainError, match="input must be a RationalMatrix"):
                to_constant_row_sums(A, mode=mode)
        for entry in (perron_data, is_irreducible):
            with pytest.raises(DomainError, match="digraph structure needs a RationalMatrix"):
                entry(A)

    @pytest.mark.parametrize(
        "witness, rho",
        [([[1, 0], [1, 1]], 1), ([[2, 0, 0], [0, 2, 0], [2, 0, 1]], 2)],
        ids=["jordan", "double"],
    )
    def test_float_mode_rejects_witnesses(self, witness, rho):
        with pytest.raises(PerronNotSimple) as info:
            to_constant_row_sums(RationalMatrix(witness), mode="float")
        assert str(info.value) == (
            "Perron root %d is not numerically simple (2 eigenvalues within 1e-9)" % rho
        )

    def test_spectra_mode_env_default(self, monkeypatch, tmp_path):
        # no environment variable chooses the mode: the default is auto
        monkeypatch.setenv("SPECTRA_MODE", "float")
        assert to_constant_row_sums(RationalMatrix([[3, 0], [1, 1]])).mode == "exact"
        infile, out = tmp_path / "A.json", tmp_path / "out.json"
        infile.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [["3", "0"], ["1", "1"]]}))
        assert dispatch(["normalize", "--in", str(infile), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["mode"] == "exact"
        A = RationalMatrix([[0, 2], [1, 0]])  # irrational Perron root
        assert to_constant_row_sums(A).mode == "float"  # auto falls back
        with pytest.raises(DomainError):
            to_constant_row_sums(A, mode="fast")


# sha256 over the first 60 exact results of random_realization_with_rational_spectrum
# (seed 2024); pins B, S, lambda and the transcript across changes to the loop
EXACT_GOLDEN_SHA256 = "08647676827b723a7045a6ec66474f54538e8662def981a7c11a505c5569837e"


def test_exact_results_match_golden_digest():
    rng = random.Random(2024)
    digest = hashlib.sha256()
    for _ in range(60):
        A, _ = random_realization_with_rational_spectrum(rng)
        blob = to_constant_row_sums(A, mode="exact").to_json()
        digest.update(json.dumps(blob, sort_keys=True).encode())
    assert digest.hexdigest() == EXACT_GOLDEN_SHA256


def test_results_are_built_in_lowest_terms_without_a_second_gcd():
    # B and S leave the loop through ops.result, as _lowest left them;
    # _of_ints of the same rows, which reduces again, finds nothing to reduce
    rng = random.Random(2024)
    inputs = [random_realization_with_rational_spectrum(rng)[0] for _ in range(60)]
    inputs += _transpose_path_inputs()[-2:]
    for A in inputs:
        result = to_constant_row_sums(A, mode="exact")
        for M in (result.B, result.S):
            again = RationalMatrix._of_ints(M.num, M.den)
            assert (again.num, again.den) == (M.num, M.den)


def test_verify_exact_rejects_singular_similarity():
    # S = 0 satisfies A S = S B for every B, so the check must also ask det S != 0
    B = RationalMatrix([[1, 2], [3, 0]])
    with pytest.raises(CertificationError):
        _verify_exact(B, B, RationalMatrix.zeros(2, 2), F(3))


def test_verify_exact_rejects_negative_and_non_cs_results():
    # A = S B S^-1 for each B, so only the sign and row-sum checks can refuse
    S = RationalMatrix([[1, 1], [0, 1]])
    for B, message in (
        (RationalMatrix([[4, -1], [1, 2]]), "negative entry"),
        (RationalMatrix([[1, 2], [3, 1]]), "not in CS form"),
    ):
        A = S @ B @ inverse(S)
        with pytest.raises(CertificationError, match=message):
            _verify_exact(A, B, S, F(3))


class TestVerifyFloat:
    """Each of _verify_float's three refusals, on a result corrupted in the
    one way it checks; A = [[1, 2], [3, 0]] is in CS_3 form, spectrum {3, -2}."""

    A = np.array([[1.0, 2.0], [3.0, 0.0]])

    def test_the_true_result_passes(self):
        _verify_float(self.A, self.A, np.eye(2), 3.0)

    def test_negative_entry_refused(self):
        # B = S^-1 A S for S = [[2, -1], [0, 1]], with S e = e: similar to A,
        # rows summing to 3, and the entries -1 and -3
        S = np.array([[2.0, -1.0], [0.0, 1.0]])
        B = np.linalg.solve(S, self.A @ S)
        assert np.allclose(B, [[4.0, -1.0], [6.0, -3.0]])
        with pytest.raises(CertificationError, match="significantly negative entry"):
            _verify_float(self.A, B, S, 3.0)

    def test_row_sums_off_lambda_refused(self):
        # B = S^-1 A S = [[1, 4], [3/2, 0]] for S = diag(1, 2): similar to A
        # and nonnegative, with rows summing to 5 and 3/2
        S = np.diag([1.0, 2.0])
        B = np.array([[1.0, 4.0], [1.5, 0.0]])
        with pytest.raises(CertificationError, match="float row sums deviate beyond 1e-9"):
            _verify_float(self.A, B, S, 3.0)

    def test_similarity_residual_refused(self):
        # [[2, 1], [3, 0]] is nonnegative in CS_3 form, with spectrum {3, -1}
        B = np.array([[2.0, 1.0], [3.0, 0.0]])
        with pytest.raises(CertificationError, match="float similarity residual"):
            _verify_float(self.A, B, np.eye(2), 3.0)

    @pytest.mark.parametrize("mode", ["float", "auto"])
    def test_strongly_graded_input_refused(self, mode):
        # the Perron vector is about (1, 1e-18, 1e-9); perron_eig is only
        # normwise accurate, so the scaled rows miss lambda1 by more than 1e-9
        A = RationalMatrix([["2", "1", "0"], ["0", "1", "1e-9"], ["1e-9", "0", "1"]])
        with pytest.raises(CertificationError, match="float row sums deviate beyond 1e-9"):
            to_constant_row_sums(A, mode=mode)


def _verify_outcome(A, B, S, lam):
    try:
        _verify_exact(A, B, S, lam)
    except CertificationError as exc:
        return str(exc)
    return None


def test_verify_exact_integer_form_hypothesis():
    # the integer identity b A'S' = a S'B' against the Fraction products,
    # on triples with B >= 0 in CS form and S invertible; denominators
    # include large coprime primes, so the lcms a and b are huge
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    den = st.sampled_from([1, 2, 3, 7, 10**9 + 7, 10**12 + 39, 2**61 - 1]) | st.integers(1, 10**6)
    entry = st.builds(F, st.integers(-10**6, 10**6), den)

    @hypothesis.settings(max_examples=80, deadline=None, database=None)
    @hypothesis.given(data=st.data(), n=st.integers(1, 4), similar=st.booleans())
    def check(data, n, similar):
        rows = [[abs(data.draw(entry)) for _ in range(n)] for _ in range(n)]
        lam = max(map(sum, rows)) + 1
        for row in rows:
            row[-1] += lam - sum(row)
        B = RationalMatrix(rows)
        S = RationalMatrix([[data.draw(entry) for _ in range(n)] for _ in range(n)])
        hypothesis.assume(determinant(S) != 0)
        A = S @ B @ inverse(S)
        if not similar:
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            rows = [list(row) for row in A.entries()]
            rows[i][j] += data.draw(entry)
            A = RationalMatrix(rows)
        want = None if A @ S == S @ B else "similarity verification failed"
        assert _verify_outcome(A, B, S, lam) == want
        if n > 1:
            # one entry of B mutated, and the change taken back from the last
            # entry of its row (>= 1), so B stays nonnegative in CS form;
            # S (B' - B) != 0 for invertible S
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 2))
            moved = [list(row) for row in B.entries()]
            moved[i][j] += moved[i][-1] / 2
            moved[i][-1] /= 2
            assert _verify_outcome(S @ B @ inverse(S), RationalMatrix(moved), S, lam) == (
                "similarity verification failed"
            )

    check()


@pytest.mark.parametrize(
    "layout, n, first", [("chain", 48, "permutation"), ("bottom", 36, "sylvester-decoupling")]
)
def test_exact_normalization_at_scale(layout, n, first):
    # orders past the small layouts: A S = S B by Fraction loops over the
    # Fraction entries, independent of _verify_exact's integer rows (a zero
    # term is skipped, which changes no sum)
    A, values = block_layout(random.Random(39), n, layout)
    result = to_constant_row_sums(A, mode="exact")
    assert result.mode == "exact" and result.transcript[0].kind == first
    lam = max(values)
    assert result.lam == lam
    a, s, b = A.entries(), result.S.entries(), result.B.entries()
    assert all(v >= 0 for row in b for v in row) and all(sum(row) == lam for row in b)

    def product(X, Y):
        return [[sum((x * y[j] for x, y in zip(row, Y) if x), F(0)) for j in range(n)] for row in X]

    assert product(a, s) == product(s, b)


def test_float_mode_follows_exact_mode():
    rng = random.Random(2031)
    layouts = set()
    for _ in range(72):
        A, _, layout = random_layout_realization(rng)
        layouts.add(layout)
        exact = to_constant_row_sums(A, mode="exact")
        approx = to_constant_row_sums(A, mode="float")
        B = to_float(exact.B).array
        norm = max(1.0, float(np.max(np.sum(np.abs(B), axis=1))))
        assert np.max(np.abs(approx.B.array - B)) <= 1e-9 * norm
        assert approx.transcript[0].kind == "float-mode"
        assert [s.kind for s in approx.transcript[1:]] == [s.kind for s in exact.transcript]
    assert layouts == {"irreducible", "chain", "isolated", "mixed", "cluster", "bottom"}


def _layout_inputs(layouts, count):
    rng = random.Random(2031)
    picked = []
    while len(picked) < count:
        A, _, layout = random_layout_realization(rng)
        if layout in layouts:
            picked.append((layout, A))
    return picked


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_left_vector_taken_once_from_perron_block(monkeypatch, mode):
    ops = rowsum._ExactOps if mode == "exact" else rowsum._FloatOps
    calls, plans = [], []
    real_left, real_plan = ops.left_vector, rowsum._plan_from_graph

    def left_spy(B, lam):
        calls.append((B, lam))
        return real_left(B, lam)

    def plan_spy(*args):
        plan = real_plan(*args)
        plans.append(plan)
        return plan

    monkeypatch.setattr(ops, "left_vector", staticmethod(left_spy))
    monkeypatch.setattr(rowsum, "_plan_from_graph", plan_spy)
    seen, most = set(), 0
    for layout, A in _layout_inputs({"isolated", "cluster", "mixed"}, 36):
        calls.clear()
        plans.clear()
        result = to_constant_row_sums(A, mode=mode)
        couplings = sum(s.kind.startswith("lemma2-coupling") for s in result.transcript)
        most = max(most, couplings)
        assert len(calls) == (1 if couplings else 0)
        if calls:
            seen.add(layout)
            (B, lam), p = calls[0], plans[-1][1][0][3]
            if mode == "exact":
                assert (B.rows, B.cols) == (p, p)
                assert B.row_sums() == (lam,) * p  # the scaled Perron block
            else:
                assert B.shape == (p, p)
                assert np.max(np.abs(B.sum(axis=1) - lam)) <= 1e-9 * lam
    assert seen == {"isolated", "cluster", "mixed"}
    assert most >= 2


def _eig_spy(monkeypatch):
    """Record the arrays np.linalg.eig is called on, and the Perron vectors
    rowsum takes from it."""
    arrays, vectors = [], []
    real_eig, real_perron = np.linalg.eig, rowsum.perron_eig

    def eig(a):
        arrays.append(a)
        return real_eig(a)

    def perron(a):
        out = real_perron(a)
        vectors.append(out[2])
        return out

    monkeypatch.setattr(np.linalg, "eig", eig)
    monkeypatch.setattr(rowsum, "perron_eig", perron)
    return arrays, vectors


# [[0,2],[2,0]] (eigenvalues 2, -2) and a 3-cycle (rho = 6^(1/3), with two
# complex eigenvalues of the same modulus) have several eigenvalues on the
# spectral circle; each is tried alone, and as the Perron block of a chain
# (coupled) and of an isolated layout (which needs the left vector)
IMPRIMITIVE = {
    "swap": ([[0, 2], [2, 0]], 2.0),
    "swap-chain": ([[0, 2, 0], [2, 0, 0], [1, 0, 1]], 2.0),
    "swap-isolated": ([[0, 2, 0], [2, 0, 0], [0, 0, 1]], 2.0),
    "cycle": ([[0, 1, 0], [0, 0, 2], [3, 0, 0]], 6 ** (1 / 3)),
    "cycle-chain": ([[0, 1, 0, 0], [0, 0, 2, 0], [3, 0, 0, 0], [0, 1, 0, 1]], 6 ** (1 / 3)),
    "cycle-isolated": ([[0, 1, 0, 0], [0, 0, 2, 0], [3, 0, 0, 0], [0, 0, 0, 1]], 6 ** (1 / 3)),
}


@pytest.mark.parametrize("name", sorted(IMPRIMITIVE))
def test_float_mode_on_imprimitive_blocks(monkeypatch, name):
    entries, rho = IMPRIMITIVE[name]
    _, vectors = _eig_spy(monkeypatch)
    A = RationalMatrix(entries)
    result = to_constant_row_sums(A, mode="float")
    arr = to_float(A).array
    assert abs(result.lam - rho) <= 1e-12 * rho
    assert vectors and all(np.all(x > 0) for x in vectors)
    rowsum._verify_float(arr, result.B.array, result.S.array, result.lam)
    couplings = [s for s in result.transcript if s.kind == "lemma2-coupling"]
    assert len(couplings) == name.endswith("-isolated")


def test_float_mode_takes_one_eig_per_block(monkeypatch):
    # k diagonal blocks cost k eigendecompositions, plus one of the scaled
    # Perron block's transpose when a block is coupled in by a shear
    arrays, _ = _eig_spy(monkeypatch)
    monkeypatch.setattr(np.linalg, "eigvals", None)  # a call would raise
    seen = set()
    for layout, A in _layout_inputs(
        {"irreducible", "chain", "isolated", "mixed", "cluster", "bottom"}, 48
    ):
        arrays.clear()
        result = to_constant_row_sums(A, mode="float")
        k = len(_components(A)[0])
        coupled = any(s.kind.startswith("lemma2-coupling") for s in result.transcript)
        assert len(arrays) == k + coupled <= k + 1
        seen.add((layout, coupled))
    assert {layout for layout, _ in seen} == {
        "irreducible", "chain", "isolated", "mixed", "cluster", "bottom"
    }
    assert {coupled for _, coupled in seen} == {False, True}


def test_coupling_vector_is_left_vector_of_the_leading_part(monkeypatch):
    used = []
    real_shear = rowsum._shear

    def shear_spy(M, S, a, b, z):
        # the working matrix as the shear finds it, integer rows over M.den:
        # its leading part [0, a) is what the block [a, b) couples into
        leading = RationalMatrix._of_ints([row[:a] for row in M[:a]], M.den)
        used.append((leading, (list(z), z.den)))
        return real_shear(M, S, a, b, z)

    monkeypatch.setattr(rowsum, "_shear", shear_spy)
    checked = 0
    for _, A in _layout_inputs({"isolated", "cluster", "mixed", "bottom"}, 40):
        used.clear()
        result = to_constant_row_sums(A, mode="exact")
        couplings = [s for s in result.transcript if s.kind.startswith("lemma2-coupling")]
        assert len(couplings) == len(used)
        for step, (leading, z) in zip(couplings, used):
            assert leading.rows == step.detail["coupled-into"][1] == step.detail["range"][0]
            want = rowsum._left_eigenvector_exact(leading, result.lam)
            assert (z[0] + [0] * (leading.rows - len(z[0])), z[1]) == (want, want.den)
            checked += 1
    assert checked >= 20


# transcript kinds whose step is one _scale or one _shear call
_STEP_OF_KIND = {
    "block-scaling": "scale",
    "cluster-scaling": "scale",
    "lemma1-lift": "scale",
    "lemma1-lift-general": "scale",
    "diagonal-scaling": "scale",
    "lemma2-coupling": "shear",
    "lemma2-coupling-general": "shear",
}


def test_both_modes_run_the_same_steps(monkeypatch):
    # one _scale or _shear call per scale or shear transcript step, in both
    # modes; float mode passes Python floats only, never numpy scalars, and
    # exact mode integers over one denominator, never Fractions
    calls = []
    for name in ("scale", "shear"):
        real = getattr(rowsum, "_" + name)

        def spy(M, S, *args, name=name, real=real):
            calls.append((name, args[-1]))
            return real(M, S, *args)

        monkeypatch.setattr(rowsum, "_" + name, spy)
    layouts = {"irreducible", "chain", "isolated", "mixed", "cluster", "bottom"}
    seen = set()
    for layout, A in _layout_inputs(layouts, 48):
        runs = {}
        for mode in ("exact", "float"):
            calls.clear()
            result = to_constant_row_sums(A, mode=mode)
            steps = [_STEP_OF_KIND[s.kind] for s in result.transcript if s.kind in _STEP_OF_KIND]
            assert [name for name, _ in calls] == steps
            runs[mode] = (steps, [vec for _, vec in calls])
        assert runs["float"][0] == runs["exact"][0]
        assert all(type(v) is float for vec in runs["float"][1] for v in vec)
        assert all(type(v) is int for vec in runs["exact"][1] for v in vec)
        assert all(type(vec.den) is int and vec.den > 0 for vec in runs["exact"][1])
        seen.add((layout, "shear" in runs["float"][0]))
    assert {layout for layout, _ in seen} == layouts
    assert {shear for _, shear in seen} == {False, True}


def _random_step(rng, n):
    """A scale (a, vec) or shear (a, b, z) step on order n, a >= len(z) for
    a shear; blocks of one row and longer clusters both occur."""
    if rng.random() < 0.5 or n == 1:
        a = rng.randrange(n)
        vec = [F(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, n - a))]
        return "scale", (a, vec)
    k = rng.randint(1, n - 1)
    a = rng.choice([k, rng.randint(k, n - 1)])
    z = [F(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(k)]
    return "shear", (a, rng.randint(a + 1, n), z)


def _dense_step(n, op, args):
    """(T^-1, T) of a step, as dense lists of rows: T = diag(1,...,1, vec,
    1,...,1) for a scale step, T = I - u z^T (T^-1 = I + u z^T) for a shear."""

    def identity():
        return [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    if op == "scale":
        a, vec = args
        T, Tinv = identity(), identity()
        for i, v in enumerate(vec, a):
            T[i][i], Tinv[i][i] = v, 1 / v
        return Tinv, T
    a, b, z = args
    T, Tinv = identity(), identity()
    for i in range(a, b):
        T[i][: len(z)] = [-v for v in z]
        Tinv[i][: len(z)] = list(z)
    return Tinv, T


def _integer_form(rows, factor=1):
    """Fraction rows, or one Fraction vector, as exact mode's integer form,
    with numerators and denominator times factor."""
    vector = not isinstance(rows[0], list)
    A = RationalMatrix([rows] if vector else rows)
    num = [[v * factor for v in row] for row in A.num]
    return rowsum._Ints(num[0] if vector else num, A.den * factor)


def _in_lowest_terms(X):
    return X.den > 0 and math.gcd(X.den, *(v for row in X for v in row)) == 1


def test_structured_steps_match_dense_products():
    # scale and shear update M and S in place; the dense route is
    # M <- T^-1 M T and S <- S T.  The one pair of steps serves both modes:
    # on integer rows over one denominator (exact mode) it agrees exactly
    # and leaves both forms in lowest terms, also from a frame that is not;
    # on float rows it agrees to 1e-15 of the largest entry
    rng = random.Random(2039)
    steps = {"scale": rowsum._scale, "shear": rowsum._shear}
    kinds = set()
    for _ in range(300):
        n = rng.randint(1, 8)
        M0 = [[F(rng.randint(-6, 9), rng.randint(1, 7)) * rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        S0 = [[F(rng.randint(-3, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        op, args = _random_step(rng, n)
        kinds.add((op, op == "shear" and args[0] == len(args[2]), op == "shear" and args[1] - args[0] > 1))

        M, S = (_integer_form(X, rng.choice([1, 1, 2, 6])) for X in (M0, S0))
        iargs = tuple(_integer_form(x) if isinstance(x, list) else x for x in args)
        steps[op](M, S, *iargs)
        Tinv, T = (RationalMatrix(X) for X in _dense_step(n, op, args))
        assert RationalMatrix._of_ints(M, M.den) == Tinv @ RationalMatrix(M0) @ T
        assert RationalMatrix._of_ints(S, S.den) == RationalMatrix(S0) @ T
        assert _in_lowest_terms(M) and _in_lowest_terms(S)
        assert all(type(v) is int for X in (M, S) for r in X for v in r)

        fargs = tuple([float(v) for v in x] if isinstance(x, list) else x for x in args)
        Mf, Sf = ([[float(v) for v in r] for r in X] for X in (M0, S0))
        steps[op](Mf, Sf, *fargs)
        assert all(type(v) is float for X in (Mf, Sf) for r in X for v in r)
        Tinv, T = (np.array(X, dtype=float) for X in _dense_step(n, op, fargs))
        want_M, want_S = (np.array(X, dtype=float) for X in (M0, S0))
        for got, want in ((Mf, Tinv @ want_M @ T), (Sf, want_S @ T)):
            assert np.max(np.abs(np.array(got) - want)) <= 1e-15 * max(1.0, np.max(np.abs(want)))
    assert kinds >= {("scale", False, False), ("shear", True, True), ("shear", False, True), ("shear", True, False)}


def test_exact_normalization_multiplies_only_to_verify(monkeypatch):
    # the verification multiplies integer rows, not matrices: only X S on
    # the transpose path, the shared-eigenvalue fallback, remains
    products = []
    real = RationalMatrix.__matmul__

    def matmul_spy(self, other):
        products.append((self.rows, other.cols))
        return real(self, other)

    monkeypatch.setattr(RationalMatrix, "__matmul__", matmul_spy)
    seen = set()
    layouts = {"irreducible", "chain", "isolated", "mixed", "cluster", "bottom"}
    for layout, A in _layout_inputs(layouts, 60):
        products.clear()
        result = to_constant_row_sums(A, mode="exact")
        transpose = result.transcript[0].kind == "transpose-similarity"
        assert len(products) == (1 if transpose else 0)
        seen.add(layout)
    assert seen == layouts


def test_exact_results_hold_fractions():
    # the absorb loop's rows go out unparsed: every entry of B and S (and of
    # the lemma results) must still be a Fraction, never an int or a float
    layouts = {"irreducible", "chain", "isolated", "mixed", "cluster", "bottom"}
    matrices = []
    for _, A in _layout_inputs(layouts, 30):
        result = to_constant_row_sums(A, mode="exact")
        matrices += [result.B, result.S]
    A1, A2 = RationalMatrix([[1, 1], [1, 1]]), RationalMatrix([[0, 1], [1, 0]])
    matrices.append(lemma1_lift(A1, RationalMatrix([[1]]), RationalMatrix([[1, 3]]))[1])
    matrices += lemma2_coupling(A1, A2)
    assert all(type(v) is F for M in matrices for row in M.entries() for v in row)


def test_exact_reduction_builds_no_fraction_rows(monkeypatch):
    # exact mode runs on integer rows over one denominator from A.num to
    # the result: off the transpose path nothing builds a matrix from
    # Fraction rows or reads one as Fractions.  Bonding assembles C from
    # A.num, B.num and the cleared eigenvectors, and companion4 builds A(d1)
    # on its integer form, so a family5 realization builds no matrix from
    # Fraction rows either
    calls = []
    real_init, real_entries = RationalMatrix.__init__, RationalMatrix.entries

    def init_spy(self, data):
        calls.append("__init__")
        real_init(self, data)

    def entries_spy(self):
        calls.append("entries")
        return real_entries(self)

    layouts = {"irreducible", "chain", "isolated", "mixed", "cluster", "bottom"}
    inputs = list(_layout_inputs(layouts, 60))
    points = [
        make_point("t", 1, "4/5"),
        make_point("t", "3/4", "6/5"),
        make_point("tprime", "1/2", "3/10"),
        make_point("tprime", 1, "1/5"),
    ]
    factors = [
        companion4(p.gamma1_coeffs(), _auto_d1(p.gamma1_coeffs(), p.d1_interval))
        for p in points
    ]
    monkeypatch.setattr(RationalMatrix, "__init__", init_spy)
    monkeypatch.setattr(RationalMatrix, "entries", entries_spy)
    seen = set()
    for layout, A in inputs:
        calls.clear()
        result = to_constant_row_sums(A, mode="exact")
        if result.transcript[0].kind != "transpose-similarity":
            assert calls == []
            seen.add(layout)
    assert seen == layouts
    for point, A in zip(points, factors):
        calls.clear()
        smigoc_bond(A, GAMMA2_REALIZATION, 2, GAMMA2_LEFT, GAMMA2_RIGHT)
        smigoc_bond(A, GAMMA2_REALIZATION, 2)
        assert calls == []
        diagonalizable_realization(point)
        assert calls == []


def _from_floats(arr):
    """The RationalMatrix with the float entries of arr, each exactly."""
    return RationalMatrix([[F(x) for x in row] for row in arr.tolist()])


@pytest.mark.parametrize("c", [1e-14, 1.0, 1e14])
def test_float_mode_does_not_depend_on_the_input_scale(c):
    # every float tolerance is relative to max(|lambda1|, max |a_ij|), with
    # no floor of 1: on c A, B is c times A's and S is A's, up to rounding,
    # for irreducible inputs (irrational Perron roots) and planted layouts.
    # A cluster scaling solves (lambda1 I - K) d = e, whose right side does
    # not scale with A, so where one runs only B is compared
    rng = random.Random(2053)
    inputs = [
        RationalMatrix([[rng.randint(1, 9) for _ in range(n)] for _ in range(n)])
        for n in (2, 3, 4, 5)
    ]
    inputs += [A for _, A in _layout_inputs({"chain", "isolated", "mixed", "cluster", "bottom"}, 20)]
    unchanged = 0
    for A in inputs:
        # exact inputs whose to_float is arr and c arr, entry for entry
        arr = to_float(A).array
        base = to_constant_row_sums(_from_floats(arr), mode="float")
        scaled = to_constant_row_sums(_from_floats(c * arr), mode="float")
        assert [s.to_json() for s in scaled.transcript] == [s.to_json() for s in base.transcript]
        B, S = base.B.array, base.S.array
        assert np.max(np.abs(scaled.B.array - c * B)) <= 1e-9 * c * np.max(np.abs(B))
        if all(s.kind != "cluster-scaling" for s in base.transcript):
            assert np.max(np.abs(scaled.S.array - S)) <= 1e-9 * np.max(np.abs(S))
            unchanged += 1
        assert abs(scaled.lam - c * base.lam) <= 1e-12 * c * base.lam
    assert unchanged >= 18


def _sympy_certifies(A, result):
    """Independent oracle: sympy checks A S = S B, B >= 0 in CS form and
    det S != 0."""
    sympy = pytest.importorskip("sympy")
    As, Bs, Ss = (_to_sympy(M) for M in (A, result.B, result.S))
    assert As * Ss == Ss * Bs
    assert all(v >= 0 for v in Bs)
    assert Ss.det() != 0
    lam = sympy.Rational(result.lam.numerator, result.lam.denominator)
    assert Bs * sympy.ones(A.rows, 1) == lam * sympy.ones(A.rows, 1)


def test_bottom_layouts_take_sylvester_decoupling():
    for _, A in _layout_inputs({"bottom"}, 24):
        result = to_constant_row_sums(A, mode="exact")
        assert result.transcript[0].kind == "sylvester-decoupling"
        _sympy_certifies(A, result)


def test_entangled_transposed_layouts_decouple_the_transpose():
    # the Sylvester decoupling of A meets a shared eigenvalue, that of A^T
    # does not: exact mode certifies through both, float mode refuses
    rng = random.Random(2063)
    for _ in range(24):
        A, _ = entangled_transposed(rng)
        result = to_constant_row_sums(A, mode="exact")
        kinds = [s.kind for s in result.transcript]
        assert kinds[:2] == ["transpose-similarity", "sylvester-decoupling"]
        _sympy_certifies(A, result)
        with pytest.raises(UnsupportedLayoutError, match="singular Sylvester system"):
            to_constant_row_sums(A, mode="float")


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_reduction_plans_once(monkeypatch, mode):
    # one _reach and one _plan_from_graph per reduction, also where the
    # Perron side is decoupled first
    calls = []

    def spy(name):
        real = getattr(rowsum, name)

        def counted(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(rowsum, name, counted)

    spy("_reach")
    spy("_plan_from_graph")
    for _, A in _layout_inputs({"bottom"}, 12):
        calls.clear()
        result = to_constant_row_sums(A, mode=mode)
        assert "sylvester-decoupling" in [s.kind for s in result.transcript]
        assert sorted(calls) == ["_plan_from_graph", "_reach"]


def _irreducible_sample(rng, i):
    """An irreducible nonnegative matrix of order 1..5: every third one in CS
    form and diagonally conjugated (a rational radius, assorted
    denominators), the rest random (mostly irrational radii)."""
    n = rng.randint(1, 5)
    if i % 3 == 0:
        lam = F(rng.randint(1, 40), rng.choice([1, 3, 10**6 + 3, 10**13]))
        d = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
        return diag_conjugate(_random_cs_block(rng, n, lam), d)
    rows = [[F(rng.randint(0, 6), rng.randint(1, 4)) * rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
    for k in range(n):
        rows[k][(k + 1) % n] += 1  # a Hamiltonian cycle keeps it irreducible
    return RationalMatrix(rows)


def test_perron_root_exact_against_sympy():
    # independent oracle: the largest real root of sympy's char poly, a
    # Rational exactly when it is rational; pairs of blocks check lambda1
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(2053)
    tops = []
    while len(tops) < 300:
        A = _irreducible_sample(rng, len(tops))
        if not _is_irreducible_safe(A):
            continue
        top = sympy.real_roots(_to_sympy(A).charpoly(x).as_expr())[-1]
        lam, radii = rowsum.perron_root_exact([A])
        assert radii == [lam]
        assert lam == (_from_sympy(top) if top.is_Rational else None)
        if tops:
            P, top_p = tops[-1]
            pair, _ = rowsum.perron_root_exact([P, A])
            high = max(top, top_p)
            assert pair == (_from_sympy(high) if high.is_Rational else None)
        tops.append((A, top))
    assert sum(top.is_Rational for _, top in tops) >= 100
    assert sum(not top.is_Rational for _, top in tops) >= 100


def _taylor_multiplicities(polys, lam):
    """The multiplicity of lam in each block char poly, from its Taylor
    coefficients at lam: the reference for _perron_block's count of radii."""
    return [next(i for i, t in enumerate(_taylor(p, lam)) if t) for p in polys]


def test_perron_block_from_radii_matches_taylor_multiplicities():
    # criterion-5 planted layouts, the two witnesses, and blocks that tie
    # at the Perron root
    rng = random.Random(2024)
    inputs = [random_realization_with_rational_spectrum(rng)[0] for _ in range(150)]
    inputs += [
        RationalMatrix([[1, 0], [1, 1]]),
        RationalMatrix([[2, 0, 0], [0, 2, 0], [2, 0, 1]]),
        RationalMatrix([[0, 2, 0], [2, 0, 0], [1, 0, 2]]),
        RationalMatrix([[0, 0], [1, 0]]),
    ]
    refused = 0
    for A in inputs:
        comps, _ = _components(A)
        blocks = [A.submatrix(c, c) for c in comps]
        polys = [char_poly(B) for B in blocks]
        lam, radii = rowsum.perron_root_exact(blocks)
        mults = _taylor_multiplicities(polys, lam)
        if sum(mults) == 1:
            assert rowsum._perron_block(radii, lam) == mults.index(1)
        else:
            refused += 1
            with pytest.raises(PerronNotSimple, match="algebraic multiplicity >= 2"):
                rowsum._perron_block(radii, lam)
    assert refused == 4


def _perron_reference(blocks):
    """perron_root_exact's (lambda1, radii) the way it was derived before
    the integer char poly and the Newton probes: each block's Fraction char
    poly cleared to Z and the bounds read off its Fraction row sums, then
    the bisection."""
    d = math.lcm(*(B.den for B in blocks))
    radii, ceilings = [], []
    for B in blocks:
        p = char_poly(B)
        sums = B.row_sums()
        lo = max(min(sums), max(B[i, i] for i in range(B.rows)))
        m, _ = bisect_root_ceiling(integer_poly(p, d), int(d * lo), int(d * max(sums)))
        ceilings.append(m)
        radii.append(F(m, d) if poly_eval(p, F(m, d)) == 0 else None)
    top = max(ceilings)
    lam = next((r for r, m in zip(radii, ceilings) if m == top and r is not None), None)
    return lam, radii


def _perron_differential_blocks(rng, i):
    """Irreducible blocks for the perron_root_exact differential, by i mod 3:
    mostly irrational radii under a diagonal conjugation with denominators
    up to 10^6; a constant-row-sum block at a radius over 10^6 next to one
    at the same or a neighbouring radius; sqrt(a b) of [[0, a], [b, 0]]
    next to a rational radius within 10^-6 of it."""
    def big():
        return F(rng.randint(1, 10**6), rng.randint(1, 10**6))

    if i % 3 == 0:
        blocks = []
        for k in range(rng.randint(1, 3)):
            A = _irreducible_sample(rng, 3 * k + 1)
            blocks.append(diag_conjugate(A, [big() for _ in range(A.rows)]))
        return blocks
    D = rng.choice((10**6, 999983, 7 * 10**5))
    if i % 3 == 1:
        lam = F(rng.randint(D, 40 * D), D)
        other = lam + F(rng.choice((-1, 0, 1)), rng.choice((D, 10**6)))
        pair = [_random_cs_block(rng, rng.randint(1, 4), r) for r in (lam, other)]
    else:
        a, b = rng.randint(1, 40), rng.randint(1, 40)
        near = F(math.isqrt(a * b * D * D) + rng.randint(0, 1), D)
        pair = [RationalMatrix([[0, a], [b, 0]]), _random_cs_block(rng, rng.randint(1, 4), near)]
    pair = [diag_conjugate(B, [big() for _ in range(B.rows)]) for B in pair]
    rng.shuffle(pair)
    return pair


def test_perron_root_exact_against_the_bisection():
    rng = random.Random(3607)
    kinds, done = {"irrational": 0, "rational": 0, "tie": 0}, 0
    while done < 240:
        blocks = _perron_differential_blocks(rng, done)
        if not all(_is_irreducible_safe(B) for B in blocks):
            continue
        got = rowsum.perron_root_exact(blocks)
        assert got == _perron_reference(blocks)
        lam, radii = got
        kinds["irrational"] += None in radii
        kinds["rational"] += lam is not None
        kinds["tie"] += len(set(radii)) < len(radii)
        done += 1
    assert min(kinds.values()) >= 20, kinds


def test_exact_radius_pass_takes_the_integer_char_poly(monkeypatch):
    # criterion-5 layouts: _to_cs_exact builds no Fraction char poly
    def forbidden(name):
        def fail(*args):
            raise AssertionError("_to_cs_exact called %s" % name)

        return fail

    for module in (core, rowsum):
        for name in ("char_poly", "_rational_poly"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden(name))
    seen = []
    real = core._char_poly_int
    monkeypatch.setattr(rowsum, "_char_poly_int", lambda N: seen.append(N) or real(N))
    rng = random.Random(2024)
    for _ in range(60):
        A, spectrum = random_realization_with_rational_spectrum(rng)
        result = rowsum._to_cs_exact(A, _components(A))
        assert result.lam == spectrum.perron
    assert seen


def test_float_scaling_builds_no_block_array(monkeypatch):
    # a scaled block's Perron vector comes from the component pass, so float
    # mode builds arrays only for the lifts, the cluster scalings, the one
    # left vector, the Sylvester system (all through matrix) and the
    # result's B and S (through result)
    built = []

    def matrix_spy(rows):
        built.append(rows)
        return np.array(rows)

    monkeypatch.setattr(rowsum._FloatOps, "matrix", staticmethod(matrix_spy))
    monkeypatch.setattr(rowsum._FloatOps, "result", staticmethod(matrix_spy))
    solves = ("lemma1-lift", "cluster-scaling", "sylvester-decoupling")
    scaled = 0
    for _, A in _layout_inputs(
        {"irreducible", "chain", "isolated", "mixed", "cluster", "bottom"}, 48
    ):
        built.clear()
        kinds = [s.kind for s in to_constant_row_sums(A, mode="float").transcript]
        coupled = any(k.startswith("lemma2-coupling") for k in kinds)
        assert len(built) == sum(k.startswith(solves) for k in kinds) + coupled + 2
        scaled += kinds.count("block-scaling") + kinds.count("diagonal-scaling")
    assert scaled >= 48


class TestSimilarityToTranspose:
    def test_exact_intertwiner(self):
        rng = random.Random(61)
        for _ in range(10):
            n = rng.randint(2, 4)
            A = RationalMatrix(
                [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
            )
            X = similarity_to_transpose(A)
            assert A @ X == X @ A.transpose()

    def test_integer_system_has_the_fraction_system_kernel(self, monkeypatch):
        # the system is built from A's integer rows; the kernel, hence X, must
        # be the one of the Fraction system A X - X A^T; sympy checks X
        sympy = pytest.importorskip("sympy")
        bases = []
        real_kernel = rowsum.kernel

        def kernel_spy(M, *args, **kwargs):
            basis = real_kernel(M, *args, **kwargs)
            bases.append(basis)
            return basis

        monkeypatch.setattr(rowsum, "kernel", kernel_spy)
        rng = random.Random(67)
        from_basis = 0
        for _ in range(12):
            A = _shared_eigenvalue_layout(rng)
            n = A.rows
            bases.clear()
            X = similarity_to_transpose(A)
            basis = real_kernel(RationalMatrix(_fraction_sylvester_rows(A)))
            assert bases == [basis]
            candidates = [RationalMatrix([v[i * n : (i + 1) * n] for i in range(n)]) for v in basis]
            invertible = [M for M in candidates if determinant(M) != 0]
            if invertible:
                assert X == invertible[0]
                from_basis += 1
            As, Xs = _to_sympy(A), _to_sympy(X)
            assert As * Xs == Xs * As.T
            assert Xs.det() != 0
        assert 0 < from_basis < 12  # both ways of picking X occur

    def test_one_candidate_loop_picks_the_two_loop_choice(self):
        # the two-loop search it replaced, with Fraction determinants: every
        # kernel basis vector first, then 200 seeded combinations of them
        def two_loop(A):
            n = A.rows
            basis = kernel(RationalMatrix(_fraction_sylvester_rows(A)))
            candidates = [RationalMatrix([v[i * n : (i + 1) * n] for i in range(n)]) for v in basis]
            for X in candidates:
                if determinant(X) != 0:
                    return X, True
            rng = random.Random(0)
            for _ in range(200):
                coeffs = [rng.randint(-3, 3) for _ in basis]
                X = sum((M.scale(c) for c, M in zip(coeffs, candidates)), RationalMatrix.zeros(n, n))
                if determinant(X) != 0:
                    return X, False
            raise AssertionError("no invertible X")

        from_basis = []
        for A in _transpose_path_inputs():
            X, found = two_loop(A)
            assert similarity_to_transpose(A) == X
            from_basis.append(found)
        # both loops decide: 11 inputs take a basis vector, and on 61 every
        # basis vector is singular
        assert from_basis.count(True) == 11 and from_basis.count(False) == 61


def _fraction_sylvester_rows(A):
    """The rows of X -> A X - X A^T over Fractions; X[k][j] is unknown k n + j."""
    n = A.rows
    rows = []
    for i in range(n):
        for j in range(n):
            row = [F(0)] * (n * n)
            for k in range(n):
                row[k * n + j] += A[i, k]
                row[i * n + k] -= A[j, k]
            rows.append(row)
    return rows


def _shared_eigenvalue_layout(rng, k=None):
    """The Perron block [[1,2],[2,1]] (eigenvalues 3, -1) feeding k blocks
    [[0,c],[1/c,0]] (eigenvalues 1, -1), scrambled: the Sylvester
    decoupling is singular, so exact mode takes the transpose path."""
    k = rng.randint(1, 3) if k is None else k
    n = 2 * k + 2
    rows = [[F(0)] * n for _ in range(n)]
    for b in range(k):
        c = F(rng.randint(1, 4), rng.randint(1, 4))
        rows[2 * b][2 * b + 1], rows[2 * b + 1][2 * b] = c, 1 / c
    p = 2 * k
    rows[p][p] = rows[p + 1][p + 1] = F(1)
    rows[p][p + 1] = rows[p + 1][p] = F(2)
    for b in range(k):
        rows[p + rng.randint(0, 1)][2 * b + rng.randint(0, 1)] = F(rng.randint(1, 3), rng.randint(1, 2))
    return scramble(rng, RationalMatrix(rows))


def _transpose_path_inputs():
    """The 72 transpose-path layouts: 40 entangled_transposed, 30 shared
    eigenvalue layouts and the two of the CI console-script step."""
    rng = random.Random(11)
    inputs = [entangled_transposed(rng)[0] for _ in range(40)]
    rng = random.Random(11)
    inputs += [_shared_eigenvalue_layout(rng) for _ in range(30)]
    inputs += [
        RationalMatrix([[0, 1, 0, 0], [1, 0, 0, 0], [1, 0, 1, 2], [0, 0, 2, 1]]),
        RationalMatrix([[3, 0, 1, 0], [1, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]]),
    ]
    return inputs


def test_transpose_path_labels_name_components_of_A():
    # A^T shares A's component pass, so "component-k" is A's component k
    labelled = 0
    for A in _transpose_path_inputs():
        comps, _ = _components(A)
        steps = to_constant_row_sums(A, mode="exact").transcript
        assert steps[0].kind == "transpose-similarity"
        perm = next(s.detail["order"] for s in steps if s.kind == "permutation")
        for step in steps:
            block = step.detail.get("block", "")
            if block.startswith("component-"):
                a, b = step.detail["range"]
                assert sorted(perm[a:b]) == comps[int(block[len("component-"):])]
                labelled += 1
    assert labelled >= 72


def test_one_component_pass_per_exact_normalization(monkeypatch):
    # to_constant_row_sums builds A's component pass once and hands it to
    # whichever mode runs, and ur_shift builds one for its reduction
    calls = []
    real = rowsum._components

    def spy(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(rowsum, "_components", spy)
    monkeypatch.setattr(perturb, "_components", spy)

    def one_pass(run, A):
        # counted when run returns and when it raises
        calls.clear()
        try:
            return run()
        finally:
            assert calls == [A]

    # float mode has no transpose fallback: the transpose path runs in exact
    # and auto mode only
    layouts = _layout_inputs({"chain", "mixed", "bottom"}, 12)
    inputs = [(A, ("exact", "float", "auto")) for _, A in layouts]
    inputs += [(A, ("exact", "auto")) for A in _transpose_path_inputs()[::6]]
    paths = set()
    for A, modes in inputs:
        for mode in modes:
            result = one_pass(lambda: to_constant_row_sums(A, mode=mode), A)
            paths.add((mode, result.transcript[0].kind))
    assert {("exact", "transpose-similarity"), ("exact", "permutation")} <= paths
    assert ("float", "float-mode") in paths
    # irrational Perron roots: auto mode falls back to float mode, and exact
    # mode refuses with its float advice, whether float mode runs or not
    sqrt2 = RationalMatrix([[0, 2], [1, 0]])
    graded = RationalMatrix([["2", "1", "0"], ["0", "1", "1e-9"], ["1e-9", "0", "1"]])
    assert one_pass(lambda: to_constant_row_sums(sqrt2, mode="auto"), sqrt2).mode == "float"
    for A, advice in ((sqrt2, "rerun in float mode"), (graded, "cannot take this input")):
        with pytest.raises(ModeError, match=advice):
            one_pass(lambda: to_constant_row_sums(A, mode="exact"), A)
    # ur_shift: a Krylov-certified companion and a derogatory input
    rng = random.Random(2027)
    C, values = suleimanova_companion(rng, 4)
    shifts = [
        (scramble(rng, C), Spectrum.from_values(values)),
        (RationalMatrix([[1, 1, 1], [2, 2, 2], [3, 3, 3]]), Spectrum.from_values([6, 0, 0])),
    ]
    for A, spectrum in shifts:
        assert one_pass(lambda: ur_shift(A, spectrum, F(1, 3)), A)[1].verdict


def test_exact_block_scalings_use_the_component_pass_blocks(monkeypatch):
    # each scaled block's kernel is taken on the very matrix the component
    # pass built as A.submatrix(c, c), not on a block rebuilt from the rows
    built, scaled = [], []
    real_sub, real_vec = RationalMatrix.submatrix, rowsum._right_eigenvector_exact
    monkeypatch.setattr(
        RationalMatrix, "submatrix", lambda M, r, c: built.append(real_sub(M, r, c)) or built[-1]
    )
    monkeypatch.setattr(
        rowsum, "_right_eigenvector_exact", lambda B, lam: scaled.append(B) or real_vec(B, lam)
    )
    count = 0
    for _, A in _layout_inputs({"chain", "isolated", "mixed", "cluster", "bottom"}, 30):
        built.clear()
        scaled.clear()
        kinds = [s.kind for s in to_constant_row_sums(A, mode="exact").transcript]
        assert len(scaled) == kinds.count("block-scaling")
        assert all(any(B is C for C in built) for B in scaled)
        count += len(scaled)
    assert count >= 30


@pytest.mark.parametrize("mode", ["exact", "float", "auto"])
@pytest.mark.parametrize("entry", ["0", "5", "7/3", "10000000000001/10000000000000"])
def test_one_by_one_takes_the_irreducible_branch(mode, entry):
    A = RationalMatrix([[entry]])
    result = to_constant_row_sums(A, mode=mode)
    steps = [s.to_json() for s in result.transcript]
    if mode == "float":
        assert result.B.array.tolist() == [[float(A[0, 0])]]
        assert result.S.array.tolist() == [[1.0]] and result.lam == float(A[0, 0])
        assert steps[1:] == [{"kind": "diagonal-scaling", "detail": {"scope": "global"}}]
    else:
        assert (result.B, result.S, result.lam) == (A, RationalMatrix([[1]]), A[0, 0])
        detail = {"scope": "global", "vector": ["1"]}
        assert steps == [{"kind": "diagonal-scaling", "detail": detail}]


@pytest.mark.parametrize("certified", [None, (F(3), (1, 1))], ids=["None", "lam1"])
def test_exact_driver_refuses_an_unverified_result(monkeypatch, certified):
    # B corrupted inside the reduction: right row sums, no negative entry,
    # but [[2, 1], [3, 0]] is not similar to A
    real = rowsum._scale

    def perturbed(M, S, a, vec):
        real(M, S, a, vec)
        M[:] = [[2 * M.den, M.den], [3 * M.den, 0]]

    monkeypatch.setattr(rowsum, "_scale", perturbed)
    with pytest.raises(CertificationError, match="similarity verification failed"):
        A = RationalMatrix([[1, 2], [3, 0]])
        rowsum._to_cs_exact(A, _components(A), certified)


class TestTransposeBound:
    def test_order_above_bound_refused_before_any_work(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the transpose path ran")

        monkeypatch.setattr(rowsum, "similarity_to_transpose", unreachable)
        monkeypatch.setattr(rowsum, "_absorb", unreachable)
        A = _shared_eigenvalue_layout(random.Random(71), k=8)
        assert A.rows == 18 > rowsum.MAX_TRANSPOSE_ORDER == 16
        for mode in ("exact", "auto"):
            with pytest.raises(DomainError, match="bounded to order 16; this input has order 18"):
                to_constant_row_sums(A, mode=mode)

    def test_bound_is_inclusive(self, monkeypatch):
        # at the bound the fallback runs; one past it, it is refused
        rng = random.Random(73)
        monkeypatch.setattr(rowsum, "MAX_TRANSPOSE_ORDER", 6)
        A = _shared_eigenvalue_layout(rng, k=2)
        result = to_constant_row_sums(A, mode="exact")
        assert result.transcript[0].kind == "transpose-similarity"
        with pytest.raises(DomainError, match="bounded to order 6; this input has order 8"):
            to_constant_row_sums(_shared_eigenvalue_layout(rng, k=3), mode="exact")

    def test_cli_refusal_is_one_error_line(self, tmp_path, capsys):
        A = _shared_eigenvalue_layout(random.Random(79), k=8)
        infile, out = tmp_path / "A.json", tmp_path / "out.json"
        infile.write_text(json.dumps(matrix_to_json(A)))
        assert dispatch(["normalize", "--in", str(infile), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "order 18" in err[0]
        assert not out.exists()
