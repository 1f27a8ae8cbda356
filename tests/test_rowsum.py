import hashlib
import json
import random
from fractions import Fraction as F

import numpy as np
import pytest

from nnspectra.cli import dispatch
from nnspectra.core import FloatMatrix, RationalMatrix, char_poly, solve, to_float
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
from nnspectra import rowsum
from nnspectra.jcfcert import jordan_spec
from nnspectra.rowsum import (
    _verify_exact,
    lemma1_lift,
    lemma2_coupling,
    similarity_to_transpose,
    to_constant_row_sums,
)

from conftest import (
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

    def test_transcript_factors_compose_to_s(self):
        rng = random.Random(59)
        for _ in range(10):
            A, _ = random_realization_with_rational_spectrum(rng)
            result = to_constant_row_sums(A, mode="exact")
            prod = result.factors[0]
            for factor in result.factors[1:]:
                prod = prod @ factor
            assert prod == result.S

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

    def test_bottom_perron_via_transpose(self):
        A = RationalMatrix([[1, 0], [1, 2]])
        result = to_constant_row_sums(A, mode="exact")
        assert result.transcript[0].kind == "transpose-similarity"
        assert result.B.row_sums() == (F(2), F(2))
        assert solve(result.S, A @ result.S) == result.B

    def test_middle_perron_unsupported(self):
        # Perron block feeds an earlier block AND is fed by a later one
        A = RationalMatrix([[1, 0, 0], [1, 2, 0], [0, 1, 1]])
        with pytest.raises(UnsupportedLayoutError):
            to_constant_row_sums(A, mode="exact")

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

    def test_float_one_by_one(self):
        blob = to_constant_row_sums(RationalMatrix([[5]]), mode="float").to_json()
        assert blob["lambda"] == "5.0"
        assert blob["B"] == [["5.0"]] and blob["S"] == [["1.0"]]
        assert [s["kind"] for s in blob["transcript"]] == ["float-mode"]

    def test_float_matrix_input(self):
        A = FloatMatrix(np.array([[0.0, 2.0], [1.0, 0.0]]))  # rho = sqrt(2)
        for mode in ("auto", "float"):
            result = to_constant_row_sums(A, mode=mode)
            assert result.mode == "float"
            assert np.max(np.abs(result.B.array.sum(axis=1) - np.sqrt(2))) <= 1e-12
        with pytest.raises(ModeError, match="exact mode needs a RationalMatrix input"):
            to_constant_row_sums(A, mode="exact")

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

    def test_float_input_validated(self):
        with pytest.raises(DomainError):
            to_constant_row_sums(FloatMatrix(np.array([[-1.0]])))
        with pytest.raises(DimensionError):
            to_constant_row_sums(FloatMatrix(np.ones((2, 3))))

    def test_spectra_mode_env_default(self, monkeypatch, tmp_path):
        A = RationalMatrix([[0, 2], [1, 0]])  # irrational Perron root
        monkeypatch.setenv("SPECTRA_MODE", "exact")
        with pytest.raises(ModeError):
            to_constant_row_sums(A)
        monkeypatch.setenv("SPECTRA_MODE", "float")
        assert to_constant_row_sums(A).mode == "float"
        infile, out = tmp_path / "A.json", tmp_path / "out.json"
        infile.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [["3", "0"], ["1", "1"]]}))
        assert dispatch(["normalize", "--in", str(infile), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["mode"] == "float"
        monkeypatch.setenv("SPECTRA_MODE", "fast")
        with pytest.raises(DomainError):
            to_constant_row_sums(A)
        monkeypatch.delenv("SPECTRA_MODE")
        assert to_constant_row_sums(A).mode == "float"  # auto falls back


# sha256 over the first 60 exact results of random_realization_with_rational_spectrum
# (seed 2024); pins B, S, lambda and the transcript across changes to the loop
EXACT_GOLDEN_SHA256 = "10307a8c7338059dbcdd5e6c15b45ad8e907046c487aeeb98e29e34bc79dee8a"


def test_exact_results_match_golden_digest():
    rng = random.Random(2024)
    digest = hashlib.sha256()
    for _ in range(60):
        A, _ = random_realization_with_rational_spectrum(rng)
        blob = to_constant_row_sums(A, mode="exact").to_json()
        digest.update(json.dumps(blob, sort_keys=True).encode())
    assert digest.hexdigest() == EXACT_GOLDEN_SHA256


def test_verify_exact_rejects_singular_similarity():
    # S = 0 satisfies A S = S B for every B, so the check must also ask det S != 0
    B = RationalMatrix([[1, 2], [3, 0]])
    with pytest.raises(CertificationError):
        _verify_exact(B, B, RationalMatrix.zeros(2, 2), F(3))


def test_float_mode_follows_exact_mode():
    rng = random.Random(2031)
    layouts = set()
    for _ in range(72):
        A, _, layout = random_layout_realization(rng)
        layouts.add(layout)
        if layout == "bottom":
            with pytest.raises(UnsupportedLayoutError):
                to_constant_row_sums(A, mode="float")
            continue
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


def test_coupling_vector_is_left_vector_of_the_leading_part(monkeypatch):
    used = []
    real_shear = rowsum._shear_factor

    def shear_spy(ops, n, a, b, z):
        used.append(z)
        return real_shear(ops, n, a, b, z)

    monkeypatch.setattr(rowsum, "_shear_factor", shear_spy)
    checked = 0
    for _, A in _layout_inputs({"isolated", "cluster", "mixed", "bottom"}, 40):
        used.clear()
        result = to_constant_row_sums(A, mode="exact")
        steps = iter(used)
        S = RationalMatrix.identity(A.rows)
        # transcript step i applies factor i: M = S^-1 A S before it
        for step, factor in zip(result.transcript, result.factors):
            if step.kind.startswith("lemma2-coupling"):
                bound = step.detail["coupled-into"][1]
                M = solve(S, A @ S)
                leading = M.submatrix(range(bound), range(bound))
                z = next(steps)
                padded = tuple(z) + (F(0),) * (bound - len(z))
                assert padded == rowsum._left_eigenvector_exact(leading, result.lam)
                checked += 1
            S = S @ factor
    assert checked >= 20


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
