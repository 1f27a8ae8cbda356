import hashlib
import json
import random
from fractions import Fraction as F

import numpy as np
import pytest

from nnspectra.core import (
    JordanSpec,
    RationalMatrix,
    Spectrum,
    char_poly,
    companion_matrix,
    inverse,
    poly_eval,
    poly_from_roots,
    poly_mul,
    synthetic_div,
)
from nnspectra import jcfcert, rowsum
from nnspectra.errors import (
    CertificationError,
    CollisionError,
    DimensionError,
    DomainError,
    NonnegativityLossError,
    PerronNotSimple,
)
from nnspectra.jcfcert import jordan_spec, verify_certificate, weyr_sequence
from nnspectra.perturb import _shift_certificate, rank_one_shift, ur_shift
from nnspectra.rowsum import to_constant_row_sums
from nnspectra.structure import _components

from conftest import (
    random_cs_matrix,
    random_layout_realization,
    scramble,
    suleimanova_companion,
)


CIRC = RationalMatrix([[0, 2], [2, 0]])


class TestRankOneShift:
    def test_non_square_rejected(self):
        with pytest.raises(DimensionError, match="B must be square"):
            rank_one_shift(RationalMatrix([[1, 1]]), [0, 0])

    def test_q_length_checked(self):
        with pytest.raises(DimensionError, match="q must have length 2"):
            rank_one_shift(CIRC, [1])

    def test_zero_q_is_identity(self):
        assert rank_one_shift(CIRC, [0, 0]) == CIRC

    def test_uniform_half_shift(self):
        shifted = rank_one_shift(CIRC, [F(1, 2), F(1, 2)])
        assert shifted == RationalMatrix([["1/2", "5/2"], ["5/2", "1/2"]])
        coeffs = char_poly(shifted)
        assert coeffs == poly_mul([F(1), F(-3)], [F(1), F(2)])  # roots 3, -2

    def test_zero_sum_q_keeps_char_poly_but_loses_nonnegativity(self):
        q = [F(1), F(-1)]
        raw = RationalMatrix(
            [[v + q[j] for j, v in enumerate(row)] for row in CIRC.entries()]
        )
        assert raw == RationalMatrix([[1, 1], [3, -1]])
        assert char_poly(raw) == char_poly(CIRC)  # similar to B
        with pytest.raises(NonnegativityLossError) as err:
            rank_one_shift(CIRC, q)
        assert err.value.matrix == raw

    def test_collision_detected(self):
        # lambda1 = 2, other eigenvalue -2; sum(q) = -4 collides
        with pytest.raises(CollisionError):
            rank_one_shift(CIRC, [F(-2), F(-2)])

    def test_non_cs_rejected(self):
        with pytest.raises(DomainError):
            rank_one_shift(RationalMatrix([[1, 0], [1, 1]]), [0, 0])

    def test_non_simple_perron_rejected(self):
        # CS_2 with a double row-sum eigenvalue: block diagonal of two CS_2 blocks
        A = RationalMatrix([[2, 0, 0], [0, 0, 2], [0, 2, 0]])
        with pytest.raises(PerronNotSimple):
            rank_one_shift(A, [0, 0, 0])

    def test_factor_swap_on_random_cs_matrices(self):
        rng = random.Random(71)
        for _ in range(25):
            B, values = random_cs_matrix(rng, rng.randint(2, 5))
            lam = max(values)
            eps = F(rng.randint(1, 4), rng.randint(1, 3))
            n = B.rows
            shifted = rank_one_shift(B, [eps / n] * n)
            quotient, rem = synthetic_div(char_poly(B), lam)
            assert rem == 0
            assert char_poly(shifted) == poly_mul(
                quotient, [F(1), -(lam + eps)]
            )
            assert shifted.row_sums() == tuple([lam + eps] * n)

    def test_factor_swap_oracle_on_uniform_and_non_uniform_q(self):
        # rank_one_shift checks only that it built B + e q^T; the factor
        # swap is Brauer's theorem, recomputed here as the reference
        rng = random.Random(79)
        outcomes = set()
        for trial in range(100):
            B, values = random_cs_matrix(rng, rng.randint(2, 5))
            lam = max(values)
            if trial % 5 == 4:  # lambda1 twice
                zero = RationalMatrix.zeros(B.rows, B.rows)
                B = RationalMatrix.from_blocks([[B, zero], [zero, B]])
            n = B.rows
            quotient, _ = synthetic_div(char_poly(B), lam)
            if trial % 5 == 0:
                q = [F(rng.randint(0, 4), rng.randint(1, 3)) / n] * n
            elif trial % 5 == 3:
                # sum(q) moves lambda1 onto another eigenvalue
                q = [F(0)] * n
                q[rng.randrange(n)] = min(values) - lam
            else:
                q = [F(rng.randint(-3, 4), rng.randint(1, 3)) for _ in range(n)]
            moved = lam + sum(q)
            try:
                shifted = rank_one_shift(B, q)
                outcomes.add("nonnegative")
            except NonnegativityLossError as err:
                shifted = err.matrix
                outcomes.add("negative")
            except CollisionError:
                assert moved != lam and poly_eval(quotient, moved) == 0
                outcomes.add("collision")
                continue
            except PerronNotSimple:
                assert poly_eval(quotient, lam) == 0
                outcomes.add("not simple")
                continue
            assert trial % 5 != 4
            assert shifted == RationalMatrix(
                [[v + q[j] for j, v in enumerate(row)] for row in B.entries()]
            )
            assert char_poly(shifted) == poly_mul(quotient, [F(1), -moved])
        assert outcomes == {"nonnegative", "negative", "collision", "not simple"}

    def test_weyr_unchanged_at_other_eigenvalues(self):
        rng = random.Random(73)
        for _ in range(10):
            B, values = random_cs_matrix(rng, rng.randint(3, 5))
            lam = max(values)
            n = B.rows
            shifted = rank_one_shift(B, [F(1, n)] * n)
            for v in set(values):
                if v != lam:
                    assert weyr_sequence(shifted, v) == weyr_sequence(B, v)


def _planted_cs(rng, lam, diagonal, chain=False):
    """B = P M P^-1 in CS_lam form with the eigenvalues lam, *diagonal.

    M is upper triangular with that diagonal and small integer entries
    above it, and M[0][1] = 1 when chain is set (with diagonal[0] = lam,
    lam then sits in a Jordan block of size 2).  P = L U, L unit lower
    triangular with first column e, U unit upper triangular, so P e_1 = e
    and B e = lam e.
    """
    n = len(diagonal) + 1
    d = [lam] + list(diagonal)
    M = [[d[i] if i == j else rng.randint(-2, 2) if j > i else 0 for j in range(n)] for i in range(n)]
    if chain:
        M[0][1] = 1
    L = [[1 if i == j or j == 0 else rng.randint(-1, 1) if j < i else 0 for j in range(n)] for i in range(n)]
    U = [[1 if i == j else rng.randint(-1, 1) if j > i else 0 for j in range(n)] for i in range(n)]
    P = RationalMatrix(L) @ RationalMatrix(U)
    return P @ RationalMatrix(M) @ inverse(P)


class TestShiftPreconditions:
    """rank_one_shift's two one-prime singularity tests against the
    char-poly quotient Q(x) = char_poly(B) / (x - lambda1): lambda1 is
    simple iff Q(lambda1) != 0, and lambda1 + sum(q) != lambda1 collides iff
    Q(lambda1 + sum(q)) = 0."""

    def test_agree_with_the_char_poly_quotient(self):
        rng = random.Random(3203)
        counts = {}
        for trial in range(1200):
            kind = trial % 4
            n = rng.randint(2, 6)
            lam = F(rng.randint(-3, 6), rng.choice([1, 1, 2]))
            values = [F(rng.randint(-4, 6), rng.choice([1, 2])) for _ in range(n - 1)]
            if kind == 0:  # lambda1 twice, in two diagonal blocks
                k = rng.randint(1, n - 1)
                zeros = RationalMatrix.zeros
                B1, B2 = _planted_cs(rng, lam, values[: k - 1]), _planted_cs(rng, lam, values[k:])
                B = RationalMatrix.from_blocks([[B1, zeros(k, n - k)], [zeros(n - k, k), B2]])
            elif kind == 1:  # lambda1 inside a Jordan block of size 2
                B = _planted_cs(rng, lam, [lam] + values[1:], chain=True)
            else:
                B = _planted_cs(rng, lam, values)
            q = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            others = [v for v in values if v != lam]
            if kind == 2 and others:  # sum(q) moves lambda1 onto another eigenvalue
                q[-1] += rng.choice(others) - lam - sum(q)
            elif kind == 3 and trial % 8 == 3:  # sum(q) = 0
                q[-1] -= sum(q)
            quotient, rem = synthetic_div(char_poly(B), lam)
            assert rem == 0
            moved = lam + sum(q)
            if poly_eval(quotient, lam) == 0:
                expected = "not simple"
            elif moved != lam and poly_eval(quotient, moved) == 0:
                expected = "collision"
            else:
                expected = "shifted" if moved != lam else "unmoved"
            try:
                rank_one_shift(B, q)
                got = "shifted" if moved != lam else "unmoved"
            except NonnegativityLossError:
                got = "shifted" if moved != lam else "unmoved"
            except PerronNotSimple:
                got = "not simple"
            except CollisionError:
                got = "collision"
            assert got == expected, (trial, B, q)
            counts[expected] = counts.get(expected, 0) + 1
        assert sum(counts.values()) >= 1000
        # every branch is exercised often: both refusals and both passes
        assert min(counts.values()) >= 50 and len(counts) == 4, counts


class TestShiftCertification:
    def test_shifted_jcf_verifies_on_100_random_trials(self):
        rng = random.Random(67)
        for _ in range(100):
            B, values = random_cs_matrix(rng, rng.randint(2, 4))
            spectrum = Spectrum.from_values(values)
            lam = spectrum.perron
            eps = F(rng.randint(1, 5), rng.randint(1, 3))
            n = B.rows
            shifted = rank_one_shift(B, [eps / n] * n)
            before = jordan_spec(B, spectrum)
            claimed = JordanSpec.from_map(
                [
                    (lam + eps if v == lam else v, sizes)
                    for v, sizes in before.blocks
                ]
            )
            moved = list(spectrum.values())
            moved.remove(lam)
            cert = verify_certificate(
                shifted, Spectrum.from_values(moved + [lam + eps]), claimed
            )
            assert cert.verdict


class TestUrShift:
    def test_eps_zero_returns_cs_form(self):
        A = RationalMatrix([[3, 0], [1, 1]])
        spectrum = Spectrum.from_values([3, 1])
        shifted, cert = ur_shift(A, spectrum, 0)
        assert shifted.row_sums() == (F(3), F(3))
        assert cert.verdict

    def test_worked_5x5(self):
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
        shifted, cert = ur_shift(C, spectrum, "1/5")
        assert cert.verdict
        assert shifted.is_nonnegative
        assert cert.claimed_spectrum == Spectrum.from_values(
            ["3", "11/5", "-1", "-2", "-2"]
        )
        assert cert.claimed_jordan.is_diagonal
        assert shifted.row_sums() == tuple([F(3)] * 5)

    def test_row_sums_exactly_lambda_plus_eps(self):
        rng = random.Random(79)
        for _ in range(10):
            B, values = random_cs_matrix(rng, rng.randint(2, 4))
            spectrum = Spectrum.from_values(values)
            eps = F(rng.randint(1, 3), 2)
            shifted, cert = ur_shift(B, spectrum, eps)
            assert cert.verdict
            assert shifted.row_sums() == tuple(
                [spectrum.perron + eps] * B.rows
            )

    def test_negative_input_rejected(self):
        with pytest.raises(DomainError, match="A must be nonnegative"):
            ur_shift(RationalMatrix([[2, -1], [0, 1]]), Spectrum.from_values([2, 1]), 1)

    def test_spectrum_mismatch_rejected(self):
        with pytest.raises(DomainError):
            ur_shift(CIRC, Spectrum.from_values([3, -2]), 1)

    def test_negative_eps_rejected(self):
        with pytest.raises(DomainError):
            ur_shift(CIRC, Spectrum.from_values([2, -2]), -1)

    def test_non_simple_spectrum_rejected(self):
        A = RationalMatrix([[2, 0], [0, 2]])
        with pytest.raises(PerronNotSimple):
            ur_shift(A, Spectrum.from_values([2, 2]), 1)

    def test_rational_root_beyond_float_reconstruction(self):
        # lambda = (10^13+1)/10^13 sits 1e-13 above 1, so a float estimate
        # rationalizes to a non-root; the certified spectrum supplies it exactly
        lam = F(10**13 + 1, 10**13)
        A = RationalMatrix([[lam / 3, 4 * lam / 3], [lam / 6, 2 * lam / 3]])
        shifted, cert = ur_shift(A, Spectrum.from_values([lam, 0]), F(1, 3))
        assert cert.to_json()["verdict"] == "pass"
        assert shifted.row_sums() == (lam + F(1, 3),) * 2
        assert cert.claimed_jordan.is_diagonal

    def test_every_reducible_layout(self):
        # the certified lambda1 locates the Perron block of each planted layout,
        # the transpose layout ("bottom") included
        rng = random.Random(83)
        layouts = set()
        for i in range(30):
            A, spectrum, layout = random_layout_realization(rng)
            layouts.add(layout)
            eps = (F(0), F(1, 3), F(2))[i % 3]
            shifted, cert = ur_shift(A, spectrum, eps)
            assert cert.to_json()["verdict"] == "pass"
            assert shifted.row_sums() == (spectrum.perron + eps,) * A.rows
        assert layouts == {"irreducible", "chain", "isolated", "mixed", "cluster", "bottom"}

    @pytest.mark.parametrize(
        "entries", [[["L", 0], [1, 0]], [[0, 0], [1, "L"]]], ids=["chain", "transpose"]
    )
    def test_reducible_root_beyond_float_reconstruction(self, entries):
        lam = F(10**13 + 1, 10**13)
        A = RationalMatrix([[lam if v == "L" else v for v in row] for row in entries])
        shifted, cert = ur_shift(A, Spectrum.from_values([lam, 0]), F(1, 3))
        assert cert.to_json()["verdict"] == "pass"
        assert shifted.row_sums() == (lam + F(1, 3),) * 2

    @pytest.mark.parametrize(
        "layout", ["irreducible", "chain", "isolated", "mixed", "cluster", "bottom"]
    )
    def test_no_float_eigenvalues_on_the_exact_path(self, monkeypatch, layout):
        # lambda1 and every block radius come from exact arithmetic, under
        # ur_shift and in exact-mode normalization alike
        calls, real = [], {name: getattr(np.linalg, name) for name in ("eig", "eigvals")}
        for name in real:
            monkeypatch.setattr(
                np.linalg, name, lambda a, name=name: calls.append(name) or real[name](a)
            )
        rng, seen = random.Random(3), 0
        while seen < 5:
            A, spectrum, got = random_layout_realization(rng)
            if got != layout:
                continue
            seen += 1
            assert to_constant_row_sums(A, mode="exact").lam == spectrum.perron
            _shifted, cert = ur_shift(A, spectrum, F(1, 3))
            assert cert.verdict
        assert calls == []

    def test_non_perron_block_radius_below_a_ladder_rung(self):
        # the lower block has radius 12/5 and also the eigenvalue 2, which
        # the first rung of the denominator ladder would take for its radius
        A = RationalMatrix([[3, 0, 0], [1, "11/5", "1/5"], [0, "1/5", "11/5"]])
        shifted, cert = ur_shift(A, Spectrum.from_values([3, F(12, 5), 2]), F(1, 3))
        assert cert.to_json()["verdict"] == "pass"
        assert shifted.row_sums() == (F(10, 3),) * 3


# sha256 over the certificates of 40 seeded ur_shift calls (seed 2041): random
# CS matrices (n = 2..5) and scrambled companions (n = 4..6), eps cycling over
# 0, 1/3, 2; pins the shifted matrix, spectrum, Jordan claim and check list
UR_SHIFT_GOLDEN_SHA256 = "88934d7b26e450f0681c92aea50c9bce92454b1d528a616903bbd5ee4d405e03"
EPSILONS = (F(0), F(1, 3), F(2))


def golden_inputs():
    """The 40 (A, spectrum) inputs that UR_SHIFT_GOLDEN_SHA256 covers."""
    rng = random.Random(2041)
    for i in range(40):
        if i % 2:
            C, values = suleimanova_companion(rng, rng.randint(4, 6))
            A = scramble(rng, C)
        else:
            A, values = random_cs_matrix(rng, rng.randint(2, 5))
        yield A, Spectrum.from_values(values)


def test_ur_shift_matches_golden_digest():
    digest = hashlib.sha256()
    for i, (A, spectrum) in enumerate(golden_inputs()):
        _shifted, cert = ur_shift(A, spectrum, EPSILONS[i % 3])
        digest.update(json.dumps(cert.to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == UR_SHIFT_GOLDEN_SHA256


def test_claimed_spectrum_is_the_moved_values():
    # the certificate reads its spectrum off the moved Jordan form; the
    # reference moves one copy of lambda1 in the value list and parses afresh
    for i, (A, spectrum) in enumerate(golden_inputs()):
        eps = EPSILONS[i % 3]
        _shifted, cert = ur_shift(A, spectrum, eps)
        moved = list(spectrum.values())
        moved.remove(spectrum.perron)
        assert cert.claimed_spectrum == Spectrum.from_values(moved + [spectrum.perron + eps])


class TestDerivedCertificate:
    def test_matches_the_recomputing_oracle(self):
        # ur_shift derives its certificate from the verified similarity;
        # verify_certificate recomputes the char poly and every Weyr sequence
        rng = random.Random(83)
        planted = [random_layout_realization(rng) for _ in range(30)]
        assert {layout for _, _, layout in planted} == {
            "irreducible", "chain", "isolated", "mixed", "cluster", "bottom"
        }
        cases = list(golden_inputs()) + [(A, spectrum) for A, spectrum, _ in planted]
        for A, spectrum in cases:
            for eps in EPSILONS:
                shifted, cert = ur_shift(A, spectrum, eps)
                oracle = verify_certificate(shifted, cert.claimed_spectrum, cert.claimed_jordan)
                assert cert.to_json() == oracle.to_json()

    def test_wrong_eps_in_one_row_refused(self):
        A = RationalMatrix([[1, 2], [3, 0]])  # CS_3, spectrum {3, -2}
        spectrum = Spectrum.from_values([3, -2])
        eps = F(1, 3)
        B = to_constant_row_sums(A, mode="exact").B
        # q = eps/2, but row 1 gets eps: its sum is off by eps/2
        rows = [[v + eps / 2 for v in row] for row in B.entries()]
        rows[1] = [v + eps for v in B.entries()[1]]
        with pytest.raises(CertificationError, match=r"not B \+ \(eps/n\) e e\^T"):
            _shift_certificate(B, RationalMatrix(rows), spectrum, jordan_spec(A, spectrum), eps)

    @staticmethod
    def _shift(B, eps):
        return RationalMatrix([[v + eps / B.rows for v in row] for row in B.entries()])

    @staticmethod
    def _diagonal_form(spectrum):
        return JordanSpec.from_map([(v, [1] * m) for v, m in spectrum.pairs])

    def test_row_sums_off_lambda1_refused(self):
        # B = diag(2, 1) is not in CS form: the shift differs from B by
        # exactly (eps/2) e e^T, but its second row sums to 1 + eps
        B, spectrum, eps = RationalMatrix([[2, 0], [0, 1]]), Spectrum.from_values([2, 1]), F(1, 3)
        with pytest.raises(CertificationError, match="a row of the shifted matrix does not sum to 7/3"):
            _shift_certificate(B, self._shift(B, eps), spectrum, self._diagonal_form(spectrum), eps)

    def test_collision_refused(self):
        # the claim {3, -4} has the Perron value -4 (the largest modulus),
        # and eps = 7 moves it onto 3; B's rows sum to -4, as the checks
        # before the collision test need
        B, spectrum, eps = RationalMatrix([[-2, -2], [-2, -2]]), Spectrum.from_values([3, -4]), F(7)
        with pytest.raises(CertificationError, match="shifted Perron root 3 collides"):
            _shift_certificate(B, self._shift(B, eps), spectrum, self._diagonal_form(spectrum), eps)

    def test_failed_certificate_refused(self):
        # every row of [[-1, 4], [4, -1]] sums to 3, and its shift by
        # (1/6) e e^T keeps the entry -5/6: the nonnegativity record fails
        B, spectrum, eps = RationalMatrix([[-1, 4], [4, -1]]), Spectrum.from_values([3, -1]), F(1, 3)
        with pytest.raises(CertificationError, match="Perron shift failed certification"):
            _shift_certificate(B, self._shift(B, eps), spectrum, self._diagonal_form(spectrum), eps)

    def test_unverified_similarity_refused(self, monkeypatch):
        # a CS form with the right row sums and no negative entry, but not
        # similar to A: [[2, 1], [3, 0]] has spectrum {3, -1}, not {3, -2}
        # it is put in place of B inside the reduction, so the check that
        # refuses it is the one the reduction runs before it returns
        A = RationalMatrix([[1, 2], [3, 0]])
        real = rowsum._scale

        def perturbed(M, S, a, vec):
            real(M, S, a, vec)
            assert (M, M.den) == ([[1, 2], [3, 0]], 1)
            M[:] = [[2, 1], [3, 0]]

        monkeypatch.setattr(rowsum, "_scale", perturbed)
        with pytest.raises(CertificationError, match="similarity verification failed"):
            ur_shift(A, Spectrum.from_values([3, -2]), F(1, 3))


def test_certified_ur_shift_multiplies_no_matrices(monkeypatch):
    # on scrambled companions (irreducible, so no transpose path) the CS
    # verification multiplies integer rows, jordan_spec takes integer
    # mat-vecs and the output's certificate is derived: no RationalMatrix
    # product is left
    rng = random.Random(83)
    cases = []
    for i in range(12):
        C, values = suleimanova_companion(rng, rng.randint(4, 7))
        cases.append((scramble(rng, C) if i % 2 else C, Spectrum.from_values(values)))
    products = []
    real = RationalMatrix.__matmul__

    def matmul_spy(self, other):
        products.append((self.rows, other.cols))
        return real(self, other)

    monkeypatch.setattr(RationalMatrix, "__matmul__", matmul_spy)
    for A, spectrum in cases:
        assert ur_shift(A, spectrum, F(1, 3))[1].verdict
    assert products == []


class TestPerronVectorHandOff:
    """ur_shift hands the reduction of an irreducible A the eigenvector that
    jcfcert's Krylov proof computes; the kernel stays the reference."""

    @staticmethod
    def _companions():
        rng = random.Random(89)
        for n in range(6, 13):
            for _ in range(3):
                C, values = suleimanova_companion(rng, n)
                yield scramble(rng, C), Spectrum.from_values(values)

    def test_handed_vector_is_the_kernel_vector(self, monkeypatch):
        cases = list(self._companions())
        for A, spectrum in cases:
            _form, x = jcfcert._certified_jordan(A, spectrum)
            assert list(x) == rowsum._right_eigenvector_exact(A, spectrum.perron)
        # so ur_shift takes no kernel, and its output is the kernel route's
        # CS form plus (eps/n) e e^T
        expected = [rowsum._to_cs_exact(A, _components(A)).B for A, _ in cases]
        kernels = []
        monkeypatch.setattr(rowsum, "kernel", lambda *args, **kw: kernels.append(args))
        for (A, spectrum), B in zip(cases, expected):
            shifted, cert = ur_shift(A, spectrum, F(1, 3))
            assert cert.verdict
            step = F(1, 3 * A.rows)
            assert shifted.entries() == tuple(tuple(b + step for b in row) for row in B.entries())
        assert kernels == []

    def test_a_wrong_vector_is_refused(self):
        for k, (A, spectrum) in enumerate(self._companions()):
            x = list(jcfcert._certified_jordan(A, spectrum)[1])
            x[k % A.rows] += 1
            with pytest.raises(CertificationError, match="not in CS form"):
                rowsum._to_cs_exact(A, _components(A), (spectrum.perron, x))

    def test_derogatory_input_takes_the_kernel(self, monkeypatch):
        # (1, 2, 3) (1, 1, 1)^T is irreducible with spectrum {6, 0, 0} and 0
        # in two blocks: no Krylov basis exists, and the kernel finds the
        # Perron vector (1, 2, 3)
        A = RationalMatrix([[1, 1, 1], [2, 2, 2], [3, 3, 3]])
        spectrum = Spectrum.from_values([6, 0, 0])
        assert jcfcert._certified_jordan(A, spectrum) == (
            JordanSpec.from_map({6: [1], 0: [1, 1]}),
            None,
        )
        expected = rowsum._to_cs_exact(A, _components(A))
        assert expected.transcript[0].detail["vector"] == ["1", "2", "3"]
        vectors, real = [], rowsum._right_eigenvector_exact
        monkeypatch.setattr(
            rowsum, "_right_eigenvector_exact", lambda B, lam: vectors.append(B) or real(B, lam)
        )
        shifted, cert = ur_shift(A, spectrum, 3)
        assert vectors == [A]
        assert cert.verdict and cert.claimed_spectrum == Spectrum.from_values([9, 0, 0])
        assert shifted.entries() == tuple(tuple(b + 1 for b in row) for row in expected.B.entries())
        # the certificate's bytes, pinned: the reduction's component pass finds
        # lambda1 = 6 itself when no Krylov vector is handed in
        text = json.dumps(cert.to_json(), sort_keys=True).encode()
        assert hashlib.sha256(text).hexdigest() == (
            "b8828a4b069c9c943f2a10702229930dead596ccb124879dc4821d089b611720"
        )


def test_shift_properties_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    fraction = st.builds(F, st.integers(1, 6), st.integers(1, 3))
    eps = st.builds(F, st.integers(0, 4), st.integers(1, 3))

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(
        mus=st.lists(fraction, min_size=1, max_size=4),
        gap=st.builds(F, st.integers(0, 8), st.integers(1, 2)),
        eps1=eps,
        eps2=eps,
    )
    def check(mus, gap, eps1, eps2):
        # Suleimanova companions are irreducible; their CS forms stay so
        values = [sum(mus) + gap] + [-m for m in mus]
        C = companion_matrix(poly_from_roots(values))
        A = to_constant_row_sums(C, mode="exact").B
        spectrum = Spectrum.from_values(values)
        lam = spectrum.perron
        shifted, cert = ur_shift(A, spectrum, eps1)
        assert shifted.is_nonnegative
        assert shifted.row_sums() == (lam + eps1,) * A.rows
        assert cert.to_json()["verdict"] == "pass"
        before = jordan_spec(A, spectrum).blocks
        assert cert.claimed_jordan == JordanSpec.from_map(
            [(lam + eps1 if v == lam else v, sizes) for v, sizes in before]
        )
        twice, _ = ur_shift(shifted, cert.claimed_spectrum, eps2)
        assert twice == ur_shift(A, spectrum, eps1 + eps2)[0]

    check()
