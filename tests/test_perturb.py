import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from nnspectra.core import (
    JordanSpec,
    RationalMatrix,
    Spectrum,
    char_poly,
    companion_matrix,
    poly_from_roots,
    poly_mul,
    synthetic_div,
)
from nnspectra.errors import (
    CollisionError,
    DomainError,
    NonnegativityLossError,
    PerronNotSimple,
)
from nnspectra.jcfcert import jordan_spec, verify_certificate, weyr_sequence
from nnspectra import rowsum
from nnspectra.perturb import rank_one_shift, ur_shift
from nnspectra.rowsum import to_constant_row_sums

from conftest import (
    planted_reducible,
    random_cs_matrix,
    random_layout_realization,
    scramble,
    suleimanova_companion,
)


CIRC = RationalMatrix([[0, 2], [2, 0]])


class TestRankOneShift:
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
            cert = verify_certificate(
                shifted, spectrum.replace_perron(lam + eps), claimed
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

    @pytest.mark.parametrize("layout", ["chain", "mixed", "isolated", "cluster", "bottom"])
    def test_block_radii_come_from_the_certified_spectrum(self, monkeypatch, layout):
        # no float estimate of any block's radius: the certified spectrum holds
        # every root of every block poly
        calls = []

        def spy(name):
            real = getattr(rowsum, name)

            def counted(*args):
                calls.append(name)
                return real(*args)

            return counted

        for name in ("_float_radius", "perron_root_exact"):
            monkeypatch.setattr(rowsum, name, spy(name))
        rng = random.Random(3)
        for _ in range(5):
            A, values = planted_reducible(rng, layout)
            _shifted, cert = ur_shift(A, Spectrum.from_values(values), F(1, 3))
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


def test_ur_shift_matches_golden_digest():
    rng = random.Random(2041)
    digest = hashlib.sha256()
    for i in range(40):
        if i % 2:
            C, values = suleimanova_companion(rng, rng.randint(4, 6))
            A = scramble(rng, C)
        else:
            A, values = random_cs_matrix(rng, rng.randint(2, 5))
        eps = (F(0), F(1, 3), F(2))[i % 3]
        _shifted, cert = ur_shift(A, Spectrum.from_values(values), eps)
        digest.update(json.dumps(cert.to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == UR_SHIFT_GOLDEN_SHA256


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
