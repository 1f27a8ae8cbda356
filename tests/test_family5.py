import math
import random
from fractions import Fraction as F

import pytest

from nnspectra.core import RationalMatrix, Spectrum, char_poly, poly_from_roots
from nnspectra.errors import (
    ConstructionUnavailableError,
    DomainError,
    EntrySignError,
    NotRealizableError,
)
from nnspectra.family5 import (
    companion4,
    demo_forced_coupling,
    demo_guo_collapse,
    demo_union_obstruction,
    diagonalizable_realization,
    feasible_d1,
    make_point,
    region_boundary,
    region_grid,
    region_member,
    region_rows,
    torre_realizable,
    torre_realizable_point,
)


class TestMakePoint:
    def test_first_worked_point(self):
        p = make_point("t", 1, "4/5")
        assert p.values == (F(14, 5), F(11, 5), F(-1), F(-2), F(-2))
        assert sum(p.values) == 0
        # degree-4 sub-list coefficients: -k2 = 171/25 etc.
        gamma = p.gamma1_coeffs()
        assert gamma == [F(1), F(-2), F(-171, 25), F(212, 25), F(308, 25)]

    def test_second_worked_point(self):
        p = make_point("tprime", "1/2", "3/10")
        assert p.values == (F(19, 5), F(27, 10), F(-2), F(-2), F(-5, 2))

    def test_dual_computation_agrees_on_random_points(self):
        rng = random.Random(101)
        count = 0
        while count < 100:
            fam = rng.choice(["t", "tprime", "pm"])
            t0 = F(rng.randint(1, 199), 100)
            t = F(rng.randint(1, 299), 100)
            try:
                if fam == "pm":
                    p = make_point(fam, 0, t)
                else:
                    p = make_point(fam, t0, t)
            except DomainError:
                continue
            # make_point cross-checks internally; also re-verify here
            assert poly_from_roots(p.values)[2:] == list(p.coeffs)
            assert sum(p.values) == 0
            count += 1

    def test_out_of_domain_rejected(self):
        with pytest.raises(DomainError):
            make_point("t", "5/2", 1)  # t0 >= 2
        with pytest.raises(DomainError):
            make_point("t", 1, "1/4")  # t0 >= 2t
        with pytest.raises(DomainError):
            make_point("pm", 0, 4)
        with pytest.raises(DomainError):
            make_point("tprime", "1/2", "-3/4")  # t0 <= -2t


class TestTorre:
    def test_zero_spectrum_realizable(self):
        assert torre_realizable(0, 0, 0, 0).realizable

    def test_threshold_flip_near_0_43799(self):
        below = make_point("pm", 0, F(4379, 10000))
        above = make_point("pm", 0, F(4381, 10000))
        assert not torre_realizable_point(below).realizable
        assert torre_realizable_point(above).realizable

    def test_failing_condition_detail(self):
        v = torre_realizable(1, 0, 0, 0)
        assert not v.realizable and v.failed_condition == "a"
        v = torre_realizable(0, 0, 1, 0)
        assert not v.realizable and v.failed_condition == "b"
        v = torre_realizable(-1, -1, -1, 5)
        assert not v.realizable and v.failed_condition == "c"

    def test_total_function_on_arbitrary_rationals(self):
        rng = random.Random(103)
        for _ in range(50):
            ks = [F(rng.randint(-20, 20), rng.randint(1, 4)) for _ in range(4)]
            torre_realizable(*ks)  # must not raise

    def test_agrees_with_region_on_coarse_grid(self):
        for t0, t in region_grid("t", F(1, 20)):
            point = make_point("t", t0, t)
            assert torre_realizable_point(point).realizable == region_member(
                "t", t0, t
            ).member


class TestRegion:
    def test_boundary_at_t0_one(self):
        ref = (1 + math.sqrt(48 * math.sqrt(5) - 107)) / 2
        assert abs(region_boundary("t", 1) - ref) <= 1e-12
        assert region_member("t", 1, "4/5").member

    def test_boundary_tprime_at_half(self):
        ref = (-1 + math.sqrt(144 * math.sqrt(26) - 731)) / 4
        assert abs(region_boundary("tprime", "1/2") - ref) <= 1e-12
        assert region_member("tprime", "1/2", "3/10").member

    def test_t0_to_zero_limit_meets_pm_threshold(self):
        lim = region_boundary("t", F(1, 10**6))
        assert abs(lim - math.sqrt(16 * math.sqrt(6) - 39)) <= 1e-3

    def test_symmetric_flag(self):
        assert not region_member("t", 1, "4/5").symmetric_realizable
        assert region_member("pm", 0, 2).symmetric_realizable

    def test_domain_enforced(self):
        with pytest.raises(DomainError):
            region_member("t", 1, "2/5")  # t0 >= 2t: outside triangle T
        with pytest.raises(DomainError):
            region_member("tprime", "1/2", "3/5")  # t0 + t >= 1

    def test_rows_schema(self):
        rows = region_rows("tprime", F(1, 4))
        assert all(len(r) == 5 for r in rows)
        assert ("1/4", "1/2", 1, 1, 0) in rows
        assert ("1/4", "1/4", 0, 0, 0) in rows  # below the 0.3257... boundary


class TestCompanion4:
    def test_first_worked_matrix(self):
        p = make_point("t", 1, "4/5")
        A, params = companion4(p.gamma1_coeffs(), "11/2")
        assert A == RationalMatrix(
            [
                ["0", "1", "0", "0"],
                ["11/2", "0", "1", "0"],
                ["63/25", "0", "0", "1"],
                ["9/100", "0", "67/50", "2"],
            ]
        )
        assert (params.b, params.a, params.d3) == (F(63, 25), F(9, 100), F(67, 50))
        assert [A[i, i] for i in range(4)] == [0, 0, 0, 2]

    def test_second_worked_matrix(self):
        p = make_point("tprime", "1/2", "3/10")
        A, params = companion4(p.gamma1_coeffs(), 9)
        assert (params.b, params.a, params.d3) == (
            F(433, 100),
            F(227, 100),
            F(499, 100),
        )

    def test_char_poly_reproduces_input(self):
        rng = random.Random(107)
        count = 0
        while count < 20:
            t0 = F(rng.randint(1, 199), 100)
            t = F(rng.randint(1, 99), 100)
            try:
                p = make_point("t", t0, t)
            except DomainError:
                continue
            gamma = p.gamma1_coeffs()
            interval = feasible_d1(gamma)
            if interval.empty:
                continue
            d1 = F(int(math.ceil(interval.lo * 64)), 64)
            if not interval.contains(d1):
                continue
            A, _ = companion4(gamma, d1)
            assert char_poly(A) == gamma
            count += 1

    def test_out_of_interval_names_the_entry(self):
        p = make_point("t", 1, "4/5")
        with pytest.raises(EntrySignError) as err:
            companion4(p.gamma1_coeffs(), 100)
        assert "negative for d1" in str(err.value)
        with pytest.raises(EntrySignError) as err:
            companion4(p.gamma1_coeffs(), "13/2")  # a turns negative first
        assert "entry a" in str(err.value)


class TestFeasibleInterval:
    def test_first_worked_interval(self):
        p = make_point("t", 1, "4/5")
        interval = feasible_d1(p.gamma1_coeffs())
        lo_ref = (271 - math.sqrt(241)) / 50
        hi_ref = (271 + math.sqrt(241)) / 50
        assert abs(interval.lo - lo_ref) <= 1e-9
        assert abs(interval.hi - hi_ref) <= 1e-9

    def test_second_worked_interval(self):
        p = make_point("tprime", "1/2", "3/10")
        interval = feasible_d1(p.gamma1_coeffs())
        lo_ref = (1799 - 9 * math.sqrt(1121)) / 200
        hi_ref = (1799 + 9 * math.sqrt(1121)) / 200
        assert abs(interval.lo - lo_ref) <= 1e-9
        assert abs(interval.hi - hi_ref) <= 1e-9

    def test_negative_discriminant_is_empty(self):
        # a(d1) = -d1^2 + 0*d1 - 1 < 0 always: k2 = 4, k3 = 0, k4 = 1:
        # coefficients [1, -2, 4, 0, 1]
        interval = feasible_d1([1, -2, 4, 0, 1])
        assert interval.empty

    def test_interior_entries_nonnegative(self):
        p = make_point("t", 1, "4/5")
        gamma = p.gamma1_coeffs()
        interval = feasible_d1(gamma)
        for num in range(1, 8):
            d1 = F(
                int(interval.lo * 1000) + num * (int(interval.hi * 1000) - int(interval.lo * 1000)) // 8,
                1000,
            )
            if interval.contains(d1):
                A, _ = companion4(gamma, d1)
                assert A.is_nonnegative


class TestDiagonalizableRealization:
    def test_first_worked_certificate(self):
        cert = diagonalizable_realization(make_point("t", 1, "4/5"), "11/2")
        assert cert.verdict
        assert cert.claimed_jordan.is_diagonal
        assert cert.claimed_spectrum == Spectrum.from_values(
            ["14/5", "11/5", -1, -2, -2]
        )

    def test_second_worked_certificate(self):
        cert = diagonalizable_realization(make_point("tprime", "1/2", "3/10"), 9)
        assert cert.verdict

    def test_auto_d1(self):
        cert = diagonalizable_realization(make_point("t", 1, "4/5"))
        assert cert.verdict

    def test_pm_unavailable(self):
        with pytest.raises(ConstructionUnavailableError):
            diagonalizable_realization(make_point("pm", 0, 2))

    def test_outside_region_rejected(self):
        point = make_point("t", 1, "3/5")  # below the 0.7877... threshold
        with pytest.raises(NotRealizableError):
            diagonalizable_realization(point)

    def test_grid_sweep_produces_certified_realizations(self):
        count = 0
        for t0, t in region_grid("t", F(1, 10)):
            if not region_member("t", t0, t).member:
                continue
            point = make_point("t", t0, t)
            if feasible_d1(point.gamma1_coeffs()).empty:
                continue
            cert = diagonalizable_realization(point)
            assert cert.verdict
            count += 1
        assert count >= 5


class TestDemos:
    def test_guo_collapse_narrative(self):
        demo = demo_guo_collapse()
        assert demo.original_member
        assert not demo.spector_flag  # t = 4/5 < 1
        assert demo.collapsed == (F(19, 5), F(11, 5), F(-2), F(-2), F(-2))
        assert demo.collapsed_list_realizable  # as a list (t >= 0.43799...)
        assert "diagonalizable" in demo.diagonalizable_path_error

    def test_union_obstruction_small_run(self):
        demo = demo_union_obstruction(samples=500, seed=3)
        assert demo.forbidden_hits == 0
        assert demo.perron_diagonal_samples > 0
        # diagonal Perron structure forces zero coupling
        assert demo.perron_diagonal_with_coupling == 0

    def test_forced_coupling_sum_iff_zero(self):
        demo = demo_forced_coupling(samples=8, seed=5)
        for inst in demo.instances:
            assert inst["sum_is_zero"] == inst["C_is_zero"]
