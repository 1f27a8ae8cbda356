"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import filecmp
import json
import math
import os
import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from nnspectra.bonding import bonded_jordan_claim, smigoc_bond
from nnspectra.cli import dispatch
from nnspectra.core import (
    RationalMatrix,
    Spectrum,
    char_poly,
    matrix_from_json,
    poly_mul,
    poly_sub,
    solve,
    synthetic_div,
)
from nnspectra.errors import PerronNotSimple
from nnspectra.family5 import (
    demo_union_obstruction,
    feasible_d1,
    make_point,
    region_boundary,
    region_grid,
    region_member,
    torre_realizable_point,
)
from nnspectra.jcfcert import jordan_spec, rational_spectrum_of, weyr_sequence
from nnspectra.perturb import rank_one_shift
from nnspectra.rowsum import to_constant_row_sums

from conftest import (
    random_cs_matrix,
    random_invertible,
    random_jordan_spec,
    random_realization_with_rational_spectrum,
)
from test_bonding import (
    _random_bond_instance,
    _random_triangular_bond_instance,
)


def _report(number, text):
    print("ACCEPTANCE %d PASS: %s" % (number, text))


A55_EXPECTED = RationalMatrix(
    [
        ["0", "1", "0", "0"],
        ["11/2", "0", "1", "0"],
        ["63/25", "0", "0", "1"],
        ["9/100", "0", "67/50", "2"],
    ]
)
C55_EXPECTED = RationalMatrix(
    [
        ["0", "1", "0", "0", "0"],
        ["11/2", "0", "1", "0", "0"],
        ["63/25", "0", "0", "1/2", "1/2"],
        ["9/100", "0", "67/50", "0", "2"],
        ["9/100", "0", "67/50", "2", "0"],
    ]
)


def test_criterion_1_first_reconstruction(tmp_path):
    start = time.perf_counter()
    out = str(tmp_path / "cert.json")
    rc = dispatch(
        ["realize5", "--family", "t", "--t0", "1", "--t", "4/5", "--d1", "11/2", "--out", out]
    )
    assert rc == 0
    blob = json.loads(Path(out).read_text())
    C = matrix_from_json(blob["certificate"]["matrix"])
    assert C == C55_EXPECTED
    # the 4x4 stage, rebuilt directly
    from nnspectra.family5 import companion4

    point = make_point("t", 1, "4/5")
    A, _ = companion4(point.gamma1_coeffs(), "11/2")
    assert A == A55_EXPECTED
    # NOTE: the d3 entry is 67/50 = 1.34, fixed by d3 = 171/25 - d1; the
    # printed source value 2.58 is inconsistent with the char poly below.
    assert char_poly(A) == [F(1), F(-2), F(-171, 25), F(212, 25), F(308, 25)]
    assert blob["certificate"]["verdict"] == "pass"
    assert blob["list"] == ["14/5", "11/5", "-1", "-2", "-2"]
    jordan = blob["certificate"]["jordan"]["blocks"]
    assert all(sizes == [1] * len(sizes) for _v, sizes in jordan)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, "A(11/2) and C(11/2) reconstructed exactly in %.3fs" % elapsed)


def test_criterion_2_second_reconstruction(tmp_path):
    out = str(tmp_path / "cert.json")
    rc = dispatch(
        ["realize5", "--family", "tprime", "--t0", "1/2", "--t", "3/10", "--d1", "9", "--out", out]
    )
    assert rc == 0
    blob = json.loads(Path(out).read_text())
    C = matrix_from_json(blob["certificate"]["matrix"])
    for value in (F(433, 100), F(227, 100), F(499, 100)):
        assert any(v == value for row in C.entries() for v in row)
    point = make_point("tprime", "1/2", "3/10")
    gamma = point.gamma1_coeffs()
    assert gamma == [F(1), F(-2), F(-1399, 100), F(1367, 100), F(513, 10)]
    interval = feasible_d1(gamma)
    lo_ref = (1799 - 9 * math.sqrt(1121)) / 200
    hi_ref = (1799 + 9 * math.sqrt(1121)) / 200
    assert abs(interval.lo - lo_ref) <= 1e-9
    assert abs(interval.hi - hi_ref) <= 1e-9
    assert blob["certificate"]["verdict"] == "pass"
    _report(2, "A(9)/C(9) entries and the d1 interval match to 1e-9")


def test_criterion_3_thresholds():
    b3 = region_boundary("t", 1)
    assert abs(b3 - (1 + math.sqrt(48 * math.sqrt(5) - 107)) / 2) <= 1e-6
    assert abs(b3 - 0.7877772) <= 1e-6
    b4 = region_boundary("tprime", "1/2")
    assert abs(b4 - (-1 + math.sqrt(144 * math.sqrt(26) - 731)) / 4) <= 1e-6
    assert abs(b4 - 0.2013044) <= 1e-6
    limit = region_boundary("t", F(1, 10**6))
    assert abs(limit - math.sqrt(16 * math.sqrt(6) - 39)) <= 1e-3
    _report(3, "boundaries 0.787777, 0.201304 and the t0->0 limit 0.437991 check out")


def test_criterion_4_formula_oracle_equivalence():
    start = time.perf_counter()
    disagreements = 0
    total = 0
    for family in ("t", "tprime"):
        for t0, t in region_grid(family, F(1, 100)):
            point = make_point(family, t0, t)
            exact = torre_realizable_point(point).realizable
            boundary = region_member(family, t0, t).member
            total += 1
            if exact != boundary:
                disagreements += 1
    elapsed = time.perf_counter() - start
    assert disagreements == 0
    assert elapsed < 30.0
    _report(
        4,
        "coefficient test == boundary test at all %d grid points (%.1fs)"
        % (total, elapsed),
    )


def test_criterion_5_row_sum_normalization():
    rng = random.Random(2024)
    for trial in range(500):
        A, spectrum = random_realization_with_rational_spectrum(rng)
        result = to_constant_row_sums(A, mode="exact")
        B = result.B
        lam = spectrum.perron
        assert B.is_nonnegative
        assert B.row_sums() == tuple([lam] * A.rows)
        assert char_poly(B) == char_poly(A)
        assert jordan_spec(B, spectrum) == jordan_spec(A, spectrum)
        assert solve(result.S, A @ result.S) == B
    for witness in ([[1, 0], [1, 1]], [[2, 0, 0], [0, 2, 0], [2, 0, 1]]):
        with pytest.raises(PerronNotSimple):
            to_constant_row_sums(RationalMatrix(witness), mode="exact")
    _report(5, "500 randomized normalizations exact; both witnesses rejected")


def test_criterion_6_guo_shift_properties():
    rng = random.Random(2025)
    for trial in range(200):
        B, values = random_cs_matrix(rng, rng.randint(2, 6))
        lam = max(values)
        n = B.rows
        eps = F(rng.randint(1, 6), rng.randint(1, 4))
        shifted = rank_one_shift(B, [eps / n] * n)
        quotient, rem = synthetic_div(char_poly(B), lam)
        assert rem == 0
        assert char_poly(shifted) == poly_mul(quotient, [F(1), -(lam + eps)])
        for v in set(values):
            if v != lam:
                assert weyr_sequence(shifted, v) == weyr_sequence(B, v)
    _report(6, "200 uniform shifts swap exactly one factor and keep all other Weyr data")


def test_criterion_7_bond_identity():
    rng = random.Random(2026)
    jordan_checked = 0
    for trial in range(200):
        if trial % 2 == 0:
            A, B, c, u, v = _random_bond_instance(rng)
        else:
            A, B, c, u, v = _random_triangular_bond_instance(rng, upper=trial % 4 == 1)
        C = smigoc_bond(A, B, c, u, v)
        lhs = poly_mul(char_poly(C), [F(1), -c])
        rhs = poly_mul(char_poly(A), char_poly(B))
        assert poly_sub(lhs, rhs) == [F(0)]
        spec_a = rational_spectrum_of(A)
        spec_b = rational_spectrum_of(B)
        if spec_a is None or spec_b is None:
            continue
        claim = bonded_jordan_claim(
            jordan_spec(A, spec_a), jordan_spec(B, spec_b), c
        )
        values = list(spec_a.values()) + list(spec_b.values())
        values.remove(c)
        assert jordan_spec(C, Spectrum.from_values(values)) == claim
        jordan_checked += 1
    assert jordan_checked >= 80
    _report(
        7,
        "200 bonds satisfy the char identity; Jordan union verified on %d "
        "rational-spectrum cases" % jordan_checked,
    )


def test_criterion_8_union_obstruction():
    start = time.perf_counter()
    demo = demo_union_obstruction(samples=10000, seed=0)
    elapsed = time.perf_counter() - start
    assert demo.forbidden_hits == 0
    assert demo.perron_diagonal_samples > 0
    assert demo.perron_diagonal_with_coupling == 0
    assert elapsed < 60.0
    _report(
        8,
        "10000 block realizations of {1,1,-1,-1}: 0 forbidden Jordan forms; "
        "all %d diagonal-Perron samples decoupled (%.1fs)"
        % (demo.perron_diagonal_samples, elapsed),
    )


def test_criterion_9_jcf_plant_and_recover():
    rng = random.Random(2027)
    for trial in range(500):
        spec = random_jordan_spec(rng, rng.randint(2, 7))
        J = spec.jordan_matrix()
        S = random_invertible(rng, spec.order)
        A = solve(S, J @ S)
        assert jordan_spec(A, spec.spectrum()) == spec
    _report(9, "500 random similarities of random Jordan structures recovered exactly")


def _run_all_commands(base, tag):
    root = os.path.join(base, tag)
    os.makedirs(root)
    m_circ = os.path.join(base, "circ.json")
    m_tri = os.path.join(base, "tri.json")
    m_a = os.path.join(base, "a.json")
    s_circ = os.path.join(base, "s.json")
    qfile = os.path.join(base, "q.json")
    if tag == "run1":
        for path, blob in [
            (m_circ, {"rows": 2, "cols": 2, "entries": [["0", "2"], ["2", "0"]]}),
            (m_tri, {"rows": 2, "cols": 2, "entries": [["3", "0"], ["1", "1"]]}),
            (m_a, {"rows": 2, "cols": 2, "entries": [["1", "1"], ["2", "2"]]}),
            (s_circ, {"values": ["2", "-2"]}),
            (qfile, {"values": ["1/4", "1/4"]}),
        ]:
            Path(path).write_text(json.dumps(blob))
    outputs = {
        "normalize.json": ["normalize", "--in", m_tri, "--mode", "exact"],
        "guo.json": ["guo-shift", "--in", m_circ, "--q", qfile, "--spectrum", s_circ],
        "bond.json": ["bond", "--a", m_a, "--b", m_circ, "--c", "2"],
        "realize5.json": [
            "realize5", "--family", "t", "--t0", "1", "--t", "4/5", "--d1", "auto",
        ],
        "region.csv": ["region", "--family", "tprime", "--grid-step", "1/25"],
        "verify.json": ["verify", "--matrix", m_circ, "--spectrum", s_circ],
        "forms.json": ["jordan-forms", "--spectrum", s_circ],
    }
    written = []
    for name, argv in outputs.items():
        path = os.path.join(root, name)
        assert dispatch(argv + ["--out", path]) == 0
        written.append(name)
    demo_dir = os.path.join(root, "demo")
    assert dispatch(["demo", "--out-dir", demo_dir, "--samples", "400"]) == 0
    for name in sorted(os.listdir(demo_dir)):
        written.append(os.path.join("demo", name))
    return root, written


def test_criterion_10_cli_determinism(tmp_path):
    base = str(tmp_path)
    root1, files1 = _run_all_commands(base, "run1")
    root2, files2 = _run_all_commands(base, "run2")
    assert files1 == files2
    for name in files1:
        p1, p2 = os.path.join(root1, name), os.path.join(root2, name)
        assert filecmp.cmp(p1, p2, shallow=False), "artifact %s differs" % name
    _report(10, "all 8 subcommands byte-identical across repeated runs (%d artifacts)" % len(files1))
