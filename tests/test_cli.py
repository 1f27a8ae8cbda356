import collections
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from nnspectra import bonding, cli, core, family5, jcfcert, rowsum
from nnspectra.cli import dispatch
from nnspectra.core import RationalMatrix, matrix_from_json, matrix_to_json


@pytest.fixture
def workdir(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return tmp_path, write


CIRC = {"rows": 2, "cols": 2, "entries": [["0", "2"], ["2", "0"]]}
CIRC_SPECTRUM = {"values": ["2", "-2"]}


class TestNormalize:
    def test_exact_output(self, workdir):
        tmp, write = workdir
        infile = write("A.json", {"rows": 2, "cols": 2, "entries": [["3", "0"], ["1", "1"]]})
        out = str(tmp / "out.json")
        assert dispatch(["normalize", "--in", infile, "--mode", "exact", "--out", out]) == 0
        blob = json.loads(Path(out).read_text())
        assert blob["mode"] == "exact"
        assert blob["lambda"] == "3"
        assert matrix_from_json(blob["B"]).row_sums() == (3, 3)

    def test_perron_not_simple_is_usage_error(self, workdir):
        tmp, write = workdir
        infile = write("W.json", {"rows": 2, "cols": 2, "entries": [["1", "0"], ["1", "1"]]})
        assert dispatch(["normalize", "--in", infile, "--mode", "exact"]) == 1

    def test_zero_denominator_entry_is_domain_error(self, workdir, capsys):
        tmp, write = workdir
        infile = write("Z.json", {"rows": 2, "cols": 2, "entries": [["1/0", "2"], ["2", "0"]]})
        assert dispatch(["normalize", "--in", infile]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'1/0'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("mode", ["auto", "float"])
    def test_entry_beyond_float_range_is_domain_error(self, workdir, capsys, mode):
        # the Perron root of [[10^4000, 1], [1, 1]] is irrational, so auto mode
        # tries float mode after the exact attempt
        tmp, write = workdir
        infile = write("big.json", {"rows": 2, "cols": 2, "entries": [["1e4000", "1"], ["1", "1"]]})
        assert dispatch(["normalize", "--in", infile, "--mode", mode]) == 1
        err = capsys.readouterr().err
        assert err == "error: entry (0,0) is beyond the float64 range\n"

    @pytest.mark.parametrize("mode", ["auto", "float"])
    def test_entry_below_float_range_is_domain_error(self, workdir, capsys, mode):
        # the Perron root sqrt(2) 10^-400 is simple, but both entries round
        # to 0.0 in float64: the refusal names the first of them
        tmp, write = workdir
        entries = [["0", "2e-400"], ["1e-400", "0"]]
        infile = write("tiny.json", {"rows": 2, "cols": 2, "entries": entries})
        assert dispatch(["normalize", "--in", infile, "--mode", mode]) == 1
        err = capsys.readouterr().err
        assert err == "error: entry (0,1) is below the float64 range\n"

    @pytest.mark.parametrize(
        "entries, advice",
        [
            ([["0", "2"], ["1", "0"]], "rerun in float mode"),
            (
                [["0", "2e-400"], ["1e-400", "0"]],
                "entry (0,1) is below the float64 range, so floating point cannot "
                "take this input either",
            ),
            (
                # a strongly graded Perron vector, about (1, 1e-18, 1e-9)
                [["2", "1", "0"], ["0", "1", "1e-9"], ["1e-9", "0", "1"]],
                "float row sums deviate beyond 1e-9, so floating point cannot "
                "take this input either",
            ),
        ],
        ids=["sqrt2", "underflow", "graded"],
    )
    def test_exact_mode_advises_float_mode_only_where_it_runs(
        self, workdir, capsys, entries, advice
    ):
        # every Perron root is irrational; float mode refuses the last two
        # inputs, so exact mode must not send the user there, and it gives
        # float mode's own reason instead
        tmp, write = workdir
        n = len(entries)
        infile = write("irrational.json", {"rows": n, "cols": n, "entries": entries})
        assert dispatch(["normalize", "--in", infile, "--mode", "exact"]) == 1
        err = capsys.readouterr().err
        assert err == "error: the Perron root appears irrational; %s\n" % advice
        if advice != "rerun in float mode":
            assert "float mode" not in err
            assert dispatch(["normalize", "--in", infile, "--mode", "float"]) == 1
            reason = advice.split(", so floating point")[0]
            assert capsys.readouterr().err == "error: %s\n" % reason

    def test_entry_beyond_float_range_in_exact_mode(self, workdir):
        tmp, write = workdir
        infile = write("big.json", {"rows": 2, "cols": 2, "entries": [["1e4000", "0"], ["1", "1"]]})
        out = str(tmp / "out.json")
        assert dispatch(["normalize", "--in", infile, "--mode", "exact", "--out", out]) == 0
        blob = json.loads(Path(out).read_text())
        assert blob["lambda"] == str(10**4000)
        assert matrix_from_json(blob["B"]).row_sums() == (10**4000,) * 2


class TestGuoShift:
    def test_uniform_eps(self, workdir):
        tmp, write = workdir
        infile = write("B.json", CIRC)
        spectrum = write("s.json", CIRC_SPECTRUM)
        out = str(tmp / "g.json")
        rc = dispatch(
            ["guo-shift", "--in", infile, "--eps", "1", "--spectrum", spectrum, "--out", out]
        )
        assert rc == 0
        blob = json.loads(Path(out).read_text())
        assert matrix_from_json(blob["result"]) == RationalMatrix(
            [["1/2", "5/2"], ["5/2", "1/2"]]
        )

    @pytest.mark.parametrize(
        "values", [["2", "5"], ["2", "-2", "1"]], ids=["wrong-value", "three-values"]
    )
    def test_spectrum_claim_checked(self, workdir, capsys, values):
        tmp, write = workdir
        infile = write("B.json", CIRC)
        assert dispatch(["guo-shift", "--in", infile, "--eps", "3"]) == 0
        capsys.readouterr()
        spectrum = write("s.json", {"values": values})
        argv = ["guo-shift", "--in", infile, "--eps", "3", "--spectrum", spectrum]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert "does not match the claimed spectrum" in err
        assert "collides" not in err

    def test_spectrum_claim_runs_no_weyr_pass(self, workdir, monkeypatch):
        # guo-shift needs only the char-poly match, not the Jordan structure
        calls = []
        monkeypatch.setattr(jcfcert, "weyr_sequence", lambda *args: calls.append(args))
        tmp, write = workdir
        infile = write("B.json", CIRC)
        spectrum = write("s.json", CIRC_SPECTRUM)
        argv = ["guo-shift", "--in", infile, "--eps", "1", "--spectrum", spectrum]
        assert dispatch(argv + ["--out", str(tmp / "g.json")]) == 0
        assert calls == []

    @staticmethod
    def _char_poly_spy(monkeypatch):
        """The integer rows every char poly runs on (the Berkowitz over Z),
        from every module that holds it: core's, behind char_poly's Fraction
        view, rowsum's radius pass, jcfcert's claim comparison and split
        test, bonding's identity and family5's union check."""
        seen = []
        real_int = core._char_poly_int
        for module in (core, rowsum, jcfcert, bonding, family5):
            monkeypatch.setattr(module, "_char_poly_int", lambda N: seen.append(N) or real_int(N))
        return seen

    @pytest.mark.parametrize("claim", [False, True], ids=["no-claim", "claim"])
    def test_shift_takes_no_char_poly(self, workdir, monkeypatch, claim):
        # the shift's preconditions are two one-prime singularity tests, and
        # the Krylov basis proves a claim on the nonderogatory CIRC
        seen = self._char_poly_spy(monkeypatch)
        tmp, write = workdir
        out = tmp / "g.json"
        argv = ["guo-shift", "--in", write("B.json", CIRC), "--eps", "1", "--out", str(out)]
        if claim:
            argv += ["--spectrum", write("s.json", CIRC_SPECTRUM)]
        assert dispatch(argv) == 0
        assert seen == []
        assert json.loads(out.read_text())["result"]["entries"] == [["1/2", "5/2"], ["5/2", "1/2"]]

    def test_derogatory_claim_takes_one_char_poly(self, workdir, monkeypatch):
        # the all-ones 3x3 has 0 in two Jordan blocks, so no Krylov basis
        # exists: _match_spectrum's integer char poly of B is the only one
        seen = self._char_poly_spy(monkeypatch)
        tmp, write = workdir
        ones = {"rows": 3, "cols": 3, "entries": [["1"] * 3] * 3}
        out = tmp / "g.json"
        argv = ["guo-shift", "--in", write("B.json", ones), "--eps", "1", "--out", str(out)]
        argv += ["--spectrum", write("s.json", {"values": ["3", "0", "0"]})]
        assert dispatch(argv) == 0
        assert seen == [matrix_from_json(ones).num]
        assert json.loads(out.read_text())["result"]["entries"] == [["4/3"] * 3] * 3

    def test_result_beyond_the_digit_limit_is_one_error_line(self, workdir, capsys):
        # every entry of B and eps fit the interpreter's int/str limit, but
        # B + (eps/n) e e^T has denominators 2^13001 3^8000, about 7700 digits
        tmp, write = workdir
        entry = "1/%d" % 2**13000
        infile = write("B.json", {"rows": 2, "cols": 2, "entries": [[entry] * 2] * 2})
        out = tmp / "g.json"
        argv = ["guo-shift", "--in", infile, "--eps", "1/%d" % 3**8000, "--out", str(out)]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: an output number has more than %d digits, past the interpreter's "
            "limit for converting an integer to a string\n" % sys.get_int_max_str_digits()
        )
        assert not out.exists()

    def test_right_claim_with_colliding_q(self, workdir, capsys):
        tmp, write = workdir
        infile = write("B.json", CIRC)
        spectrum = write("s.json", CIRC_SPECTRUM)
        qfile = write("q.json", {"values": ["-2", "-2"]})  # lambda1 + sum(q) = -2
        argv = ["guo-shift", "--in", infile, "--q", qfile, "--spectrum", spectrum]
        assert dispatch(argv) == 1
        assert "collides with another eigenvalue" in capsys.readouterr().err

    def test_explicit_q_with_negativity_loss(self, workdir):
        tmp, write = workdir
        infile = write("B.json", CIRC)
        qfile = write("q.json", {"values": ["1", "-1"]})
        assert dispatch(["guo-shift", "--in", infile, "--q", qfile]) == 1

    def test_missing_eps_and_q(self, workdir):
        tmp, write = workdir
        infile = write("B.json", CIRC)
        assert dispatch(["guo-shift", "--in", infile]) == 1

    def test_eps_and_q_together_refused(self, workdir, capsys):
        # the two shifts are exclusive: neither is silently preferred
        tmp, write = workdir
        infile, qfile = write("B.json", CIRC), write("q.json", {"values": ["1", "1"]})
        out = tmp / "g.json"
        argv = ["guo-shift", "--in", infile, "--eps", "1", "--q", qfile, "--out", str(out)]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: argument --q: not allowed with argument --eps"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, digest",
        [
            (["--eps", "1"], "99973dfe58428d2317af1a961db11303dd928ff9734258c535025edaaee1e0c9"),
            (["--q", "q"], "850bd2fc11a8a89026aa4080773ff1ea9006ad333c8396a822fa76d9cac95bea"),
        ],
        ids=["eps", "q"],
    )
    def test_one_cs_test_of_b(self, workdir, monkeypatch, flags, digest):
        # rank_one_shift proves B's CS form, and the artifact's lambda is read
        # off B's first row: B is tested once, the shifted result once
        seen = []
        real = rowsum.constant_row_sum_value
        for name, module in list(sys.modules.items()):
            if not name.startswith("nnspectra"):
                continue
            if getattr(module, "constant_row_sum_value", None) is real:
                monkeypatch.setattr(
                    module, "constant_row_sum_value", lambda M: seen.append(M) or real(M)
                )
        tmp, write = workdir
        half = {"rows": 2, "cols": 2, "entries": [["1/2", "1"], ["1", "1/2"]]}
        flags = [write("q.json", {"values": ["1/4", "-1/4"]}) if f == "q" else f for f in flags]
        out = tmp / "g.json"
        argv = ["guo-shift", "--in", write("B.json", half)] + flags + ["--out", str(out)]
        assert dispatch(argv) == 0
        result = matrix_from_json(json.loads(out.read_text())["result"])
        assert seen == [matrix_from_json(half), result]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestNegativeValues:
    """A negative rational reaches rat in every spelling: "-1/2" is a value,
    as "-0.5" and "--t=-1/2" are, not an unknown option."""

    POSITIVE = {"rows": 2, "cols": 2, "entries": [["1", "2"], ["2", "1"]]}

    @pytest.mark.parametrize(
        "command, flag, spellings",
        [
            (["realize5", "--family", "tprime", "--t0", "3/2"], "--t", ["-1/2", "-0.5", "-.5"]),
            (["guo-shift", "--in", "B.json"], "--eps", ["-1/4", "-0.25", "-25e-2"]),
            # -1/3 has no decimal spelling; "--eps=-1/3" parsed before
            (["guo-shift", "--in", "B.json"], "--eps", ["-1/3"]),
        ],
        ids=["realize5", "guo-shift", "guo-shift-third"],
    )
    def test_fraction_spelling_matches_decimal(self, workdir, command, flag, spellings):
        tmp, write = workdir
        command = [write("B.json", self.POSITIVE) if a == "B.json" else a for a in command]
        results = []
        for value in spellings:
            for argv in (command + [flag, value], command + ["%s=%s" % (flag, value)]):
                out = tmp / ("out%d.json" % len(results))
                results.append((dispatch(argv + ["--out", str(out)]), out.read_bytes()))
        assert results[0][0] == 0
        assert results == [results[0]] * len(results)

    def test_option_names_still_parse(self, capsys):
        # a dash before a letter still starts an option
        assert dispatch(["realize5", "--family", "t", "--t", "-x"]) == 1
        assert capsys.readouterr().err == "error: argument --t: expected one argument\n"


class TestBond:
    def test_bond_command(self, workdir):
        tmp, write = workdir
        a = write(
            "a.json",
            matrix_to_json(
                RationalMatrix([["1", "1"], ["2", "2"]])  # spectrum {3, 0}, corner 2
            ),
        )
        b = write("b.json", CIRC)
        out = str(tmp / "c.json")
        rc = dispatch(["bond", "--a", a, "--b", b, "--c", "2", "--out", out])
        assert rc == 0
        blob = json.loads(Path(out).read_text())
        C = matrix_from_json(blob["result"])
        assert C.rows == 3
        assert blob["certificate"]["verdict"] == "pass"

    def test_irrational_factor_gives_reason_and_exit_2(self, workdir, capsys):
        # A has an irreducible cubic characteristic polynomial, so no exact
        # spectrum and no certificate; the bond itself still succeeds
        tmp, write = workdir
        a = write("a.json", matrix_to_json(RationalMatrix([[1, 1, 0], [1, 0, 1], [0, 1, 2]])))
        b = write("b.json", CIRC)
        out = str(tmp / "c.json")
        assert dispatch(["bond", "--a", a, "--b", b, "--c", "2", "--out", out]) == 2
        blob = json.loads(Path(out).read_text())
        assert matrix_from_json(blob["result"]).rows == 4
        assert blob["certificate"] is None
        assert blob["reason"].startswith("no exact certificate")
        assert capsys.readouterr().err == blob["reason"] + "\n"


class TestRealize5:
    def test_worked_reconstruction(self, workdir):
        tmp, write = workdir
        out = str(tmp / "cert.json")
        rc = dispatch(
            ["realize5", "--family", "t", "--t0", "1", "--t", "4/5", "--d1", "11/2", "--out", out]
        )
        assert rc == 0
        blob = json.loads(Path(out).read_text())
        assert blob["certificate"]["verdict"] == "pass"
        assert blob["list"] == ["14/5", "11/5", "-1", "-2", "-2"]

    def test_domain_error_exit_code(self, workdir):
        assert dispatch(["realize5", "--family", "t", "--t0", "3", "--t", "1"]) == 1

    @pytest.mark.parametrize(
        "t0, t, interval",
        [
            ("2/5", "3/5", {"lo": "6.4", "hi": "6.88", "lo_exact": "32/5", "hi_exact": "172/25"}),
            (
                "1",
                "4/5",
                {
                    "lo": "5.109516506074799",
                    "hi": "5.730483493925201",
                    "lo_exact": None,
                    "hi_exact": None,
                },
            ),
        ],
        ids=["square-discriminant", "irrational-discriminant"],
    )
    def test_d1_interval_fields(self, workdir, t0, t, interval):
        # one stored form per endpoint: lo and hi are its float, lo_exact and
        # hi_exact its rational form or null; the bytes are pinned
        tmp, _ = workdir
        out = tmp / "cert.json"
        argv = ["realize5", "--family", "t", "--t0", t0, "--t", t, "--out", str(out)]
        assert dispatch(argv) == 0
        assert json.loads(out.read_text())["d1_interval"] == interval

    def test_each_value_computed_once(self, workdir, monkeypatch):
        # make_point expands the five factors and the realization the four
        # of the sub-list; the artifact reuses the realization's interval
        counts = {"poly_from_roots": 0, "feasible_d1": 0}
        for name in counts:

            def spy(*args, _name=name, _real=getattr(family5, name)):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(family5, name, spy)
        tmp, _ = workdir
        argv = ["realize5", "--family", "t", "--t0", "1", "--t", "4/5"]
        assert dispatch(argv + ["--out", str(tmp / "cert.json")]) == 0
        assert counts == {"poly_from_roots": 2, "feasible_d1": 1}


class TestRegionCsv:
    def test_csv_written(self, workdir):
        tmp, _ = workdir
        out = str(tmp / "r.csv")
        rc = dispatch(["region", "--family", "t", "--grid-step", "1/10", "--out", out])
        assert rc == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "t0,t,torre,boundary_member,symmetric"
        assert all(len(line.split(",")) == 5 for line in lines[1:])

    def test_pm_family_grid(self, workdir):
        tmp, _ = workdir
        out = str(tmp / "pm.csv")
        assert dispatch(["region", "--family", "pm", "--grid-step", "1", "--out", out]) == 0
        assert Path(out).read_text().splitlines()[1:] == ["0,1,1,1,1", "0,2,1,1,1", "0,3,1,1,1"]

    def test_stdout_matches_out_file(self, workdir, capsys):
        tmp, _ = workdir
        out = tmp / "t.csv"
        assert dispatch(["region", "--family", "t", "--grid-step", "1/10", "--out", str(out)]) == 0
        capsys.readouterr()
        assert dispatch(["region", "--family", "t", "--grid-step", "1/10"]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_grid_step_below_bound_is_refused(self, workdir, capsys):
        tmp, _ = workdir
        out = tmp / "fine.csv"
        argv = ["region", "--family", "t", "--grid-step", "1/100000", "--out", str(out)]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: grid step 1/100000")
        assert "Traceback" not in err
        assert not out.exists()

    def test_member_boundary_at_t0_one_row(self, workdir):
        # at grid step 1/50 the t0 = 1 rows flip membership at the
        # 0.7877... threshold: t = 39/50 is out, t = 4/5 is in
        tmp, _ = workdir
        out = str(tmp / "r50.csv")
        assert dispatch(["region", "--family", "t", "--grid-step", "1/50", "--out", out]) == 0
        rows = [line.split(",") for line in Path(out).read_text().splitlines()[1:]]
        at_one = {r[1]: (r[2], r[3]) for r in rows if r[0] == "1"}
        assert at_one["39/50"] == ("0", "0")
        assert at_one["4/5"] == ("1", "1")


class TestVerify:
    def test_pass(self, workdir):
        tmp, write = workdir
        m = write("m.json", CIRC)
        s = write("s.json", CIRC_SPECTRUM)
        assert dispatch(["verify", "--matrix", m, "--spectrum", s]) == 0

    def test_mismatched_char_poly_exits_2(self, workdir):
        tmp, write = workdir
        m = write("bad.json", {"rows": 2, "cols": 2, "entries": [["1", "1"], ["0", "1"]]})
        s = write("s.json", CIRC_SPECTRUM)
        assert dispatch(["verify", "--matrix", m, "--spectrum", s]) == 2

    def test_jordan_claim_checked(self, workdir):
        tmp, write = workdir
        m = write("m.json", {"rows": 2, "cols": 2, "entries": [["1", "0"], ["1", "1"]]})
        s = write("s.json", {"values": ["1", "1"]})
        j = write("j.json", {"blocks": [["1", [1, 1]]]})
        assert dispatch(["verify", "--matrix", m, "--spectrum", s, "--jordan", j]) == 2
        j2 = write("j2.json", {"blocks": [["1", [2]]]})
        assert dispatch(["verify", "--matrix", m, "--spectrum", s, "--jordan", j2]) == 0

    @pytest.mark.parametrize("size", [1.5, True])
    def test_jordan_block_size_not_truncated(self, workdir, capsys, size):
        tmp, write = workdir
        m = write("m.json", {"rows": 1, "cols": 1, "entries": [["1"]]})
        s = write("s.json", {"values": ["1"]})
        j = write("j.json", {"blocks": [["1", [size]]]})
        assert dispatch(["verify", "--matrix", m, "--spectrum", s, "--jordan", j]) == 1
        assert "block sizes must be positive integers" in capsys.readouterr().err


class TestJordanForms:
    def test_enumeration(self, workdir):
        tmp, write = workdir
        s = write("s.json", {"values": ["14/5", "11/5", "-1", "-2", "-2"]})
        out = str(tmp / "forms.json")
        assert dispatch(["jordan-forms", "--spectrum", s, "--out", out]) == 0
        blob = json.loads(Path(out).read_text())
        assert blob["count"] == 2

    def test_too_many_forms_is_refused(self, workdir, capsys):
        # 40 equal values allow p(40) = 37338 forms, beyond the 10^4 bound;
        # the count comes first, so nothing is built or written
        tmp, write = workdir
        s = write("s.json", {"values": ["1"] * 40})
        out = tmp / "forms.json"
        assert dispatch(["jordan-forms", "--spectrum", s, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: the spectrum allows more than 10000 Jordan forms; refusing to list them"
        ]
        assert not out.exists()


class TestClaimOrder:
    """A claimed spectrum or Jordan form must have the matrix's order; a
    longer claim is refused before any char poly or Weyr work."""

    LONG = {"values": ["1"] * 10000}

    @pytest.mark.parametrize("command", ["verify-spectrum", "verify-jordan", "guo-shift"])
    def test_oversized_claim_refused_at_once(self, workdir, capsys, command):
        tmp, write = workdir
        m, long = write("m.json", CIRC), write("long.json", self.LONG)
        argv = {
            "verify-spectrum": ["verify", "--matrix", m, "--spectrum", long],
            "verify-jordan": [
                "verify", "--matrix", m, "--spectrum", write("s.json", CIRC_SPECTRUM),
                "--jordan", write("j.json", {"blocks": [["1", [10**8]]]}),
            ],
            "guo-shift": ["guo-shift", "--in", m, "--eps", "1", "--spectrum", long],
        }[command]
        out = tmp / "out.json"
        start = time.perf_counter()
        assert dispatch(argv + ["--out", str(out)]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: the matrix does not match the claimed")
        assert "it has 2 rows, the claim has order" in err[0]
        assert not out.exists()

    def test_short_claim_refused(self, workdir, capsys):
        tmp, write = workdir
        m = write("m.json", CIRC)
        s = write("s.json", {"values": ["2"]})
        assert dispatch(["verify", "--matrix", m, "--spectrum", s]) == 1
        assert capsys.readouterr().err == (
            "error: the matrix does not match the claimed spectrum: it has 2 rows, "
            "the claim has order 1\n"
        )


@pytest.mark.parametrize("command", ["jordan-forms", "verify"])
def test_empty_spectrum_refused(workdir, capsys, command):
    tmp, write = workdir
    s = write("s.json", {"values": []})
    out = tmp / "out.json"
    m = write("m.json", {"rows": 1, "cols": 1, "entries": [["1"]]})
    argv = {
        "jordan-forms": ["jordan-forms", "--spectrum", s],
        "verify": ["verify", "--matrix", m, "--spectrum", s],
    }[command]
    assert dispatch(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: JSON field 'values' lists no eigenvalue"
    ]
    assert not out.exists()


class TestDemo:
    def test_demo_runs_and_writes_report(self, workdir):
        tmp, _ = workdir
        out_dir = str(tmp / "demo")
        assert dispatch(["demo", "--out-dir", out_dir, "--samples", "150"]) == 0
        names = sorted(os.listdir(out_dir))
        assert "report.md" in names
        assert "realization_first.json" in names
        union = json.loads(Path(os.path.join(out_dir, "demo_union_search.json")).read_text())
        assert union["forbidden_jordan_hits"] == 0

    @staticmethod
    def refused(workdir, capsys, samples):
        # one "error:" line, as every typed refusal writes, and nothing written
        tmp, _ = workdir
        out_dir = tmp / "demo"
        assert dispatch(["demo", "--out-dir", str(out_dir), "--samples", samples]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --samples must be a positive integer at most 10^6")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("samples", ["-1", "0"])
    def test_samples_must_be_positive(self, workdir, capsys, samples):
        self.refused(workdir, capsys, samples)

    def test_samples_bounded(self, workdir, capsys):
        self.refused(workdir, capsys, "1000001")


class TestUsageErrors:
    def test_unknown_command(self):
        assert dispatch(["frobnicate"]) == 1

    def test_unknown_flag(self):
        assert dispatch(["region", "--family", "t", "--grid-step", "1/10", "--bogus"]) == 1

    def test_missing_file(self, workdir, capsys):
        assert dispatch(["normalize", "--in", "/nonexistent/x.json"]) == 1
        err = capsys.readouterr().err
        assert err == "error: /nonexistent/x.json: No such file or directory\n"

    def test_unwritable_out_is_named(self, workdir, capsys):
        tmp, write = workdir
        infile = write("A.json", CIRC)
        out = str(tmp / "missing-dir" / "out.json")
        assert dispatch(["normalize", "--in", infile, "--out", out]) == 1
        assert capsys.readouterr().err == "error: %s: No such file or directory\n" % out

    @pytest.mark.parametrize("flag", ["--a", "--b", "--u", "--v"])
    def test_non_json_file_is_named(self, workdir, capsys, flag):
        tmp, write = workdir
        files = {
            "--a": write("a.json", matrix_to_json(RationalMatrix([["1", "1"], ["2", "2"]]))),
            "--b": write("b.json", CIRC),
            "--u": write("u.json", {"values": ["1", "1"]}),
            "--v": write("v.json", {"values": ["1", "1"]}),
        }
        bad = tmp / "bad.txt"
        bad.write_text("not json\n")
        files[flag] = str(bad)
        argv = ["bond", "--c", "2"] + [a for pair in files.items() for a in pair]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: %s: Expecting value: line 1 column 1 (char 0)\n" % bad

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["demo", "--out-dir", "{out}", "--samples", "abc"], "argument --samples: invalid int value: 'abc'"),
            (["normalize", "--in", "{out}", "--bogus"], "unrecognized arguments: --bogus"),
            (["normalize", "--bogus"], "the following arguments are required: --in"),
            (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        ],
        ids=["bad-int", "unknown-flag", "missing-flag", "unknown-command"],
    )
    def test_parse_refusal_is_one_error_line(self, workdir, capsys, argv, message):
        # worded like a typed refusal: no usage block, and nothing written
        tmp, _ = workdir
        out = tmp / "out"
        assert dispatch([a.format(out=out) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: " + message)
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "reader, bad, named",
        [
            ("matrix", {"entries": 5}, "'entries'"),
            ("matrix", {"entries": [5]}, "'entries'"),
            ("matrix", [1], "'entries'"),
            ("matrix", {"entries": [[True]]}, "bool True"),
            ("spectrum", [1], "'values'"),
            ("spectrum", {"values": 5}, "'values'"),
            ("spectrum", {"values": [True]}, "bool True"),
            ("q", {"values": 5}, "'values'"),
            ("q", {"values": [True, False]}, "bool True"),
            ("jordan", {"blocks": 5}, "'blocks'"),
            ("jordan", {"blocks": [["2", 1]]}, "'blocks'"),
        ],
        ids=[
            "entries-int", "entries-row-int", "matrix-list", "entries-bool",
            "spectrum-list", "values-int", "values-bool",
            "q-values-int", "q-values-bool",
            "blocks-int", "blocks-sizes-int",
        ],
    )
    def test_malformed_json_is_a_typed_error(self, workdir, capsys, reader, bad, named):
        tmp, write = workdir
        path = write("bad.json", bad)
        m = write("m.json", {"rows": 1, "cols": 1, "entries": [["1"]]})
        s = write("s.json", {"values": ["1"]})
        argv = {
            "matrix": ["normalize", "--in", path],
            "spectrum": ["verify", "--matrix", m, "--spectrum", path],
            "q": ["guo-shift", "--in", write("B.json", CIRC), "--q", path],
            "jordan": ["verify", "--matrix", m, "--spectrum", s, "--jordan", path],
        }[reader]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("exc", [KeyError("x"), ValueError("bad value")])
    def test_stray_key_or_value_error_is_one_error_line(self, workdir, capsys, monkeypatch, exc):
        # no typed refusal should reach this branch; if one does, it is still
        # worded as every refusal is
        def raise_it(A, mode):
            raise exc

        monkeypatch.setattr(cli, "to_constant_row_sums", raise_it)
        tmp, write = workdir
        assert dispatch(["normalize", "--in", write("A.json", CIRC)]) == 1
        assert capsys.readouterr().err == "error: %s\n" % exc

    @pytest.mark.parametrize("field, shape", [("rows", True), ("cols", 1.0), ("rows", "1")])
    def test_declared_shape_must_be_an_integer(self, workdir, capsys, field, shape):
        # 1 == True == 1.0, so an equality check alone lets these through
        tmp, write = workdir
        path = write("bad.json", {"rows": 1, "cols": 1, "entries": [["2"]], field: shape})
        assert dispatch(["normalize", "--in", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(field) in err
        assert "Traceback" not in err


class TestParserReuse:
    REALIZE5 = ["realize5", "--family", "t", "--t0", "1", "--t", "4/5"]

    def test_dispatch_builds_the_parser_once(self, workdir, monkeypatch):
        tmp, write = workdir
        out = str(tmp / "cert.json")
        assert dispatch(self.REALIZE5 + ["--out", out]) == 0  # warm-up
        built = []
        real = cli._Parser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", spy)
        infile = write("A.json", {"rows": 2, "cols": 2, "entries": [["3", "0"], ["1", "1"]]})
        assert dispatch(self.REALIZE5 + ["--out", out]) == 0
        assert dispatch(["normalize", "--in", infile, "--out", str(tmp / "n.json")]) == 0
        assert dispatch(["normalize", "--in", infile, "--bogus"]) == 1
        assert built == []

    def test_no_state_leaks_between_calls(self, workdir):
        tmp, _ = workdir
        paths = [str(tmp / name) for name in ("pinned.json", "after.json", "fresh.json")]
        assert dispatch(self.REALIZE5 + ["--d1", "11/2", "--out", paths[0]]) == 0
        assert dispatch(self.REALIZE5 + ["--bogus"]) == 1
        assert dispatch(self.REALIZE5 + ["--out", paths[1]]) == 0
        cli.build_parser.cache_clear()
        assert dispatch(self.REALIZE5 + ["--out", paths[2]]) == 0
        pinned, after, fresh = (Path(p).read_bytes() for p in paths)
        assert after == fresh
        assert after != pinned
        assert cli.build_parser().parse_args(self.REALIZE5).d1 == "auto"

    def test_help_after_dispatch(self, workdir, capsys):
        tmp, _ = workdir
        assert dispatch(self.REALIZE5 + ["--out", str(tmp / "cert.json")]) == 0
        capsys.readouterr()
        assert dispatch(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: nnspectra")
        assert dispatch(["realize5", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: nnspectra realize5")


class TestContract:
    """All eight subcommands (normalize, guo-shift, verify, jordan-forms,
    bond, realize5, region and demo) on generated command lines, with
    well-formed and malformed JSON and flags, run in-process through
    dispatch: exit 0, or 2 for a failed or missing certificate, with an
    artifact that an independent Fraction check accepts, or exit 1 with one
    "error:" line and no --out file (no --out-dir for demo); two runs write
    the same bytes."""

    @staticmethod
    def _run(argv, out):
        """(exit code, stdout, stderr, what was written at out: a file's
        bytes, a directory's {name: bytes}, or None)."""
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = dispatch(argv)
        written = None
        if os.path.isdir(out):
            written = {name: (Path(out) / name).read_bytes() for name in sorted(os.listdir(out))}
            shutil.rmtree(out)
        elif os.path.exists(out):
            written = Path(out).read_bytes()
            os.remove(out)
        return rc, stdout.getvalue(), stderr.getvalue(), written

    def _check(self, argv, out, artifact_check, parse=json.loads):
        first = self._run(argv, out)
        assert self._run(argv, out) == first
        rc, _, err, written = first
        assert rc in (0, 1, 2)
        if rc == 1:
            assert err.startswith("error:") and err.endswith("\n") and err.count("\n") == 1
            assert written is None
        else:
            blob = parse(written)
            # only a bond without a certificate explains itself on stderr
            reason = blob.get("reason") if isinstance(blob, dict) else None
            assert err == ("" if reason is None else reason + "\n")
            artifact_check(blob, rc)
        return rc

    @staticmethod
    def _strategies():
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        number = st.integers(0, 6).map(str) | st.builds(
            "{}/{}".format, st.integers(-2, 9), st.integers(1, 4)
        )
        # (JSON entry, its Fraction or None): exact rationals beyond and
        # below the float64 range and a JSON integer are well formed
        odd_entry = st.sampled_from(
            [("2e-400", F(2, 10**400)), ("1e4000", F(10**4000)), (3, F(3))]
            + [(v, None) for v in ["abc", "1/0", "", True, 1.5, None, [1]]]
        )

        @st.composite
        def matrix_file(draw, cs):
            """(file bytes, the entries as Fractions or None): a CS matrix
            when cs, else one that is diagonally similar to a CS matrix (a
            rational Perron root) or arbitrary, as drawn.  An "entry" draw
            puts one odd entry in: a malformed one, or a well-formed one that
            may break the CS form."""
            kind = draw(st.sampled_from(["good"] * 5 + ["entry", "shape", "structure", "text"]))
            if kind == "text":
                return draw(st.sampled_from([b"not json", b"{", b"", b"\xff\xfe"])), None
            if kind == "structure":
                doc = draw(
                    st.sampled_from([5, [], "x", {"entries": 5}, {"entries": [5]}, {"entries": []}])
                )
                return json.dumps(doc).encode(), None
            n = draw(st.sampled_from([3, 2, 1]))
            rows = [[F(draw(number)) for _ in range(n)] for _ in range(n)]
            planted = cs or draw(st.booleans())
            if planted:
                top = max(sum(row) for row in rows)
                for row in rows:
                    row[-1] += top - sum(row)
            if planted and not cs:
                d = [F(draw(st.integers(1, 4))) for _ in range(n)]
                rows = [[v * d[j] / d[i] for j, v in enumerate(row)] for i, row in enumerate(rows)]
            doc = {"rows": n, "cols": n, "entries": [[str(v) for v in row] for row in rows]}
            if kind == "entry":
                i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
                doc["entries"][i][j], exact = draw(odd_entry)
                rows[i][j] = exact
                if exact is None:
                    rows = None
            elif kind == "shape":
                doc[draw(st.sampled_from(["rows", "cols"]))] = draw(
                    st.sampled_from([n + 1, 0, True, 1.0, "1", None])
                )
                rows = None
            return json.dumps(doc).encode(), rows

        return hypothesis, st, number, matrix_file

    @staticmethod
    def _fractions(matrix_doc):
        return [[F(v) for v in row] for row in matrix_doc["entries"]]

    def test_normalize(self, tmp_path):
        hypothesis, st, _number, matrix_file = self._strategies()
        modes = [[], ["--mode", "exact"], ["--mode", "float"], ["--mode", "auto"]]
        bad_flags = st.sampled_from([["--mode", "fast"], ["--bogus"], ["--mode"], ["--in"]])
        seen = set()

        def one_by_one(entry, exact):
            return json.dumps({"entries": [[entry]]}).encode(), [[exact]]

        @hypothesis.settings(max_examples=40, deadline=None, database=None, derandomize=True)
        @hypothesis.given(matrix=matrix_file(cs=False), bad=st.none() | bad_flags)
        @hypothesis.example(matrix=one_by_one("2e-400", F(2, 10**400)), bad=None)
        @hypothesis.example(matrix=one_by_one("1e4000", F(10**4000)), bad=None)
        @hypothesis.example(matrix=one_by_one(3, F(3)), bad=None)
        def check(matrix, bad):
            (text, A), path, out = matrix, tmp_path / "A.json", str(tmp_path / "out.json")
            path.write_bytes(text)

            def artifact(blob, rc):
                assert A is not None and rc == 0
                assert set(blob) == {"schema", "mode", "lambda", "B", "S", "transcript"}
                n = len(A)
                if blob["mode"] == "float":
                    for name in "BS":
                        assert [len(row) for row in blob[name]] == [n] * n
                        assert all(math.isfinite(float(v)) for row in blob[name] for v in row)
                    seen.add("float")
                    return
                assert blob["mode"] == "exact" and flags != ["--mode", "float"]
                seen.add("exact" if n > 1 else "exact 1x1")
                if beyond_float:
                    seen.add("exact beyond float64")
                B, S = self._fractions(blob["B"]), self._fractions(blob["S"])
                lam = F(blob["lambda"])
                assert self._product(A, S) == self._product(S, B)
                assert all(v >= 0 for row in B for v in row)
                assert all(sum(row) == lam for row in B)

            # an entry beyond or below the float64 range is exact, and only
            # float mode refuses it
            beyond_float = A is not None and any(
                v and not F(1, 2**1000) < abs(v) < 2**1000 for row in A for v in row
            )
            for flags in modes + ([bad] if bad else []):
                argv = ["normalize", "--in", str(path)] + flags + ["--out", out]
                rc = self._check(argv, out, artifact)
                seen.add(rc)
                if beyond_float and flags == ["--mode", "float"]:
                    assert rc == 1

        check()
        assert {0, 1, "exact", "float", "exact beyond float64"} <= seen

    @staticmethod
    def _product(X, Y):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*Y)] for row in X]

    def test_guo_shift(self, tmp_path):
        hypothesis, st, number, matrix_file = self._strategies()
        malformed_q = st.sampled_from([{"values": 5}, {"values": [True]}, [1], {}])
        bad = st.sampled_from(
            ["eps-text", "eps-zero-den", "eps-negative", "both", "neither", "bad-q"]
        )
        seen = set()

        @hypothesis.settings(max_examples=40, deadline=None, database=None, derandomize=True)
        @hypothesis.given(
            data=st.data(), matrix=matrix_file(cs=True), bad=st.none() | bad,
            spectrum=st.none() | st.lists(number, min_size=1, max_size=3),
        )
        def check(data, matrix, bad, spectrum):
            (text, B), out = matrix, str(tmp_path / "out.json")
            n = 2 if B is None else len(B)
            eps = data.draw(number)
            q = data.draw(st.lists(number, min_size=n, max_size=n) | st.lists(number, max_size=4))
            paths = {name: str(tmp_path / (name + ".json")) for name in ("B", "q", "bad", "claim")}
            Path(paths["B"]).write_bytes(text)
            Path(paths["q"]).write_text(json.dumps({"values": q}))
            Path(paths["bad"]).write_text(json.dumps(data.draw(malformed_q)))
            claim = []
            if spectrum is not None:
                Path(paths["claim"]).write_text(json.dumps({"values": spectrum}))
                claim = ["--spectrum", paths["claim"]]
            variants = {
                "eps": ["--eps", eps],
                "q": ["--q", paths["q"]],
                "eps-text": ["--eps", "abc"],
                "eps-zero-den": ["--eps", "1/0"],
                "eps-negative": ["--eps", "-1"],
                "both": ["--eps", eps, "--q", paths["q"]],
                "neither": [],
                "bad-q": ["--q", paths["bad"]],
            }

            def artifact(blob, rc):
                assert B is not None and rc == 0
                assert set(blob) == {"schema", "lambda", "shift", "result"}
                if flags[0] == "--q":
                    steps = [F(v) for v in q]
                else:
                    steps = [F(flags[1]) / n] * n
                result = self._fractions(blob["result"])
                assert len(result) == n and all(len(row) == n for row in result)
                for row, brow in zip(result, B):
                    assert [r - b for r, b in zip(row, brow)] == steps
                assert F(blob["shift"]) == sum(steps)
                assert all(sum(row) == F(blob["lambda"]) for row in B)

            for key in ["eps", "q"] + ([bad] if bad else []):
                flags = variants[key]
                argv = ["guo-shift", "--in", paths["B"]] + flags + claim + ["--out", out]
                seen.add(self._check(argv, out, artifact))

        check()
        assert seen == {0, 1}

    @staticmethod
    def _char_poly(X):
        """det(x I - X), highest coefficient first, by Faddeev-LeVerrier
        over Fractions."""
        n = len(X)
        coeffs, M = [F(1)], [[F(0)] * n for _ in range(n)]
        for k in range(1, n + 1):
            M = TestContract._product(X, M)
            for i in range(n):
                M[i][i] += coeffs[-1]
            AM = TestContract._product(X, M)
            coeffs.append(-sum(AM[i][i] for i in range(n)) / k)
        return coeffs

    @staticmethod
    def _poly_mul(p, q):
        out = [F(0)] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return out

    def test_verify(self, tmp_path):
        hypothesis, st, number, matrix_file = self._strategies()
        seen = set()

        @hypothesis.settings(max_examples=30, deadline=None, database=None, derandomize=True)
        @hypothesis.given(
            data=st.data(), matrix=matrix_file(cs=False), triangular=st.booleans(),
            claim=st.sampled_from(["diagonal", "drawn", "bad", "single-blocks", "bad-jordan"]),
        )
        def check(data, matrix, triangular, claim):
            (text, A), out = matrix, str(tmp_path / "out.json")
            if A is not None and triangular:
                A = [[v if j >= i else F(0) for j, v in enumerate(row)] for i, row in enumerate(A)]
                text = json.dumps({"entries": [[str(v) for v in row] for row in A]}).encode()
            paths = {name: tmp_path / (name + ".json") for name in ("M", "s", "j")}
            paths["M"].write_bytes(text)
            n = 2 if A is None else len(A)
            values = [F(v) for v in data.draw(st.lists(number, min_size=n, max_size=n))]
            if A is not None and claim != "drawn":
                values = [A[i][i] for i in range(n)]  # right for a triangular A
            spectrum = {"values": [str(v) for v in values]}
            if claim == "bad":
                spectrum = data.draw(st.sampled_from([{"values": []}, {"values": 5}, {"values": [True]}, [1]]))
            paths["s"].write_text(json.dumps(spectrum))
            distinct = sorted(set(values))
            paths["j"].write_text(json.dumps(
                {"blocks": 5} if claim == "bad-jordan"
                else {"blocks": [[str(v), [values.count(v)]] for v in distinct]}
            ))
            argv = ["verify", "--matrix", str(paths["M"]), "--spectrum", str(paths["s"])]
            if claim in ("single-blocks", "bad-jordan"):
                argv += ["--jordan", str(paths["j"])]

            def artifact(blob, rc):
                assert A is not None and claim != "bad"
                assert set(blob) == {"schema", "verdict", "matrix", "spectrum", "jordan", "checks"}
                assert sorted(F(v) for v in blob["spectrum"]["values"]) == sorted(values)
                checks = {c["name"]: c for c in blob["checks"]}
                expected = [F(1)]
                for v in values:
                    expected = self._poly_mul(expected, [F(1), -v])
                residual = [a - b for a, b in zip(self._char_poly(A), expected)]
                while len(residual) > 1 and residual[0] == 0:
                    residual.pop(0)
                assert checks["char-poly"]["passed"] == (residual == [0])
                if residual != [0]:
                    assert checks["char-poly"]["detail"] == "residual: " + core.poly_to_string(residual)
                assert checks["nonnegativity"]["passed"] == all(v >= 0 for row in A for v in row)
                passed = all(c["passed"] for c in blob["checks"])
                assert blob["verdict"] == ("pass" if passed else "fail")
                assert rc == (0 if passed else 2)
                seen.add("char-poly " + str(residual == [0]))

            seen.add(self._check(argv + ["--out", out], out, artifact))

        check()
        assert {0, 1, 2, "char-poly True", "char-poly False"} <= seen

    def test_jordan_forms(self, tmp_path):
        hypothesis, st, number, _matrix_file = self._strategies()
        partition = pytest.importorskip("sympy.functions.combinatorial.numbers").partition
        malformed = st.sampled_from(
            [b"not json", b'{"values": []}', b'{"values": 5}', b'{"values": [true]}', b"[1]"]
        )
        seen = set()

        @hypothesis.settings(max_examples=30, deadline=None, database=None, derandomize=True)
        @hypothesis.given(
            values=st.lists(st.sampled_from(["1", "-2", "1/2", "0", "3"]), min_size=1, max_size=7)
            | st.lists(number, min_size=1, max_size=4) | st.just(["1"] * 40),
            bad=st.none() | malformed,
        )
        def check(values, bad):
            path, out = tmp_path / "s.json", str(tmp_path / "out.json")
            path.write_bytes(bad or json.dumps({"values": values}).encode())
            counts = collections.Counter(F(v) for v in values)
            count = math.prod(int(partition(m)) for m in counts.values())

            def artifact(blob, rc):
                assert bad is None and rc == 0
                assert set(blob) == {"schema", "spectrum", "count", "forms"}
                assert blob["count"] == count == len(blob["forms"])
                assert sorted(F(v) for v in blob["spectrum"]["values"]) == sorted(counts.elements())
                for form in blob["forms"]:
                    sizes = {F(v): s for v, s in form["blocks"]}
                    assert {v: sum(s) for v, s in sizes.items()} == counts

            rc = self._check(["jordan-forms", "--spectrum", str(path), "--out", out], out, artifact)
            # a refusal is a malformed file or more forms than the bound allows
            assert (rc == 1) == (bad is not None or count > jcfcert.MAX_JORDAN_FORMS)
            seen.add(rc)
            seen.add("many" if count > jcfcert.MAX_JORDAN_FORMS else "listed")

        check()
        assert seen == {0, 1, "many", "listed"}

    def test_bond(self, tmp_path):
        hypothesis, st, number, matrix_file = self._strategies()
        flaws = st.sampled_from([None] * 8 + ["corner", "c-text", "c-zero-den", "b-text"])
        # a well-formed A more often than matrix_file draws one
        a_files = matrix_file(cs=True).filter(lambda drawn: drawn[1] is not None) | matrix_file(cs=True)
        seen = collections.Counter()

        @hypothesis.settings(max_examples=40, deadline=None, database=None, derandomize=True)
        @hypothesis.given(
            data=st.data(), a=a_files, m=st.sampled_from([2, 1, 3]),
            c=number, flaw=flaws, triangular=st.booleans(),
        )
        def check(data, a, m, c, flaw, triangular):
            (text_a, A), out, c = a, str(tmp_path / "out.json"), F(c)

            def upper(X):  # triangular factors have rational spectra
                return [[v if j >= i or not triangular else F(0) for j, v in enumerate(row)]
                        for i, row in enumerate(X)]

            # A's corner is c; B's rows sum to c, so e is B's eigenvector at c
            if A is not None:
                A = upper(A)
                A[-1][-1] = c
                text_a = json.dumps({"entries": [[str(v) for v in row] for row in A]}).encode()
            B = upper([[F(data.draw(number)) for _ in range(m)] for _ in range(m)])
            B = [row[:-1] + [row[-1] + c - sum(row)] for row in B]
            text_b = json.dumps({"entries": [[str(v) for v in row] for row in B]}).encode()
            (tmp_path / "a.json").write_bytes(text_a)
            (tmp_path / "b.json").write_bytes(b"not json" if flaw == "b-text" else text_b)
            flag = {"corner": str(c + 1), "c-text": "abc", "c-zero-den": "1/0"}.get(flaw, str(c))

            def artifact(blob, rc):
                assert A is not None and flaw is None
                assert set(blob) - {"reason"} == {"schema", "c", "result", "certificate"}
                assert F(blob["c"]) == c
                C = self._fractions(blob["result"])
                assert len(C) == len(A) + len(B) - 1
                lhs = self._poly_mul(self._char_poly(C), [F(1), -c])
                assert lhs == self._poly_mul(self._char_poly(A), self._char_poly(B))
                cert = blob["certificate"]
                assert (cert is None) == ("reason" in blob)
                assert rc == (0 if cert is not None and cert["verdict"] == "pass" else 2)
                assert cert is None or self._fractions(cert["matrix"]) == C
                seen["certified" if cert is not None else "uncertified"] += 1

            argv = ["bond", "--a", str(tmp_path / "a.json"), "--b", str(tmp_path / "b.json")]
            seen[self._check(argv + ["--c", flag, "--out", out], out, artifact)] += 1

        check()
        assert all(seen[key] for key in (0, 1, 2, "certified", "uncertified")), seen


    def test_realize5(self, tmp_path):
        hypothesis, st, number, _matrix_file = self._strategies()
        # step multiples of 1/5 and 1/10, inside and outside each family's domain
        point = st.builds("{}/{}".format, st.integers(-4, 30), st.sampled_from([5, 10]))
        bad = st.sampled_from(
            [["--t", "abc"], ["--t", "1/0"], ["--family", "x"], ["--d1", "abc"], ["--t0"]]
        )
        seen = collections.Counter()

        @hypothesis.settings(max_examples=40, deadline=None, database=None, derandomize=True)
        @hypothesis.given(
            family=st.sampled_from(family5.FAMILIES), t0=point, t=point,
            d1=st.none() | number, bad=st.none() | bad,
        )
        def check(family, t0, t, d1, bad):
            out = str(tmp_path / "out.json")
            t0 = "0" if family == "pm" else t0
            argv = ["realize5", "--family", family, "--t0", t0, "--t", t]
            argv += [] if d1 is None else ["--d1", d1]

            def artifact(blob, rc):
                assert not flags
                assert set(blob) == {
                    "schema", "family", "t0", "t", "list", "coefficients", "d1_interval",
                    "certificate",
                }
                assert (blob["family"], F(blob["t0"]), F(blob["t"])) == (family, F(t0), F(t))
                cert = blob["certificate"]
                assert rc == (0 if cert["verdict"] == "pass" else 2)
                if rc:
                    return
                # a nonnegative matrix whose char poly is the listed values' product
                M = self._fractions(cert["matrix"])
                assert all(v >= 0 for row in M for v in row)
                expected = [F(1)]
                for v in blob["list"]:
                    expected = self._poly_mul(expected, [F(1), -F(v)])
                assert self._char_poly(M) == expected
                seen["certified"] += 1

            for flags in [[]] + ([bad] if bad else []):
                seen[self._check(argv + flags + ["--out", out], out, artifact)] += 1

        check()
        assert seen[0] and seen[1] and seen["certified"] == seen[0], seen

    def test_region(self, tmp_path):
        hypothesis, st, _number, _matrix_file = self._strategies()
        steps = st.sampled_from(["1", "1/2", "1/3", "2/5", "1/4", "3/10", "1/6", "0.2", "7/2"])
        bad = st.sampled_from(["0", "-1/4", "1/100000", "abc", "1/0", "family"])
        # each family's open region in the (t0, t) plane; the box t0 <= 2,
        # t <= 3 holds all three
        regions = {
            "t": lambda t0, t: 0 < t0 < 2 * t < 2,
            "tprime": lambda t0, t: t0 > 0 and t > 0 and t0 + t < 1,
            "pm": lambda t0, t: t0 == 0 and 0 < t <= 3,
        }
        seen = collections.Counter()

        @hypothesis.settings(max_examples=30, deadline=None, database=None, derandomize=True)
        @hypothesis.given(
            family=st.sampled_from(family5.FAMILIES), step=steps, bad=st.none() | bad
        )
        def check(family, step, bad):
            out = str(tmp_path / "out.csv")

            def artifact(text, rc):
                assert rc == 0 and flags == [family, step]
                lines = text.decode("ascii").split("\n")
                assert lines[0] == "t0,t,torre,boundary_member,symmetric" and lines[-1] == ""
                rows = [line.split(",") for line in lines[1:-1]]
                # every step multiple of the box in the region, t0 outer, t inner
                h = F(step)
                grid = [(i * h, j * h) for i in range(int(2 / h) + 1) for j in range(int(3 / h) + 1)]
                assert [(F(t0), F(t)) for t0, t, *_ in rows] == [p for p in grid if regions[family](*p)]
                for _t0, t, torre, member, symmetric in rows:
                    assert torre in ("0", "1") and member in ("0", "1")
                    assert symmetric == ("1" if F(t) >= 1 else "0")
                seen["rows"] += len(rows)

            variants = [[family, step]]
            if bad:
                variants.append(["x", step] if bad == "family" else [family, bad])
            for flags in variants:
                argv = ["region", "--family", flags[0], "--grid-step", flags[1], "--out", out]
                seen[self._check(argv, out, artifact, parse=bytes)] += 1

        check()
        assert seen[0] and seen[1] and seen["rows"], seen

    def test_demo(self, tmp_path):
        hypothesis, st, _number, _matrix_file = self._strategies()
        samples = st.integers(-1, 4).map(str) | st.sampled_from(["abc", "1000001", "1.5", "1/2"])
        seen = collections.Counter()

        @hypothesis.settings(max_examples=10, deadline=None, database=None, derandomize=True)
        @hypothesis.given(samples=samples, seed=st.integers(0, 3))
        def check(samples, seed):
            out = str(tmp_path / "demo")
            argv = ["demo", "--out-dir", out, "--samples", samples, "--seed", str(seed)]

            def artifact(files, rc):
                assert rc == 0 and "report.md" in files
                docs = {name: json.loads(data) for name, data in files.items() if name.endswith(".json")}
                union = docs["demo_union_search.json"]
                assert union["forbidden_jordan_hits"] == 0
                assert union["samples"] == int(samples)
                seen["artifacts"] += len(docs)

            # a refused --samples creates no output directory
            seen[self._check(argv, out, artifact, parse=dict)] += 1

        check()
        assert seen[0] and seen[1] and seen["artifacts"], seen


class TestArtifactWriter:
    """cli._json_text against json.dumps(obj, indent=2, sort_keys=True), on
    generated documents: the same text, or TypeError from both."""

    @staticmethod
    def _strategies():
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        text = st.text() | st.text(
            alphabet=st.sampled_from('"\\/\x00\x08\n\t\x1f\x7f é€ \ud800\U0001f600')
        )
        integer = st.integers() | st.integers(2**64, 2**200) | st.integers(-(2**200), -1)
        leaf = st.none() | st.booleans() | integer | st.floats() | text

        def documents(leaves):
            return st.recursive(
                leaves,
                lambda children: st.lists(children, max_size=4)
                | st.lists(children, max_size=4).map(tuple)
                | st.dictionaries(text, children, max_size=4),
                max_leaves=20,
            )

        unsupported = st.sampled_from([{1, 2}, frozenset(), b"1", F(1, 2), object()])
        return hypothesis, documents(leaf), documents(leaf | unsupported)

    @staticmethod
    def _agree(obj):
        """The writer writes json.dumps's text, or raises TypeError where it does."""
        try:
            expected = json.dumps(obj, indent=2, sort_keys=True)
        except TypeError:
            with pytest.raises(TypeError):
                cli._json_text(obj)
        else:
            assert cli._json_text(obj) == expected

    def test_same_text_as_json_dumps(self):
        hypothesis, documents, _ = self._strategies()

        @hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
        @hypothesis.given(documents)
        def check(obj):
            assert cli._json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)

        check()

    def test_unsupported_types_raise_in_both(self):
        hypothesis, _, documents = self._strategies()
        settings = hypothesis.settings(
            max_examples=200, deadline=None, database=None, derandomize=True
        )
        settings(hypothesis.given(documents)(self._agree))()

    @pytest.mark.parametrize(
        "obj",
        [
            [True, 1, False, 0, 2**64, -(2**70)],
            {"b": float("nan"), "a": [float("inf"), -float("inf"), -0.0, 1e-320]},
            ("tuple", ("nested",), [], {}, (), [[]], {"": {}}),
            {"\x00\"\\": "\U0001f600é\ud800", "schema": None},
            {1, 2},
            b"1",
            [0, {"a": {"b": F(1, 2)}}],
        ],
        ids=[
            "bool-next-to-int", "non-finite", "tuples-and-empties", "escapes",
            "set", "bytes", "nested-fraction",
        ],
    )
    def test_pinned_cases(self, obj):
        self._agree(obj)

    def test_key_must_be_a_string(self):
        # json.dumps would write the key 1 as "1"; no artifact has one
        with pytest.raises(TypeError):
            cli._json_text({1: "a"})

    def test_dump_ends_with_one_newline(self, tmp_path):
        out = tmp_path / "a.json"
        cli._dump_json({"b": [1, "x"], "a": {}}, str(out))
        assert out.read_bytes() == b'{\n  "a": {},\n  "b": [\n    1,\n    "x"\n  ]\n}\n'
