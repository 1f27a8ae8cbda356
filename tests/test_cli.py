import json
import os

import pytest

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
        blob = json.loads(open(out).read())
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
        blob = json.loads(open(out).read())
        assert matrix_from_json(blob["result"]) == RationalMatrix(
            [["1/2", "5/2"], ["5/2", "1/2"]]
        )

    def test_explicit_q_with_negativity_loss(self, workdir):
        tmp, write = workdir
        infile = write("B.json", CIRC)
        qfile = write("q.json", {"values": ["1", "-1"]})
        assert dispatch(["guo-shift", "--in", infile, "--q", qfile]) == 1

    def test_missing_eps_and_q(self, workdir):
        tmp, write = workdir
        infile = write("B.json", CIRC)
        assert dispatch(["guo-shift", "--in", infile]) == 1


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
        blob = json.loads(open(out).read())
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
        blob = json.loads(open(out).read())
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
        blob = json.loads(open(out).read())
        assert blob["certificate"]["verdict"] == "pass"
        assert blob["list"] == ["14/5", "11/5", "-1", "-2", "-2"]

    def test_domain_error_exit_code(self, workdir):
        assert dispatch(["realize5", "--family", "t", "--t0", "3", "--t", "1"]) == 1


class TestRegionCsv:
    def test_csv_written(self, workdir):
        tmp, _ = workdir
        out = str(tmp / "r.csv")
        rc = dispatch(["region", "--family", "t", "--grid-step", "1/10", "--out", out])
        assert rc == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "t0,t,torre,boundary_member,symmetric"
        assert all(len(line.split(",")) == 5 for line in lines[1:])

    def test_member_boundary_at_t0_one_row(self, workdir):
        # at grid step 1/50 the t0 = 1 rows flip membership at the
        # 0.7877... threshold: t = 39/50 is out, t = 4/5 is in
        tmp, _ = workdir
        out = str(tmp / "r50.csv")
        assert dispatch(["region", "--family", "t", "--grid-step", "1/50", "--out", out]) == 0
        rows = [line.split(",") for line in open(out).read().splitlines()[1:]]
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


class TestJordanForms:
    def test_enumeration(self, workdir):
        tmp, write = workdir
        s = write("s.json", {"values": ["14/5", "11/5", "-1", "-2", "-2"]})
        out = str(tmp / "forms.json")
        assert dispatch(["jordan-forms", "--spectrum", s, "--out", out]) == 0
        blob = json.loads(open(out).read())
        assert blob["count"] == 2


class TestDemo:
    def test_demo_runs_and_writes_report(self, workdir):
        tmp, _ = workdir
        out_dir = str(tmp / "demo")
        assert dispatch(["demo", "--out-dir", out_dir, "--samples", "150"]) == 0
        names = sorted(os.listdir(out_dir))
        assert "report.md" in names
        assert "realization_first.json" in names
        union = json.loads(open(os.path.join(out_dir, "demo_union_search.json")).read())
        assert union["forbidden_jordan_hits"] == 0


class TestUsageErrors:
    def test_unknown_command(self):
        assert dispatch(["frobnicate"]) == 1

    def test_unknown_flag(self):
        assert dispatch(["region", "--family", "t", "--grid-step", "1/10", "--bogus"]) == 1

    def test_missing_file(self, workdir):
        assert dispatch(["normalize", "--in", "/nonexistent/x.json"]) == 1
