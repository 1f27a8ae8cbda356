"""Tests of the benchmark itself: frozen inputs, oracle, tracer.

    python3 perfbench/selftest.py

Run from the root of a source checkout (the program is imported from ./src).
"""

import json
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

nn = run.load_program()

# Fingerprints of the seed-0 inputs.  A change here means the benchmark's
# inputs moved, which makes results incomparable with earlier runs.
FROZEN = {
    "normalize-mix": "1544d92b15697b16",
    "shift-scaling": "76a68eebe669df17",
    "realize5-cli": "c4eb0a8b38370abe",
}


def first(items, cls):
    return next(it for it in items if it.cls == cls)


class FrozenInputs(unittest.TestCase):
    def test_same_seed_same_digest(self):
        for name, wl_cls in run.WORKLOADS.items():
            wl = wl_cls(nn)
            self.assertEqual(run.items_digest(run.build(wl, 0)), FROZEN[name], name)
            self.assertEqual(run.items_digest(run.build(wl, 7)), run.items_digest(run.build(wl, 7)))
            self.assertNotEqual(run.items_digest(run.build(wl, 7)), FROZEN[name])


class OracleRejectsCorruption(unittest.TestCase):
    def test_normalize_exact_B_entry(self):
        wl = run.NormalizeMix(nn)
        for cls in ("chain", "bottom"):
            item = first(run.build(wl, 0), cls)
            out = wl.run(item)
            A, lam = item.raw
            B, S = [list(r) for r in out.B.entries()], out.S.entries()
            self.assertIsNone(oracle.check_exact_normalization(A, B, S, lam))
            # move mass inside row 0: sign and row sums stay valid, A S = S B breaks
            j = next(j for j, v in enumerate(B[0]) if v > 0)
            k = (j + 1) % len(B)
            delta = B[0][j] / 2
            B[0][j] -= delta
            B[0][k] += delta
            self.assertIsNotNone(oracle.check_exact_normalization(A, B, S, lam))

    def test_normalize_float_B_entry(self):
        wl = run.NormalizeMix(nn)
        item = first(run.build(wl, 0), "irrational")
        out = wl.run(item)
        self.assertEqual(out.mode, "float")
        A, _ = item.raw
        B = out.B.array.copy()
        self.assertIsNone(oracle.check_float_normalization(A, B, out.S.array, out.lam))
        B[0, 0] += 1e-3
        self.assertIsNotNone(oracle.check_float_normalization(A, B, out.S.array, out.lam))

    def test_shift_certificate_entry(self):
        wl = run.ShiftScaling(nn)
        item = first(run.build(wl, 0), 6)
        shifted, _cert = wl.run(item)
        rows = [list(r) for r in shifted.entries()]
        values = list(item.raw[1])
        self.assertIsNone(oracle.check_shift(rows, values, wl.eps))
        # keep the row sum: move mass between two entries of row 0
        j = next(j for j, v in enumerate(rows[0]) if v > 0)
        delta = rows[0][j] / 3
        rows[0][j] -= delta
        rows[0][(j + 1) % len(rows)] += delta
        self.assertIsNotNone(oracle.check_shift(rows, values, wl.eps))

    def test_realize5_certificate_entry(self):
        wl = run.Realize5Cli(nn)
        wl.out.parent.mkdir(parents=True, exist_ok=True)
        item = first(run.build(wl, 0), ("t", True))
        wl.prepare(item)
        rc, err, text = wl.capture(item, wl.run(item))
        self.assertEqual(rc, 0, err)
        self.assertIsNone(wl.check(item, (rc, err, text)))
        blob = json.loads(text)
        entries = blob["certificate"]["matrix"]["entries"]
        entries[0][1] = str(Fraction(entries[0][1]) + Fraction(1, 7))
        self.assertIsNotNone(wl.check(item, (rc, err, json.dumps(blob))))

    def test_realize5_refusal_must_be_typed(self):
        wl = run.Realize5Cli(nn)
        item = first(run.build(wl, 0), ("t", False))
        self.assertIsNone(wl.check(item, (1, wl.refusal + " (condition c)\n", None)))
        self.assertIsNotNone(wl.check(item, (1, "input error: bad value\n", None)))
        self.assertIsNotNone(wl.check(item, (0, "", "{}")))


class Reference(unittest.TestCase):
    def test_kernel_and_scaling(self):
        self.assertEqual(reference.reference_kernel(), reference.REF_DET)
        self.assertGreater(reference.time_reference(), 0.0)
        # an interval run while the kernel took twice REF_S counts half
        ref = 2 * reference.REF_S
        self.assertAlmostEqual(reference.normalized(0.5, ref, ref), 0.25)

    def test_run_records_normalized_times(self):
        wl = run.ShiftScaling(nn)
        ph = run.Phase()
        run.run_round(wl, run.build(wl, 0)[:2], ph, 0)
        self.assertEqual((ph.ops, len(ph.norm), len(ph.refs), ph.failures), (2, 2, 4, []))
        self.assertGreater(ph.throughput, 0.0)


class SelfTime(unittest.TestCase):
    def test_nested_calls(self):
        ticks = iter(range(100))
        tr = Tracer(clock=lambda: float(next(ticks)))

        def inner():
            return 1

        def outer():
            return wrapped_inner() + wrapped_inner()

        wrapped_inner = tr.wrap("inner", inner)
        self.assertEqual(tr.wrap("outer", outer)(), 2)
        # clock reads: outer start 0, inner 1-2, inner 3-4, outer end 5
        self.assertEqual(tr.totals(), {"outer": (1, 3.0), "inner": (2, 2.0)})
        self.assertEqual(tr.calls_under("inner", "outer"), 2)

    def test_exception_recorded(self):
        tr = Tracer()

        def refuse():
            raise KeyError("no")

        with self.assertRaises(KeyError):
            tr.wrap("refuse", refuse)()
        self.assertEqual(tr.errors("refuse", "KeyError"), 1)


class TracerRestores(unittest.TestCase):
    def test_attributes_restored(self):
        before = run.attribute_snapshot(nn)
        original_solve = nn.core.solve
        tr = Tracer()
        run.install_tracer(tr, nn)
        try:
            self.assertIsNot(nn.rowsum.solve, original_solve)
            self.assertIsNot(nn.jcfcert.exact_rank, before[("nnspectra.core", "exact_rank")])
            M = nn.core.RationalMatrix([[2, 1], [1, 2]])
            nn.rowsum.to_constant_row_sums(M, mode="exact")
        finally:
            tr.uninstall()
        self.assertEqual(run.attribute_snapshot(nn), before)
        totals = tr.totals()
        self.assertEqual(totals["rowsum.to_constant_row_sums"][0], 1)
        self.assertGreater(totals["core.matrix_new"][0], 0)
        self.assertEqual(tr.counters["rowsum.path.exact"], 1)


class RefusesWithoutProgram(unittest.TestCase):
    def test_exits_nonzero_without_src(self):
        bare = run.OUT / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(Path(run.__file__).parent, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "normalize-mix",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
