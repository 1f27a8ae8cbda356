#!/usr/bin/env python3
"""End-to-end benchmark of nnspectra, with an outside-in traced mode.

    python3 perfbench/run.py --workload normalize-mix --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
./src, never from an installed copy.  Load model: one process, one thread,
one client in a closed loop (the next op starts when the last returns).

Workloads (see perfbench/README.md for the input properties):
  normalize-mix  to_constant_row_sums(A, mode="auto") on planted
                 rational-spectrum matrices of the six criterion-5 layouts
                 and on irreducible matrices with an irrational Perron root.
  shift-scaling  ur_shift(A, spectrum, 1/3) on scrambled Suleimanova
                 companions, n in {6, 8, 10, 12}.
  realize5-cli   cli.dispatch(["realize5", ...]) in process, on grid points
                 inside (certified) and outside (typed refusal) the region.

Inputs are built from --seed before the timed phase.  Ops run in rounds
that hold each input class in its fixed share; the timed phase ends at the
first round boundary after --seconds of wall time and after one full pass
over the input pool, so every run sees the same mix and every input.
Every op is checked by the benchmark's own oracle (perfbench/oracle.py).

Times are normalized to the host's speed (perfbench/reference.py): each op
and each set-up step is bracketed by a fixed reference kernel, and its wall
time is scaled to a host where that kernel takes REF_S.  Raw wall-clock
figures are printed in the info line.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every round
twice, untraced and traced in alternating order (the wrappers are armed
only around the traced copy), and prints the per-layer metrics normalized
per op and the tracing overhead.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
"""

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

import inputs
import oracle
from reference import normalized, time_reference
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
from reference import time_reference
time_reference()
r0 = time_reference()
t = time.perf_counter()
import numpy, nnspectra.cli
dt = time.perf_counter() - t
print(dt, r0, time_reference())
"""


def load_program():
    """Import nnspectra from ./src of this checkout, or exit with code 2."""
    if not (SRC / "nnspectra" / "__init__.py").is_file():
        sys.stderr.write("perfbench: %s/nnspectra not found; run from a source checkout\n" % SRC)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import nnspectra.cli

    if Path(nnspectra.__file__).resolve().parent != SRC / "nnspectra":
        sys.stderr.write("perfbench: imported nnspectra from %s\n" % nnspectra.__file__)
        sys.exit(2)
    return nnspectra


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Item:
    __slots__ = ("cls", "raw", "args")

    def __init__(self, cls, raw, args):
        self.cls, self.raw, self.args = cls, raw, args


class NormalizeMix:
    """Four in five inputs planted rational (criterion-5 layouts, n <= 9),
    one in five irreducible with an irrational Perron root."""

    name = "normalize-mix"
    round = (
        "irrational", "irreducible", "chain", "bottom", "isolated",
        "irrational", "mixed", "cluster", "irreducible", "chain",
        "irrational", "bottom", "isolated", "mixed", "cluster",
    )
    rounds = 10

    def __init__(self, nn):
        self.nn = nn

    def make(self, rng, shape, cls):
        if cls == "irrational":
            A = inputs.irrational_irreducible(rng, shape)
            raw = (A, None)
        else:
            A, _values, lam = inputs.planted_rational(rng, shape, cls)
            raw = (A, lam)
        return Item(cls, raw, self.nn.core.RationalMatrix(A))

    def run(self, item):
        return self.nn.rowsum.to_constant_row_sums(item.args, mode="auto")

    def outcome(self, item, out):
        if out.mode == "float":
            return "float"
        if out.transcript and out.transcript[0].kind == "transpose-similarity":
            return "transpose"
        return "exact"

    def check(self, item, out):
        A, lam = item.raw
        if out.mode == "float":
            if lam is not None:
                return "float result for a planted rational spectrum"
            return oracle.check_float_normalization(A, out.B.array, out.S.array, out.lam)
        if lam is None:
            return "exact result for a provably irrational Perron root"
        return oracle.check_exact_normalization(A, out.B.entries(), out.S.entries(), lam)

    def bits(self, item, out):
        if out.mode == "float":
            return 0
        return max(oracle.bits(out.B.entries()), oracle.bits(out.S.entries()))


class ShiftScaling:
    """ur_shift(A, spectrum, 1/3) on scrambled Suleimanova companions."""

    name = "shift-scaling"
    # shares 3:3:2:2, so that p50 and p90 fall inside a size class
    round = (6, 8, 10, 12, 6, 8, 6, 8, 10, 12)
    rounds = 4
    eps = Fraction(1, 3)

    def __init__(self, nn):
        self.nn = nn

    def make(self, rng, shape, n):
        A, values = inputs.scrambled_companion(rng, shape, n)
        args = (self.nn.core.RationalMatrix(A), self.nn.core.Spectrum.from_values(values))
        return Item(n, (A, tuple(values)), args)

    def run(self, item):
        return self.nn.perturb.ur_shift(item.args[0], item.args[1], self.eps)

    def outcome(self, item, out):
        return "certified"

    def check(self, item, out):
        shifted, cert = out
        if not cert.verdict or cert.matrix != shifted:
            return "certificate does not pass for the returned matrix"
        return oracle.check_shift(shifted.entries(), list(item.raw[1]), self.eps)

    def bits(self, item, out):
        return oracle.bits(out[0].entries())


class Realize5Cli:
    """In-process `nnspectra realize5 ... --d1 auto` on fine-grid points."""

    name = "realize5-cli"
    round = (
        ("t", True), ("tprime", True), ("t", False), ("t", True),
        ("tprime", True), ("t", True), ("tprime", False), ("tprime", True),
    )
    rounds = 13
    refusal = "error: the coefficient test rejects this list"

    def __init__(self, nn):
        self.nn = nn
        self.out = OUT / "tmp" / "realize5.json"

    def make(self, rng, shape, cls):
        family, inside = cls
        t0, t = inputs.region_point(rng, family, inside)
        argv = [
            "realize5", "--family", family, "--t0", str(t0), "--t", str(t),
            "--d1", "auto", "--out", str(self.out),
        ]
        return Item(cls, (family, t0, t, inside), argv)

    def prepare(self, item):
        with contextlib.suppress(FileNotFoundError):
            self.out.unlink()

    def run(self, item):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = self.nn.cli.dispatch(item.args)
        return rc, err.getvalue()

    def capture(self, item, out):
        rc, err = out
        text = self.out.read_text() if rc == 0 else None
        return rc, err, text

    def outcome(self, item, out):
        return "certified" if out[0] == 0 else "refused"

    def written(self, out):
        return len(out[2].encode()) if out[2] is not None else 0

    def check(self, item, out):
        rc, err, text = out
        family, t0, t, inside = item.raw
        if not inside:
            if rc == 1 and err.startswith(self.refusal):
                return None
            return "expected a typed refusal, got rc=%d %r" % (rc, err.strip()[:120])
        if rc != 0 or text is None:
            return "expected a certificate, got rc=%d %r" % (rc, err.strip()[:120])
        return oracle.check_realize5(text, list(inputs.family_values(family, t0, t)))

    def bits(self, item, out):
        if out[2] is None:
            return 0
        return oracle.bits(oracle.parse_matrix(json.loads(out[2])["certificate"]["matrix"]))


WORKLOADS = {w.name: w for w in (NormalizeMix, ShiftScaling, Realize5Cli)}


def build(wl, seed):
    """All inputs for a seed: `rounds` rounds of the workload's class order.
    Values come from the seed, shapes from the workload name (inputs.py)."""
    rng, shape = random.Random(seed), random.Random(wl.name)
    return [wl.make(rng, shape, cls) for _ in range(wl.rounds) for cls in wl.round]


def items_digest(items):
    return inputs.digest([(str(it.cls), it.raw) for it in items])


def setup(wl, seed):
    """Median over SETUP_REPEATS of the normalized set-up time (reference.py):
    importing numpy and nnspectra in a fresh interpreter plus building the
    seeded inputs.  Every build must give the same digest."""
    totals, digests = [], set()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(Path(__file__).resolve().parent)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        import_s, r0, r1 = map(float, proc.stdout.split())
        q0 = time_reference()
        t0 = time.perf_counter()
        items = build(wl, seed)
        build_s = time.perf_counter() - t0
        q1 = time_reference()
        totals.append(normalized(import_s, r0, r1) + normalized(build_s, q0, q1))
        digests.add(items_digest(items))
    if len(digests) != 1:
        raise RuntimeError("input generation is not deterministic")
    return items, statistics.median(totals), digests.pop()


# ---------------------------------------------------------------------------
# timed phase
# ---------------------------------------------------------------------------


class Phase:
    """Ops of one timed phase: raw wall times in `latencies`, normalized
    times (reference.py) in `norm`."""

    def __init__(self):
        self.latencies = []
        self.norm = []
        self.refs = []
        self.failures = []
        self.outcomes = Counter()
        self.bits = []  # per op with an exact output matrix: its largest entry bit length
        self.out_bytes = 0
        self.busy = 0.0

    @property
    def ops(self):
        return len(self.latencies)

    @property
    def wall_throughput(self):
        return self.ops / self.busy

    @property
    def throughput(self):
        """Ops per second of normalized op time."""
        return self.ops / sum(self.norm)

    def percentile_ms(self, q):
        return 1e3 * percentile(self.norm, q)


def run_round(wl, batch, ph, first, tracer=None):
    """One round of ops in a closed loop.  Only the op itself is op time:
    preparing, capturing and checking outputs and the reference kernel
    runs around each op are not."""
    prepare = getattr(wl, "prepare", None)
    capture = getattr(wl, "capture", lambda item, out: out)
    written = getattr(wl, "written", lambda out: 0)
    clock = time.perf_counter
    for k, item in enumerate(batch):
        if prepare:
            prepare(item)
        if tracer is not None:
            tracer.op_id = ph.ops
        ref0 = time_reference()
        t0 = clock()
        try:
            out = wl.run(item)
            err = None
        except Exception as exc:  # any raise is a failed op
            out, err = None, "%s: %s" % (type(exc).__name__, exc)
        t1 = clock()
        ref1 = time_reference()
        ph.busy += t1 - t0
        ph.latencies.append(t1 - t0)
        ph.refs += (ref0, ref1)
        ph.norm.append(normalized(t1 - t0, ref0, ref1))
        if err is None:
            try:
                out = capture(item, out)
                err = wl.check(item, out)
                ph.outcomes[wl.outcome(item, out)] += 1
                b = wl.bits(item, out)
                if b:
                    ph.bits.append(b)
                ph.out_bytes += written(out)
            except Exception as exc:  # malformed output: missing file, bad JSON
                err = "unreadable output: %s: %s" % (type(exc).__name__, exc)
        if err is not None:
            ph.failures.append((first + k, str(item.cls), err))


def run_timed(wl, items, seconds, tracer=None, arm=None):
    """Whole rounds until every input ran once and `seconds` of wall time
    have passed.  With a tracer, each round runs twice, untraced and traced
    in alternating order, so both copies see the same inputs and the same
    machine; arm() installs the wrappers around the traced copy only.
    Returns (untraced, traced) phases."""
    plain = Phase()
    traced = Phase() if tracer else None
    step = len(wl.round)
    end = time.perf_counter() + seconds
    i = 0
    while i < len(items) or time.perf_counter() < end:
        lo = i % len(items)
        batch = items[lo : lo + step]
        if tracer is None:
            run_round(wl, batch, plain, lo)
        else:
            for armed in (False, True) if (i // step) % 2 == 0 else (True, False):
                if not armed:
                    run_round(wl, batch, plain, lo)
                    continue
                arm()
                try:
                    run_round(wl, batch, traced, lo, tracer)
                finally:
                    tracer.uninstall()
        i += step
    return plain, traced


def warm_up(wl, items):
    """One op of each input class, untimed and unchecked."""
    seen = set()
    for item in items:
        if item.cls not in seen:
            seen.add(item.cls)
            if hasattr(wl, "prepare"):
                wl.prepare(item)
            with contextlib.suppress(Exception):
                wl.run(item)


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

LAYER_FUNCTIONS = (
    ("core.char_poly", "core", "char_poly"),
    ("core.exact_rank", "core", "exact_rank"),
    ("core.solve", "core", "solve"),
    ("core.kernel", "core", "kernel"),
    ("core.determinant", "core", "determinant"),
    ("core.poly", "core", "poly_mul"),
    ("core.poly", "core", "poly_eval"),
    ("core.poly", "core", "poly_from_roots"),
    ("core.poly", "core", "poly_sub"),
    ("core.poly", "core", "poly_to_string"),
    ("core.poly", "core", "synthetic_div"),
    ("structure.strongly_connected_components", "structure", "strongly_connected_components"),
    ("structure.perron_data", "structure", "perron_data"),
    ("rowsum.to_constant_row_sums", "rowsum", "to_constant_row_sums"),
    ("rowsum.perron_root_exact", "rowsum", "perron_root_exact"),
    ("rowsum.similarity_to_transpose", "rowsum", "similarity_to_transpose"),
    ("perturb.ur_shift", "perturb", "ur_shift"),
    ("perturb.rank_one_shift", "perturb", "rank_one_shift"),
    ("jcfcert.verify_certificate", "jcfcert", "verify_certificate"),
    ("jcfcert.jordan_spec", "jcfcert", "jordan_spec"),
    ("jcfcert.weyr_sequence", "jcfcert", "weyr_sequence"),
    ("bonding.smigoc_bond", "bonding", "smigoc_bond"),
    ("family5.diagonalizable_realization", "family5", "diagonalizable_realization"),
    ("family5.make_point", "family5", "make_point"),
    ("family5.torre_realizable", "family5", "torre_realizable"),
    ("cli.dispatch", "cli", "dispatch"),
)
LAYER_METHODS = (("core.matrix_new", "__init__"), ("core.matmul", "__matmul__"))
IN_BITS = ("core.char_poly", "core.exact_rank", "core.solve")
SPAN_LABELS = sorted({label for label, _, _ in LAYER_FUNCTIONS} | {label for label, _ in LAYER_METHODS})


def install_tracer(tracer, nn):
    modules = [m for name, m in sys.modules.items() if name == "nnspectra" or name.startswith("nnspectra.")]
    functions = [(label, getattr(getattr(nn, mod), attr)) for label, mod, attr in LAYER_FUNCTIONS]
    methods = {label: (nn.core.RationalMatrix, attr) for label, attr in LAYER_METHODS}
    matrix_bits = lambda M: oracle.bits(M.entries())

    def rowsum_probe(result):
        if result.mode == "float":
            tracer.counters["rowsum.path.float"] += 1
            return
        kind = "transpose" if result.transcript and result.transcript[0].kind == "transpose-similarity" else "exact"
        tracer.counters["rowsum.path." + kind] += 1
        tracer.maxima["rowsum.B_bits_max"] = max(tracer.maxima["rowsum.B_bits_max"], matrix_bits(result.B))
        tracer.maxima["rowsum.S_bits_max"] = max(tracer.maxima["rowsum.S_bits_max"], matrix_bits(result.S))

    tracer.install(
        functions,
        methods,
        modules,
        before={label: matrix_bits for label in IN_BITS},
        after={"rowsum.to_constant_row_sums": rowsum_probe},
    )


def attribute_snapshot(nn):
    """Every (owner, attribute) -> object of the nnspectra modules and the
    RationalMatrix class, to prove the tracer restored them."""
    snap = {}
    for name, m in sys.modules.items():
        if name == "nnspectra" or name.startswith("nnspectra."):
            for attr, value in vars(m).items():
                snap[(name, attr)] = value
    for attr, value in vars(nn.core.RationalMatrix).items():
        snap[("RationalMatrix", attr)] = value
    return snap


def layer_metrics(tracer, traced, untraced):
    ops = traced.ops
    totals = tracer.totals()
    # span times are wall times; scale them like the traced ops' times
    scale = sum(traced.norm) / traced.busy
    m = {}
    for label in SPAN_LABELS:
        calls, self_s = totals.get(label, (0, 0.0))
        m[label + ".calls"] = (calls / ops, "calls/op")
        m[label + ".self_s"] = (scale * self_s / ops, "s/op")
    for label in IN_BITS:
        m[label + ".in_bits_max"] = (tracer.maxima[label], "bits")
    for path in ("exact", "transpose", "float"):
        m["rowsum.path." + path] = (tracer.counters["rowsum.path." + path] / ops, "1/op")
    m["rowsum.B_bits_max"] = (tracer.maxima["rowsum.B_bits_max"], "bits")
    m["rowsum.S_bits_max"] = (tracer.maxima["rowsum.S_bits_max"], "bits")
    weyr_calls = totals.get("jcfcert.weyr_sequence", (0, 0.0))[0]
    ranks = tracer.calls_under("core.exact_rank", "jcfcert.weyr_sequence")
    m["jcfcert.weyr_sequence.ranks_per_call"] = (ranks / weyr_calls if weyr_calls else 0.0, "ratio")
    refused = tracer.errors("family5.diagonalizable_realization", "NotRealizableError")
    m["family5.refused"] = (refused / ops, "1/op")
    m["cli.out_bytes"] = (traced.out_bytes / ops, "B/op")
    m["output_bits_max"] = (max(traced.bits, default=0), "bits")
    m["trace.probe_s"] = (scale * totals.get("trace.probe", (0, 0.0))[1] / ops, "s/op")
    m["trace.throughput_norm_ops_s"] = (traced.throughput, "1/s")
    m["trace.untraced_throughput_norm_ops_s"] = (untraced.throughput, "1/s")
    m["trace.overhead_pct"] = (100.0 * (1.0 - traced.throughput / untraced.throughput), "%")
    return m


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def emit(phases, metrics, info):
    attempted = sum(p.ops for p in phases)
    failed = sum(len(p.failures) for p in phases)
    for p in phases:
        for index, cls, reason in p.failures:
            print("FAILED input %d (%s): %s" % (index, cls, reason))
    print("info " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print("%-48s %.6g %s" % (name, value, unit))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nn = load_program()
    wl = WORKLOADS[args.workload](nn)
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    items, setup_s, digest = setup(wl, args.seed)
    warm_up(wl, items)

    info = {
        "workload": wl.name,
        "seed": args.seed,
        "inputs": len(items),
        "inputs_digest": digest,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "load_model": "closed loop, 1 process, 1 thread, 1 client",
    }
    if not args.trace:
        ph, _ = run_timed(wl, items, args.seconds)
        info.update(ops=ph.ops, busy_s=ph.busy, outcomes=dict(ph.outcomes),
                    fail_ratio=len(ph.failures) / ph.ops, passes=ph.ops / len(items),
                    wall_throughput_ops_s=ph.wall_throughput,
                    wall_latency_p50_ms=1e3 * percentile(ph.latencies, 50),
                    wall_latency_p90_ms=1e3 * percentile(ph.latencies, 90),
                    reference_ms_median=1e3 * statistics.median(ph.refs))
        metrics = {
            "setup_s": (setup_s, "s"),
            "throughput_norm_ops_s": (ph.throughput, "1/s"),
            "latency_norm_p50_ms": (ph.percentile_ms(50), "ms"),
            "latency_norm_p90_ms": (ph.percentile_ms(90), "ms"),
            "ok_ratio": (1.0 - len(ph.failures) / ph.ops, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "output_bits_mean": (statistics.mean(ph.bits) if ph.bits else 0.0, "bits"),
        }
        emit([ph], metrics, info)
        return 0

    before = attribute_snapshot(nn)
    tracer = Tracer()
    untraced, traced = run_timed(
        wl, items, args.seconds, tracer, arm=lambda: install_tracer(tracer, nn)
    )
    if attribute_snapshot(nn) != before:
        raise RuntimeError("tracer left a wrapped attribute behind")
    tracer.dump(OUT / ("spans-%s.npz" % wl.name))
    info.update(ops=traced.ops, untraced_ops=untraced.ops, spans=len(tracer.name),
                outcomes=dict(traced.outcomes))
    emit([untraced, traced], layer_metrics(tracer, traced, untraced), info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
