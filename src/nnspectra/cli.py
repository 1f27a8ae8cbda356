"""Command-line interface: one binary, deterministic JSON/CSV artifacts.

Subcommands: normalize, guo-shift, bond, realize5, region, verify,
jordan-forms, demo.  All rationals on the command line use "p/q" or decimal
strings and are parsed exactly.  Exit codes: 0 success, 1 usage or domain
error, 2 a failed certificate or no certificate (`bond` writes a "reason"
when it cannot certify).  Artifacts contain no timestamps, so repeated runs
on the same inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from . import family5
from .bonding import bond_certificate, smigoc_bond
from .core import (
    JordanSpec,
    RationalMatrix,
    Spectrum,
    format_rational,
    matrix_from_json,
    matrix_to_json,
    rat,
    vector_from_json,
)
from .errors import DomainError, SpectraError
from .jcfcert import enumerate_jordan_forms, jordan_spec, verify_certificate
from .perturb import rank_one_shift
from .rowsum import constant_row_sum_value, to_constant_row_sums

SCHEMA_VERSION = 1


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _dump_json(obj, path):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _matrix_arg(path) -> RationalMatrix:
    return matrix_from_json(_load_json(path))


def _spectrum_arg(path) -> Spectrum:
    return Spectrum.from_json(_load_json(path))


def _positive_int(text) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer, not %s" % text)
    return value


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_normalize(args) -> int:
    A = _matrix_arg(args.infile)
    result = to_constant_row_sums(A, mode=args.mode)
    _dump_json(result.to_json(), args.out)
    return 0


def cmd_guo_shift(args) -> int:
    B = _matrix_arg(args.infile)
    lam = constant_row_sum_value(B)
    if args.qfile:
        q = vector_from_json(_load_json(args.qfile))
    elif args.eps is not None:
        eps = rat(args.eps)
        q = tuple(eps / B.rows for _ in range(B.rows))
    else:
        raise DomainError("guo-shift needs --eps or --q")
    if args.spectrum:
        jordan_spec(B, _spectrum_arg(args.spectrum))  # the claim must be char_poly(B)
    shifted = rank_one_shift(B, q)
    out = {
        "schema": SCHEMA_VERSION,
        "lambda": format_rational(lam),
        "shift": format_rational(sum((rat(v) for v in q), Fraction(0))),
        "result": matrix_to_json(shifted),
    }
    _dump_json(out, args.out)
    return 0


def cmd_bond(args) -> int:
    A = _matrix_arg(args.a)
    B = _matrix_arg(args.b)
    c = rat(args.c)
    u = vector_from_json(_load_json(args.u)) if args.u else None
    v = vector_from_json(_load_json(args.v)) if args.v else None
    C = smigoc_bond(A, B, c, u=u, v=v, auto_normalize=args.auto_normalize)
    cert = bond_certificate(A, B, c, C)
    out = {
        "schema": SCHEMA_VERSION,
        "c": format_rational(c),
        "result": matrix_to_json(C),
        "certificate": cert.to_json() if cert is not None else None,
    }
    if cert is None:
        out["reason"] = (
            "no exact certificate: the spectrum of A or B was not recovered over Q"
        )
        sys.stderr.write(out["reason"] + "\n")
    _dump_json(out, args.out)
    return 0 if cert is not None and cert.verdict else 2


def cmd_realize5(args) -> int:
    point = family5.make_point(args.family, rat(args.t0), rat(args.t))
    d1 = None if args.d1 in (None, "auto") else rat(args.d1)
    cert = family5.diagonalizable_realization(point, d1)
    gamma = point.gamma1_coeffs()
    interval = family5.feasible_d1(gamma)
    out = {
        "schema": SCHEMA_VERSION,
        "family": args.family,
        "t0": format_rational(point.t0),
        "t": format_rational(point.t),
        "list": [format_rational(v) for v in point.values],
        "coefficients": {
            "k2": format_rational(point.coeffs[0]),
            "k3": format_rational(point.coeffs[1]),
            "k4": format_rational(point.coeffs[2]),
            "k5": format_rational(point.coeffs[3]),
        },
        "d1_interval": {
            "lo": repr(interval.lo),
            "hi": repr(interval.hi),
            "lo_exact": format_rational(interval.lo_exact)
            if interval.lo_exact is not None
            else None,
            "hi_exact": format_rational(interval.hi_exact)
            if interval.hi_exact is not None
            else None,
        },
        "certificate": cert.to_json(),
    }
    _dump_json(out, args.out)
    return 0 if cert.verdict else 2


def cmd_region(args) -> int:
    rows = family5.region_rows(args.family, rat(args.grid_step))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t0", "t", "torre", "boundary_member", "symmetric"])
    writer.writerows(rows)
    text = buf.getvalue()
    if args.out is None or args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return 0


def cmd_verify(args) -> int:
    M = _matrix_arg(args.matrix)
    spectrum = _spectrum_arg(args.spectrum)
    if args.jordan:
        jordan = JordanSpec.from_json(_load_json(args.jordan))
    else:
        jordan = JordanSpec.from_map(
            [(v, [1] * m) for v, m in spectrum.pairs]
        )
    cert = verify_certificate(M, spectrum, jordan)
    _dump_json(cert.to_json(), args.out)
    return 0 if cert.verdict else 2


def cmd_jordan_forms(args) -> int:
    spectrum = _spectrum_arg(args.spectrum)
    forms = [form.to_json() for form in enumerate_jordan_forms(spectrum)]
    out = {
        "schema": SCHEMA_VERSION,
        "spectrum": spectrum.to_json(),
        "count": len(forms),
        "forms": forms,
    }
    _dump_json(out, args.out)
    return 0


def cmd_demo(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    report = []
    report.append("# Demonstration report\n")
    report.append(
        "All artifacts below are reproduced end-to-end with exact rational "
        "arithmetic and certified where a certificate is defined.\n"
    )

    # 1-2: the two parametric 5x5 reconstructions
    for label, family, t0, t, d1 in (
        ("first", "t", "1", "4/5", "11/2"),
        ("second", "tprime", "1/2", "3/10", "9"),
    ):
        point = family5.make_point(family, rat(t0), rat(t))
        cert = family5.diagonalizable_realization(point, rat(d1))
        path = os.path.join(args.out_dir, "realization_%s.json" % label)
        _dump_json(cert.to_json(), path)
        report.append(
            "## %s reconstruction\n\n"
            "family=%s, t0=%s, t=%s, d1=%s; list {%s}; verdict: %s; "
            "artifact: %s\n"
            % (
                label,
                family,
                t0,
                t,
                d1,
                ", ".join(format_rational(v) for v in point.values),
                "pass" if cert.verdict else "fail",
                os.path.basename(path),
            )
        )
        if not cert.verdict:
            return 2

    # 3: Perron-up / third-entry-down collapse blocks the diagonalizable path
    guo = family5.demo_guo_collapse()
    path = os.path.join(args.out_dir, "demo_perron_collapse.json")
    _dump_json(
        {
            "schema": SCHEMA_VERSION,
            "original": [format_rational(v) for v in guo.original],
            "original_in_region": guo.original_member,
            "collapsed": [format_rational(v) for v in guo.collapsed],
            "collapsed_realizable_as_list": guo.collapsed_list_realizable,
            "symmetric_flag_t_ge_1": guo.spector_flag,
            "diagonalizable_path_error": guo.diagonalizable_path_error,
        },
        path,
    )
    report.append(
        "## Perron-shift collapse\n\n"
        "Raising the Perron entry by t0 while lowering the third entry by t0 "
        "maps {%s} (diagonalizably realizable, t < 1) onto {%s}, which is "
        "realizable as a list but admits no diagonalizable realization for "
        "t < 1; the constructive path reports: %s\n"
        % (
            ", ".join(format_rational(v) for v in guo.original),
            ", ".join(format_rational(v) for v in guo.collapsed),
            guo.diagonalizable_path_error,
        )
    )

    # 4: union obstruction search
    union = family5.demo_union_obstruction(samples=args.samples, seed=args.seed)
    path = os.path.join(args.out_dir, "demo_union_search.json")
    _dump_json(
        {
            "schema": SCHEMA_VERSION,
            "samples": union.samples,
            "forbidden_jordan_hits": union.forbidden_hits,
            "perron_diagonal_samples": union.perron_diagonal_samples,
            "perron_diagonal_with_nonzero_coupling": union.perron_diagonal_with_coupling,
            "weyr_histogram": union.weyr_histogram,
        },
        path,
    )
    report.append(
        "## Union obstruction search\n\n"
        "%d random block realizations of {1, 1, -1, -1}: %d carried the "
        "impossible combination (diagonal structure at +1 with a 2x2 block "
        "at -1).  Every sample with diagonal structure at +1 had zero "
        "coupling (%d of %d).\n"
        % (
            union.samples,
            union.forbidden_hits,
            union.perron_diagonal_samples - union.perron_diagonal_with_coupling,
            union.perron_diagonal_samples,
        )
    )
    if union.forbidden_hits:
        return 2

    # 5: forced-decoupling algebra, numerically
    forced = family5.demo_forced_coupling(samples=5, seed=args.seed + 1)
    path = os.path.join(args.out_dir, "demo_forced_decoupling.json")
    _dump_json(
        {"schema": SCHEMA_VERSION, "instances": forced.instances}, path
    )
    report.append(
        "## Forced decoupling\n\n"
        "For block realizations of {1, 1, -1, -1}, the cubic minimal "
        "polynomial of the impossible Jordan form expands its lower-left "
        "block into (CB + DC) + DCB + C, a sum of nonnegative terms; the "
        "instances in demo_forced_decoupling.json show the sum vanishes "
        "exactly when the coupling C is zero.\n"
    )

    with open(
        os.path.join(args.out_dir, "report.md"), "w", encoding="utf-8", newline="\n"
    ) as fh:
        fh.write("\n".join(report))
    return 0


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nnspectra",
        description="Nonnegative matrices with prescribed spectra and Jordan "
        "structure, certified over exact rationals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="similarity to constant-row-sum form")
    p.add_argument("--in", dest="infile", required=True, help="matrix JSON")
    p.add_argument("--mode", choices=["exact", "float", "auto"], default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("guo-shift", help="rank-one Perron shift of a CS matrix")
    p.add_argument("--in", dest="infile", required=True, help="CS matrix JSON")
    p.add_argument("--eps", default=None, help="uniform shift p/q (q = eps/n * e)")
    p.add_argument("--q", dest="qfile", default=None, help="explicit q vector JSON")
    p.add_argument(
        "--spectrum", default=None, help="spectrum JSON of B, checked exactly against char_poly(B)"
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_guo_shift)

    p = sub.add_parser("bond", help="glue two matrices through a shared eigenvalue")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--u", default=None)
    p.add_argument("--v", default=None)
    p.add_argument("--auto-normalize", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bond)

    p = sub.add_parser("realize5", help="diagonalizable realization of a degree-5 list")
    p.add_argument("--family", choices=list(family5.FAMILIES), required=True)
    p.add_argument("--t0", default="0")
    p.add_argument("--t", required=True)
    p.add_argument("--d1", default="auto")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_realize5)

    p = sub.add_parser("region", help="realizability sweep over the parameter triangle")
    p.add_argument("--family", choices=list(family5.FAMILIES), required=True)
    p.add_argument("--grid-step", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("verify", help="verify a realization certificate")
    p.add_argument("--matrix", required=True)
    p.add_argument("--spectrum", required=True)
    p.add_argument("--jordan", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("jordan-forms", help="enumerate Jordan forms allowed by a spectrum")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_jordan_forms)

    p = sub.add_parser("demo", help="run the scripted demonstrations end to end")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--samples", type=_positive_int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_demo)

    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SpectraError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
