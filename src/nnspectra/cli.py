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
import dataclasses
import functools
import io
import json
import math
import os
import re
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
from .jcfcert import _prove_spectrum, enumerate_jordan_forms, verify_certificate
from .perturb import rank_one_shift
from .rowsum import to_constant_row_sums

SCHEMA_VERSION = 1


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise DomainError("%s: %s" % (path, exc)) from None


def _write_text(text, path):
    """text to the file at path, or to stdout when path is None or "-"."""
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


_escape = json.encoder.encode_basestring_ascii  # json's C escaper, ensure_ascii=True


def _json_text(obj, newline="\n"):
    """obj in the text that json.dumps writes with indent=2 and
    sort_keys=True, byte for byte, with newline the line break and indent of
    obj's own level.  json writes an indented document with its pure-Python
    encoder; this builds each container level with one join and escapes
    strings with json's C escaper.  Types are tested in json's order (bool
    before int), a tuple is written as a list, and any other type, or a key
    that is not a string, raises TypeError."""
    if isinstance(obj, str):
        return _escape(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj == math.inf:
            return "Infinity"
        if obj == -math.inf:
            return "-Infinity"
        return float.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_escape(v) if type(v) is str else _json_text(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # _escape raises TypeError on a key that is not a string
        items = [
            _escape(k) + ": " + (_escape(v) if type(v) is str else _json_text(v, inner))
            for k, v in sorted(obj.items())
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError("Object of type %s is not JSON serializable" % type(obj).__name__)


def _dump_json(obj, path):
    _write_text(_json_text(obj) + "\n", path)


def _demo_artifact(result):
    """A demo result's fields under their own names, tuples of values as
    lists of rational strings."""
    out = {"schema": SCHEMA_VERSION}
    for name, value in dataclasses.asdict(result).items():
        out[name] = [format_rational(v) for v in value] if isinstance(value, tuple) else value
    return out


def _matrix_arg(path) -> RationalMatrix:
    return matrix_from_json(_load_json(path))


def _spectrum_arg(path) -> Spectrum:
    return Spectrum.from_json(_load_json(path))


def _require_order(M, claim, name):
    """Refuse a claimed spectrum or Jordan form whose order is not M's row
    count, before any char poly or Weyr work: a long claim would cost time
    and output, only to fail."""
    if claim.order != M.rows:
        raise DomainError(
            "the matrix does not match the claimed %s: it has %d rows, the claim "
            "has order %d" % (name, M.rows, claim.order)
        )


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
    if args.qfile is not None:
        q = vector_from_json(_load_json(args.qfile))
    else:
        eps = rat(args.eps)
        q = tuple(eps / B.rows for _ in range(B.rows))
    # the claim must be B's spectrum: one Krylov basis proves it for a
    # nonderogatory B, and only otherwise is it matched against char_poly(B);
    # the shift itself takes no char poly
    if args.spectrum:
        spectrum = _spectrum_arg(args.spectrum)
        _require_order(B, spectrum, "spectrum")
        _prove_spectrum(B, spectrum)
    shifted = rank_one_shift(B, q)
    # rank_one_shift has proved B's rows sum to one value: read it off row 0
    lam = Fraction(sum(B.num[0]), B.den)
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
            "no exact certificate: the char poly of A or B does not split over Q"
        )
        sys.stderr.write(out["reason"] + "\n")
    _dump_json(out, args.out)
    return 0 if cert is not None and cert.verdict else 2


def cmd_realize5(args) -> int:
    point = family5.make_point(args.family, rat(args.t0), rat(args.t))
    d1 = None if args.d1 in (None, "auto") else rat(args.d1)
    cert = family5.diagonalizable_realization(point, d1)
    lo, hi = point.d1_interval.lo, point.d1_interval.hi
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
        # an endpoint is a Fraction when it is rational, else a float bracket
        "d1_interval": {
            "lo": repr(float(lo)),
            "hi": repr(float(hi)),
            "lo_exact": format_rational(lo) if isinstance(lo, Fraction) else None,
            "hi_exact": format_rational(hi) if isinstance(hi, Fraction) else None,
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
    _write_text(buf.getvalue(), args.out)
    return 0


def cmd_verify(args) -> int:
    M = _matrix_arg(args.matrix)
    spectrum = _spectrum_arg(args.spectrum)
    _require_order(M, spectrum, "spectrum")
    if args.jordan:
        jordan = JordanSpec.from_json(_load_json(args.jordan))
        _require_order(M, jordan, "Jordan form")
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
    if not 0 < args.samples <= 10**6:
        raise DomainError(
            "--samples must be a positive integer at most 10^6, not %d" % args.samples
        )
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
    _dump_json(_demo_artifact(guo), os.path.join(args.out_dir, "demo_perron_collapse.json"))
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
    _dump_json(_demo_artifact(union), os.path.join(args.out_dir, "demo_union_search.json"))
    report.append(
        "## Union obstruction search\n\n"
        "%d random block realizations of {1, 1, -1, -1}: %d carried the "
        "impossible combination (diagonal structure at +1 with a 2x2 block "
        "at -1).  Every sample with diagonal structure at +1 had zero "
        "coupling (%d of %d).\n"
        % (
            union.samples,
            union.forbidden_jordan_hits,
            union.perron_diagonal_samples - union.perron_diagonal_with_nonzero_coupling,
            union.perron_diagonal_samples,
        )
    )
    if union.forbidden_jordan_hits:
        return 2

    # 5: forced-decoupling algebra, numerically
    forced = family5.demo_forced_coupling(samples=5, seed=args.seed + 1)
    _dump_json(_demo_artifact(forced), os.path.join(args.out_dir, "demo_forced_decoupling.json"))
    report.append(
        "## Forced decoupling\n\n"
        "For block realizations of {1, 1, -1, -1}, the cubic minimal "
        "polynomial of the impossible Jordan form expands its lower-left "
        "block into (CB + DC) + DCB + C, a sum of nonnegative terms; the "
        "instances in demo_forced_decoupling.json show the sum vanishes "
        "exactly when the coupling C is zero.\n"
    )

    _write_text("\n".join(report), os.path.join(args.out_dir, "report.md"))
    return 0


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that refuses a malformed command line with a
    DomainError, so that dispatch words it as it words every typed refusal:
    one "error:" line, exit code 1, no usage block.  Subcommand parsers are
    made of the same class.

    argparse takes only "-1" and "-0.5" for negative numbers, so "--t -1/2"
    would lose its value; here "-" before a digit, or before "." and a digit,
    starts a value, which covers every negative form rat parses.  No option
    of this parser starts so."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise DomainError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later
    call in the process.  Do not mutate it: parse_args stores into a fresh
    Namespace each time, so the shared parser carries no state between calls."""
    parser = _Parser(
        prog="nnspectra",
        description="Nonnegative matrices with prescribed spectra and Jordan "
        "structure, certified over exact rationals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="similarity to constant-row-sum form")
    p.add_argument("--in", dest="infile", required=True, help="matrix JSON")
    p.add_argument("--mode", choices=["exact", "float", "auto"], default="auto")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("guo-shift", help="rank-one Perron shift of a CS matrix")
    p.add_argument("--in", dest="infile", required=True, help="CS matrix JSON")
    shift = p.add_mutually_exclusive_group(required=True)
    shift.add_argument("--eps", default=None, help="uniform shift p/q (q = eps/n * e)")
    shift.add_argument("--q", dest="qfile", default=None, help="explicit q vector JSON")
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
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_demo)

    return parser


def dispatch(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help, after argparse has printed it
        return 1 if exc.code not in (0, None) else 0
    except SpectraError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except OSError as exc:  # open() and makedirs() name the path they failed on
        if exc.filename is None:
            sys.stderr.write("error: %s\n" % exc)
        else:
            sys.stderr.write("error: %s: %s\n" % (exc.filename, exc.strerror))
        return 1
    except (KeyError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
