"""Command-line front end: JSON in, JSON out.

Each subcommand takes only the options it reads, and argparse refuses any
other.  Exit codes: 0 success, 1 a verification ran and failed, 2 usage
error (an option the subcommand does not read, malformed JSON, with the
offending path named, and argument values the library refuses with
``ValueError``), 3 domain error (zero germ, singular ray, incompatible
direction, ...), 141 the reader of stdout closed it before the output was written.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from mpmath import mp

from .borel import (OneVarSeries, borel_transform, continue_on_ray, laplace_sum, p_k_sum,
                    singular_directions)
from .errors import GermsumError
from .gevrey import fit_gevrey, norm_sequence
from .harness import EXAMPLE_NAMES, verify_example
from .scalars import DEFAULT_PREC_BITS, parse_scalar, scalar_from_json, working_prec
from .series import MonomialOrder, series_from_json, series_to_json
from .transforms import blowup, dominant_data, ramify
from .weierstrass import Germ, p_expand, wdivide


def _parse_order(text):
    tiebreak = "lex"
    if ":" in text:
        text, tiebreak = text.rsplit(":", 1)
    try:
        weights = [Fraction(w) for w in text.split(",") if w.strip()]
        return MonomialOrder(weights, tiebreak)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad --order {text!r}: {exc}") from exc


def _load_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin), "<stdin>"
        with open(path) as fh:
            return json.load(fh), path
    except FileNotFoundError:
        raise ValueError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}")


def _load_series(path):
    obj, name = _load_json(path)
    try:
        return series_from_json(obj)
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"bad series JSON in {name}: {exc}")


def _load_coeffs(path):
    obj, name = _load_json(path)
    try:
        return OneVarSeries([scalar_from_json(c) for c in obj["coeffs"]])
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"bad coefficient JSON in {name}: {exc}")


def _germ_from_args(args):
    if not args.germ:
        raise ValueError("this subcommand requires --germ FILE")
    if not args.order:
        raise ValueError("this subcommand requires --order \"w1,w2,...[:lex]\"")
    return Germ(_load_series(args.germ), _parse_order(args.order))


def _emit(obj):
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="germsum",
        description="Series division, germ-power expansion, blow-ups, Gevrey "
                    "estimation and Borel-Laplace summation.")
    ap.add_argument("--prec", type=int, default=None,
                    help=f"working precision in bits, at least the default "
                         f"(env GERMSUM_PREC_BITS or {DEFAULT_PREC_BITS})")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, help, input_help="input series JSON file ('-' = stdin)", germ=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("input", nargs="?", default="-", help=input_help)
        if germ:
            p.add_argument("--germ", help="germ series JSON file")
            p.add_argument("--order", help="monomial order weights, e.g. '1,2' or '1,2:revlex'")
        return p

    command("divide", "Weierstrass division g = q*P + r", germ=True)
    p = command("expand", "expand a series in powers of the germ", germ=True)
    p.add_argument("--depth", type=int, required=True)

    p = command("blowup", "compose with a blow-up chart")
    p.add_argument("--xi", required=True, help="chart center: scalar or 'inf'")
    p = command("ramify", "substitute x1 -> x1^k")
    p.add_argument("--k", type=int, required=True)

    p = command("dominant", "leading-form data of a germ under blow-up",
                input_help="germ series JSON file ('-' = stdin)")
    p.add_argument("--base-order", help="order on variables 3..d (omit for d=2)")

    p = command("gevrey", "expand and fit the Gevrey order", germ=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--rho", default="0.5", help="majorant radius (default 1/2)")
    p.add_argument("--nmin", type=int, default=5)

    p = command("borel-sum", "Borel-Laplace sum of a series",
                input_help="one-variable {'coeffs': [...]} JSON, or a series "
                           "JSON when --point is given", germ=True)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--theta", type=float, required=True)
    at = p.add_mutually_exclusive_group(required=True)
    at.add_argument("--t", help="evaluation point t (scalar)")
    at.add_argument("--point", help="evaluation point x0 as 'c1,c2,...' (germ sum, with "
                                    "--germ, --order and --depth)")
    p.add_argument("--depth", type=int, default=None)

    p = command("directions", "singular directions of a Borel transform",
                input_help="one-variable {'coeffs': [...]} JSON")
    p.add_argument("--k", type=float, default=1.0)

    p = sub.add_parser("verify", help="run a canned example verification")
    p.add_argument("name", choices=EXAMPLE_NAMES)
    p.add_argument("--trunc", type=int, default=None)
    return ap


def cli_main(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.prec is not None and args.prec < DEFAULT_PREC_BITS:
            # series arithmetic never runs below the floor, so a lower
            # --prec could not be honoured throughout
            raise ValueError(f"--prec {args.prec} is below the precision floor of "
                             f"{DEFAULT_PREC_BITS} bits (GERMSUM_PREC_BITS sets it)")
        with mp.workprec(working_prec(args.prec)):
            return _dispatch(args)
    except ValueError as exc:  # usage errors and the library's argument checks
        print(f"germsum: {exc}", file=sys.stderr)
        return 2
    except GermsumError as exc:
        print(f"germsum: {exc}", file=sys.stderr)
        return 3


def _dispatch(args):
    # runs inside mp.workprec(--prec): every library call below takes its
    # working precision from that context (scalars.working_prec)
    cmd = args.command
    if cmd == "divide":
        germ = _germ_from_args(args)
        division = wdivide(_load_series(args.input), germ)
        _emit({"q": series_to_json(division.q), "r": series_to_json(division.r)})
    elif cmd == "expand":
        germ = _germ_from_args(args)
        _emit(p_expand(_load_series(args.input), germ, args.depth).to_json())
    elif cmd == "blowup":
        _emit(series_to_json(blowup(_load_series(args.input), args.xi)))
    elif cmd == "ramify":
        _emit(series_to_json(ramify(_load_series(args.input), args.k)))
    elif cmd == "dominant":
        p = _load_series(args.input)
        base = _parse_order(args.base_order) if args.base_order else None
        _emit(dominant_data(p, base).to_json())
    elif cmd == "gevrey":
        germ = _germ_from_args(args)
        expansion = p_expand(_load_series(args.input), germ, args.depth)
        ns = norm_sequence(expansion, parse_scalar(args.rho))
        _emit(fit_gevrey(ns, args.nmin).to_json())
    elif cmd == "borel-sum":
        if args.point is not None:
            germ = _germ_from_args(args)
            if args.depth is None:
                raise ValueError("germ summation requires --depth")
            point = [parse_scalar(c) for c in args.point.split(",")]
            expansion = p_expand(_load_series(args.input), germ, args.depth)
            result = p_k_sum(expansion, point, args.k, args.theta)
        else:
            stray = [f"--{opt}" for opt in ("germ", "order", "depth")
                     if getattr(args, opt) is not None]
            if stray:
                raise ValueError(f"{', '.join(stray)}: read only by a germ sum at --point")
            series = _load_coeffs(args.input)
            b = borel_transform(series, args.k)
            t = parse_scalar(args.t)
            rc = continue_on_ray(b, args.theta)
            result = laplace_sum(rc, args.k, t)
        _emit(result.to_json())
    elif cmd == "directions":
        series = _load_coeffs(args.input)
        b = borel_transform(series, args.k)
        _emit(singular_directions(b, args.k).to_json())
    elif cmd == "verify":
        out = verify_example(args.name, args.trunc)
        _emit(out)
        return 0 if out["pass"] else 1
    return 0


def main():
    try:
        code = cli_main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: nothing more is read, so point stdout at devnull
        # (the flush at exit would raise again) and exit as a shell reports SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
