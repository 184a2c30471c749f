"""Command-line front end: JSON in, JSON out.

Exit codes: 0 success, 1 a verification ran and failed, 2 usage error
(including malformed JSON, with the offending path named, and argument
values the library refuses with ``ValueError``), 3 domain error (zero
germ, singular ray, incompatible direction, ...).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from mpmath import mp, mpc

from .borel import (OneVarSeries, borel_transform, continue_on_ray,
                    laplace_sum, p_k_sum, singular_directions)
from .errors import GermsumError
from .gevrey import fit_gevrey, norm_sequence
from .harness import (EXAMPLE_NAMES, gen_example, verify_ode_formal,
                      verify_ode_numeric, verify_pde_formal)
from .scalars import (DEFAULT_PREC_BITS, QQi, parse_scalar, scalar_from_json,
                      working_prec)
from .series import MonomialOrder, series_from_json, series_to_json
from .transforms import INFINITY, blowup, dominant_data, ramify
from .weierstrass import Germ, p_expand, wdivide


# Truncation each canned verification runs at when --trunc is not given.
_VERIFY_TRUNC = {"remark79": 212, "ode-euler": 64, "pde-quasihom": 25}


class _UsageError(ValueError):
    pass


def _parse_order(text):
    tiebreak = "lex"
    if ":" in text:
        text, tiebreak = text.rsplit(":", 1)
    try:
        weights = [Fraction(w) for w in text.split(",") if w.strip()]
        return MonomialOrder(weights, tiebreak)
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"bad --order {text!r}: {exc}") from exc


def _load_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin), "<stdin>"
        with open(path) as fh:
            return json.load(fh), path
    except FileNotFoundError:
        raise _UsageError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise _UsageError(f"malformed JSON in {path}: {exc}")


def _load_series(path):
    obj, name = _load_json(path)
    try:
        return series_from_json(obj)
    except (ValueError, KeyError, TypeError) as exc:
        raise _UsageError(f"bad series JSON in {name}: {exc}")


def _load_coeffs(path):
    obj, name = _load_json(path)
    try:
        return OneVarSeries([scalar_from_json(c) for c in obj["coeffs"]])
    except (ValueError, KeyError, TypeError) as exc:
        raise _UsageError(f"bad coefficient JSON in {name}: {exc}")


def _germ_from_args(args):
    if not args.germ:
        raise _UsageError("this subcommand requires --germ FILE")
    if not args.order:
        raise _UsageError("this subcommand requires --order \"w1,w2,...[:lex]\"")
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

    def common(p, input_help="input series JSON file ('-' = stdin)"):
        p.add_argument("input", nargs="?", default="-", help=input_help)
        p.add_argument("--germ", help="germ series JSON file")
        p.add_argument("--order", help="monomial order weights, e.g. '1,2' or '1,2:revlex'")

    p = sub.add_parser("divide", help="Weierstrass division g = q*P + r")
    common(p)
    p = sub.add_parser("expand", help="expand a series in powers of the germ")
    common(p)
    p.add_argument("--depth", type=int, required=True)

    p = sub.add_parser("blowup", help="compose with a blow-up chart")
    common(p)
    p.add_argument("--xi", required=True, help="chart center: scalar or 'inf'")
    p = sub.add_parser("ramify", help="substitute x1 -> x1^k")
    common(p)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("dominant", help="leading-form data of a germ under blow-up")
    common(p, input_help="germ series JSON file ('-' = stdin)")
    p.add_argument("--base-order", help="order on variables 3..d (omit for d=2)")

    p = sub.add_parser("gevrey", help="expand and fit the Gevrey order")
    common(p)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--rho", default="0.5", help="majorant radius (default 1/2)")
    p.add_argument("--nmin", type=int, default=5)

    p = sub.add_parser("borel-sum", help="Borel-Laplace sum of a series")
    common(p, input_help="one-variable {'coeffs': [...]} JSON, or a series "
                         "JSON when --point is given")
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--t", help="evaluation point t (scalar)")
    p.add_argument("--point", help="evaluation point x0 as 'c1,c2,...' (germ sum)")
    p.add_argument("--depth", type=int, default=None)

    p = sub.add_parser("directions", help="singular directions of a Borel transform")
    common(p, input_help="one-variable {'coeffs': [...]} JSON")
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
            raise _UsageError(f"--prec {args.prec} is below the precision floor of "
                              f"{DEFAULT_PREC_BITS} bits (GERMSUM_PREC_BITS sets it)")
        with mp.workprec(working_prec(args.prec)):
            return _dispatch(args)
    except ValueError as exc:  # _UsageError and the library's argument checks
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
        xi = INFINITY if args.xi.lower() in ("inf", "infinity") else parse_scalar(args.xi)
        _emit(series_to_json(blowup(_load_series(args.input), xi)))
    elif cmd == "ramify":
        _emit(series_to_json(ramify(_load_series(args.input), args.k)))
    elif cmd == "dominant":
        p = _load_series(args.germ or args.input)
        base = _parse_order(args.base_order) if args.base_order else None
        _emit(dominant_data(p, base).to_json())
    elif cmd == "gevrey":
        germ = _germ_from_args(args)
        expansion = p_expand(_load_series(args.input), germ, args.depth)
        rho = parse_scalar(args.rho)
        if isinstance(rho, (QQi, mpc)):
            raise _UsageError(f"--rho {args.rho!r} is not a real number")
        ns = norm_sequence(expansion, rho)
        _emit(fit_gevrey(ns, args.nmin).to_json())
    elif cmd == "borel-sum":
        if args.point:
            germ = _germ_from_args(args)
            if args.depth is None:
                raise _UsageError("germ summation requires --depth")
            point = [parse_scalar(c) for c in args.point.split(",")]
            expansion = p_expand(_load_series(args.input), germ, args.depth)
            result = p_k_sum(expansion, point, args.k, args.theta)
        else:
            if args.t is None:
                raise _UsageError("need --t (or --point with --germ)")
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
        return _verify(args.name, args.trunc)
    return 0


def _verify(name, trunc):
    out = {"name": name}
    ok = True
    ex = gen_example(name, _VERIFY_TRUNC[name] if trunc is None else trunc)
    if name == "remark79":
        germ = Germ(ex.p, ex.order)
        fits = {}
        cases = {
            "direct": (ex.f, germ, 41),
            "b0": (blowup(ex.f, 0), Germ(blowup(ex.p, 0), ex.order), 61),
            "binf": (blowup(ex.f, INFINITY), Germ(blowup(ex.p, INFINITY), ex.order), 41),
        }
        expected = {"direct": 1.0, "b0": 0.5, "binf": 1.0}
        for label, (f, g, depth) in cases.items():
            est = fit_gevrey(norm_sequence(p_expand(f, g, depth), Fraction(1, 2)), 5)
            fits[label] = est.to_json()
            fits[label]["expected"] = expected[label]
            fits[label]["pass"] = abs(est.s - expected[label]) <= 0.1
            ok = ok and fits[label]["pass"]
        out["fits"] = fits
    elif name == "ode-euler":
        formal = verify_ode_formal(ex.f, ex.p)
        numeric = verify_ode_numeric(ex.f, ex.p, ex.order, math.pi, 3)
        sample = numeric.details["sample"]
        spec = numeric.details["expansion"].specialize(sample.points[0])
        report = singular_directions(borel_transform(OneVarSeries(spec), 1), 1)
        out["formal"] = formal.to_json()
        out["numeric"] = numeric.to_json()
        out["singular_directions"] = report.to_json()
        ok = (formal.exact_to_truncation
              and numeric.numeric_max_residual < 1e-8
              and all(s["residual"] <= s["bound"] for s in numeric.details["samples"])
              and any(abs(d) < 0.05 for d in report.directions))
    elif name == "pde-quasihom":
        report, _ = verify_pde_formal(ex.f, ex.p, ex.notes["alpha"],
                                      ex.notes["beta"], ex.notes["k"])
        out["formal"] = report.to_json()
        ok = (report.details["divisible_by_stated_rhs"]
              and report.details["cofactor_is_x1"])
    out["pass"] = ok
    _emit(out)
    return 0 if ok else 1


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
