import cmath
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import mpmath
import pytest
from mpmath import mp

import germsum
import germsum.borel as borel
from germsum.borel import OneVarSeries, singular_directions
from germsum.cli import cli_main
from germsum.scalars import DEFAULT_PREC_BITS, QQi, parse_scalar
from germsum.harness import ExampleData, gen_example, verify_example, verify_ode_numeric
from germsum.series import MonomialOrder, TruncatedSeries, series_from_json, series_to_json
from germsum.transforms import blowup
from germsum.weierstrass import Germ, p_expand, wdivide
from helpers import pole_transform_quad

TS = TruncatedSeries


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)
    return write


def run(capsys, argv):
    code = cli_main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def child_env(**extra):
    """The environment of a child that imports the same germsum as this process,
    installed or from src/."""
    env = dict(os.environ, **extra)
    package_root = str(Path(germsum.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def test_divide_round_trip(files, capsys):
    p = files("p.json", series_to_json(TS(2, 12, {(1, 1): 1})))
    g = files("g.json", series_to_json(TS(2, 12, {(2, 1): 1, (1, 0): 1, (0, 2): 1})))
    code, out = run(capsys, ["divide", "--germ", p, "--order", "1,1", g])
    assert code == 0
    q = series_from_json(out["q"])
    r = series_from_json(out["r"])
    assert q.terms == {(1, 0): 1}
    assert r.terms == {(1, 0): 1, (0, 2): 1}


def test_expand_output_parses_back(files, capsys):
    p = files("p.json", series_to_json(TS(2, 12, {(0, 2): 1, (3, 0): -1})))
    f = files("f.json", series_to_json(TS(2, 12, {(6, 0): 1, (1, 0): 2})))
    code, out = run(capsys, ["expand", "--germ", p, "--order", "1,2",
                             "--depth", "3", f])
    assert code == 0
    from germsum.weierstrass import PExpansion
    exp = PExpansion.from_json(out)
    assert exp.depth == 3
    # output series JSON re-parses to equal values
    for g_json, g in zip(out["coeffs"], exp.coeffs):
        assert series_from_json(g_json) == g


def test_blowup_and_ramify(files, capsys, monkeypatch):
    f = files("f.json", series_to_json(TS(2, 10, {(1, 1): 1})))
    code, out = run(capsys, ["blowup", "--xi", "inf", f])
    assert code == 0 and series_from_json(out).terms == {(1, 2): 1}
    code, out = run(capsys, ["blowup", "--xi", "1/2", f])
    assert code == 0
    assert series_from_json(out).terms == {(1, 2): 1, (0, 2): Fraction(1, 2)}
    code, out = run(capsys, ["ramify", "--k", "3", f])
    assert code == 0 and series_from_json(out).terms == {(3, 1): 1}
    # '-' reads the input from stdin
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(series_to_json(TS(2, 10, {(1, 1): 1})))))
    code, out = run(capsys, ["ramify", "--k", "3", "-"])
    assert code == 0 and series_from_json(out).terms == {(3, 1): 1}


def test_blowup_keeps_small_float_input(files, capsys):
    # 1e-25 x2 beside x1 read from JSON at 128 bits gives v2 and 1e-25 v1 v2
    f = files("f.json", {"dim": 2, "trunc": 3, "terms": [{"exp": [1, 0], "coeff": 1.0},
                                                         {"exp": [0, 1], "coeff": 1e-25}]})
    code, out = run(capsys, ["blowup", "--xi", "0", f])
    assert code == 0 and series_from_json(out).terms == {(0, 1): 1.0, (1, 1): 1e-25}


def test_blowup_output_independent_of_center_spelling(files, capsys):
    f = files("f.json", series_to_json(TS(2, 4, {(1, 0): Fraction(1, 3),
                                                 (0, 1): Fraction(1, 4), (1, 1): 1})))
    cli_main(["blowup", "--xi", "1/2", f])
    plain = capsys.readouterr().out
    cli_main(["blowup", "--xi", "1/2+0j", f])
    assert capsys.readouterr().out == plain
    # both spellings name the exact real centre, so both run the exact-rational pass
    g = series_from_json(json.loads(plain))
    for xi in ("1/2+0j", Fraction(1, 2)):
        out = blowup(g, xi)
        assert all(type(c) is Fraction for c in out.terms.values())


def test_non_finite_center_refused(files, capsys):
    f = files("f.json", series_to_json(TS(2, 4, {(1, 1): 1, (1, 0): Fraction(1, 3)})))
    for xi in ("nan", "-inf", "nan+1j"):
        assert cli_main(["blowup", f"--xi={xi}", f]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "non-finite scalar" in captured.err
    # the chart at infinity is spelled "inf" and is resolved before any parsing
    code, out = run(capsys, ["blowup", "--xi", "inf", f])
    assert code == 0 and series_from_json(out).terms == {(1, 2): 1, (1, 1): Fraction(1, 3)}


def test_non_finite_json_coefficient_refused(tmp_path, capsys):
    for coeff in (float("nan"), {"re": 1.0, "im": float("inf")}):
        path = tmp_path / "f.json"
        # json.dumps writes the non-standard NaN / Infinity tokens json.load accepts
        path.write_text(json.dumps({"dim": 2, "trunc": 4, "terms": [
            {"exp": [1, 1], "coeff": "1"}, {"exp": [1, 0], "coeff": coeff}]}))
        assert cli_main(["ramify", "--k", "2", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "non-finite scalar" in captured.err


def test_non_integer_json_field_refused(files, capsys):
    f = files("f.json", {"dim": 2.9, "trunc": 4.7,
                         "terms": [{"exp": [1.5, 0], "coeff": "1"}]})
    assert cli_main(["ramify", "--k", "2", f]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "expected an integer" in captured.err


def test_dominant(files, capsys):
    p = files("p.json", series_to_json(TS(2, 10, {(1, 1): 1})))
    code, out = run(capsys, ["dominant", p])
    assert code == 0
    assert out["h"] == 2
    assert {r["value"] for r in out["roots"]} == {"0", "inf"}
    # finite nonzero roots are written as Python complex literals
    for terms, values in (({(2, 0): 1, (0, 2): -1}, {"1.0", "-1.0"}),
                          ({(2, 0): 1, (0, 2): 1}, {"1j", "-1j"})):
        code, out = run(capsys, ["dominant", files("p.json", series_to_json(TS(2, 10, terms)))])
        assert code == 0 and {r["value"] for r in out["roots"]} == values
    code, out = run(capsys, ["dominant",
                             files("p.json", series_to_json(TS(2, 10, {(3, 0): 1, (0, 3): -2})))])
    assert code == 0 and len(out["roots"]) == 3
    expected = [2 ** (-1 / 3) * cmath.exp(2j * math.pi * j / 3) for j in range(3)]
    for r in out["roots"]:
        assert r["mult"] == 1
        assert min(abs(complex(r["value"]) - z) for z in expected) < 1e-15


@pytest.mark.parametrize("terms", [
    {(2, 0): 1, (1, 1): -1, (0, 2): 1},  # H(1, xi) = 1 - xi + xi^2: xi = (1 +- i sqrt 3)/2
    {(2, 0): 1, (0, 2): 1},  # xi = +-i
    {(2, 0): 1, (1, 1): 1, (0, 2): -2}])  # xi = 1, -1/2
def test_dominant_roots_read_back_as_blowup_centres(files, capsys, terms):
    # every root dominant prints is a scalar parse_scalar reads (a QQi when it is not
    # real), and blowup takes it as the chart centre
    p = files("p.json", series_to_json(TS(2, 6, terms)))
    code, out = run(capsys, ["dominant", p])
    assert code == 0 and len(out["roots"]) == 2
    for root in out["roots"]:
        xi = parse_scalar(root["value"])
        z = complex(xi.re, xi.im) if isinstance(xi, QQi) else complex(xi)
        assert isinstance(xi, QQi) == (z.imag != 0)
        assert abs(sum(c * z ** e[1] for e, c in terms.items())) < 1e-15
        code, blown = run(capsys, ["blowup", f"--xi={root['value']}", p])
        assert code == 0 and blown["dim"] == 2, root


def test_closed_stdout_pipe_exits_141_without_traceback(files):
    # a dense trunc-50 series blown up at 1/2 prints about 0.5 MB, far past the 64 KB
    # pipe buffer, so the child is still writing when its reader goes after 16 bytes
    f = files("f.json", series_to_json(TS(2, 50, {
        (i, j): Fraction(10 ** 20 + i, 10 ** 20 + 2 * j + 1)
        for i in range(51) for j in range(51 - i)})))
    with subprocess.Popen([sys.executable, "-m", "germsum.cli", "blowup", "--xi", "1/2", f],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=child_env()) as child:
        assert len(child.stdout.read(16)) == 16
        child.stdout.close()
        err = child.stderr.read().decode()
        assert child.wait(timeout=60) == 141
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_gevrey(files, capsys):
    terms = [{"exp": [n, 3 * n], "coeff": str(factorial(n))} for n in range(11)]
    f = files("f.json", {"dim": 2, "trunc": 60, "terms": terms})
    p = files("p.json", series_to_json(TS(2, 60, {(1, 1): 1})))
    code, out = run(capsys, ["gevrey", "--germ", p, "--order", "1,1",
                             "--depth", "11", "--rho", "1/2", f])
    assert code == 0
    assert abs(out["s"] - 1.0) < 0.25


def test_borel_sum_and_directions(files, capsys):
    coeffs = files("c.json", {"coeffs": [str((-1) ** n * factorial(n))
                                         for n in range(32)]})
    code, out = run(capsys, ["borel-sum", "--k", "1", "--theta", "0",
                             "--t", "0.1", coeffs])
    assert code == 0
    # the value is emitted as decimal strings at the working precision, so
    # it carries the accuracy the errors report: e^(1/t) E1(1/t) / t
    with mp.workprec(256):
        value = mpmath.mpc(out["value"]["re"], out["value"]["im"])
        exact = 10 * mpmath.exp(10) * mpmath.e1(10)
        err = abs(value - exact)
    assert err <= out["quadrature_error"] + out["continuation_error"]
    assert out["quadrature_error"] < 1e-30
    code, out = run(capsys, ["directions", "--k", "1", coeffs])
    assert code == 0
    assert any(abs(d - math.pi) < 0.05 for d in out["directions"])


def test_borel_sum_at_a_tiny_t(files, capsys):
    # |p/t| beyond the float range: the Euler series sums at t = -1e-307
    # within its reported error of the closed form -e^(1/r) E1(1/r)
    coeffs = files("c.json", {"coeffs": [str(factorial(n - 1)) if n else "0" for n in range(12)]})
    code, out = run(capsys, ["borel-sum", "--theta", str(math.pi), "--t=-1e-307", coeffs])
    assert code == 0
    with mp.workprec(256):
        value = mpmath.mpc(out["value"]["re"], out["value"]["im"])
        q = 1 / mpmath.mpf("1e-307")
        exact = -mpmath.exp(q) * mpmath.e1(q)
        assert abs(value - exact) <= out["quadrature_error"] + out["continuation_error"]


def test_borel_sum_writes_t_exactly(files, capsys):
    # t = -1e-330 lies below the float range: t is written, as the value is,
    # in decimal strings that read back to the t the sum was taken at
    coeffs = files("c.json", {"coeffs": [str(factorial(n - 1)) if n else "0" for n in range(12)]})
    code, out = run(capsys, ["borel-sum", "--theta", str(math.pi), "--t=-1e-330", coeffs])
    assert code == 0
    with mp.workprec(DEFAULT_PREC_BITS):
        t = mpmath.mpf("-1e-330")
        assert t != 0 and mpmath.mpc(out["t"]["re"], out["t"]["im"]) == t
    with mp.workprec(256):
        value = mpmath.mpc(out["value"]["re"], out["value"]["im"])
        exact = -mpmath.exp(-1 / t) * mpmath.e1(-1 / t)
        assert abs(value - exact) <= out["quadrature_error"] + out["continuation_error"]


def test_borel_sum_rational_k(files, capsys):
    # k = 3/2 sums in closed form; the coefficients Gamma(1 + 2n/3) (-4/5)^n,
    # whose order-3/2 Borel transform is 1/(1 + 4 tau/5), as 90-digit decimals
    k, p = 1.5, mpmath.mpf(-1.25)
    with mp.workprec(320):
        coeffs = [mpmath.nstr(mpmath.gamma(1 + mpmath.mpf(2 * n) / 3) / p ** n, 90)
                  for n in range(32)]
    c = files("c.json", {"coeffs": coeffs})
    code, out = run(capsys, ["borel-sum", "--k", "1.5", "--theta", "0.2", "--t", "0.1", c])
    assert code == 0
    with mp.workprec(256):
        value = mpmath.mpc(out["value"]["re"], out["value"]["im"])
        exact = pole_transform_quad([(p, 1)], k, mpmath.mpf("0.1"), 0.2)
        assert abs(value - exact) <= out["quadrature_error"] + out["continuation_error"]
    # a k that is no fraction a/b with b <= 12 is refused before any sum
    assert cli_main(["borel-sum", "--k", "3.14159", "--theta", "0", "--t", "0.1", c]) == 2
    assert "k = 3.14159" in capsys.readouterr().err


def test_borel_sum_outside_the_lobe(files, capsys):
    # one pole at tau = e^(2i), k = 2, theta = pi: t at d = theta - arg t = 0.5
    # sums; at d = 2.6, |k d| = 5.2 lies in the kernel's next lobe, where
    # cos(k d) > 0.05 but the sum is not the integral: a domain error
    coeffs = [{"re": v.real, "im": v.imag}
              for v in (math.gamma(1 + n / 2) * complex(math.cos(2 * n), -math.sin(2 * n))
                        for n in range(40))]
    c = files("c.json", {"coeffs": coeffs})
    for d, expected in ((0.5, 0), (2.6, 3)):
        t = 0.3 * complex(math.cos(math.pi - d), math.sin(math.pi - d))
        argv = ["borel-sum", "--k", "2", "--theta", str(math.pi), f"--t={t.real}{t.imag:+}j", c]
        assert cli_main(argv) == expected
    assert "incompatible" in capsys.readouterr().err


def test_p_k_sum_via_cli(files, capsys):
    ex_terms = [{"exp": [n, 3 * n], "coeff": str(factorial(n))} for n in range(16)]
    f = files("f.json", {"dim": 2, "trunc": 80, "terms": ex_terms})
    p = files("p.json", series_to_json(TS(2, 80, {(1, 1): 1})))
    code, out = run(capsys, ["borel-sum", "--germ", p, "--order", "1,1",
                             "--depth", "12", "--k", "1",
                             "--theta", str(math.pi / 4),
                             "--point", "1/5,1/4", f])
    assert code == 0
    assert out["continuation_error"] < 1e-8


def test_verify_remark79(capsys):
    code, out = run(capsys, ["verify", "remark79", "--trunc", "212"])
    assert code == 0
    assert out["pass"]
    assert abs(out["fits"]["direct"]["s"] - 1.0) <= 0.1
    assert abs(out["fits"]["b0"]["s"] - 0.5) <= 0.1
    assert abs(out["fits"]["binf"]["s"] - 1.0) <= 0.1


def test_verify_ode_euler(capsys):
    code, out = run(capsys, ["verify", "ode-euler"])
    assert code == 0 and out["pass"]
    assert any(abs(d) < 0.05 for d in out["singular_directions"]["directions"])
    assert out["numeric"]["numeric_max_residual"] < 1e-8
    samples = out["numeric"]["details"]["samples"]
    assert samples and all(s["residual"] <= s["bound"] for s in samples)


def test_verify_ode_euler_transforms_once_per_coefficient_set(capsys, monkeypatch):
    # y's coefficients (n - 1)! are the same at the 3 sample points: one Borel
    # series, which the direction report reads too; dy/dx1's, 2 x1 (n + 1)!,
    # differ from point to point: one series each.  4 transforms, not 7
    calls = []
    transform = borel.borel_transform
    monkeypatch.setattr(borel, "borel_transform",
                        lambda *args, **kwargs: calls.append(args[0]) or transform(*args, **kwargs))
    code, out = run(capsys, ["verify", "ode-euler"])
    assert code == 0 and len(calls) == 4
    assert len(set(calls)) == 4
    # the report of a fresh transform of y at the first sample point
    ex = gen_example("ode-euler", 64)
    rep = verify_ode_numeric(ex.f, ex.p, ex.order, math.pi, 3)
    spec = rep.details["expansion"].specialize(rep.details["sample"].points[0])
    report = singular_directions(transform(OneVarSeries(spec), 1), 1)
    assert out["singular_directions"] == json.loads(json.dumps(report.to_json()))


def test_verify_trunc_refusals(capsys):
    # --trunc 0 is not the default, a truncation that cuts the germ (a negative one
    # too) is refused, and so is one that leaves the ODE's germ sums under 8 coefficients
    for argv in (["verify", "pde-quasihom", "--trunc", "0"],
                 ["verify", "ode-euler", "--trunc", "0"],
                 ["verify", "ode-euler", "--trunc", "-3"],
                 ["verify", "ode-euler", "--trunc", "12"]):
        assert cli_main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("germsum: "), argv


def test_verify_pde(capsys):
    code, out = run(capsys, ["verify", "pde-quasihom"])
    assert code == 0 and out["pass"]
    assert out["formal"]["details"]["cofactor_is_x1"]


def test_verify_pde_fails_on_scaled_solution(capsys, monkeypatch):
    # 2f is divisible by the stated right side, but with cofactor 2*x1
    import germsum.harness
    real = germsum.harness.gen_example

    def scaled(name, trunc):
        ex = real(name, trunc)
        return ExampleData(ex.name, ex.f * 2, ex.p, ex.order, ex.notes)

    monkeypatch.setattr(germsum.harness, "gen_example", scaled)
    code, out = run(capsys, ["verify", "pde-quasihom"])
    assert code == 1 and not out["pass"]
    assert out["formal"]["details"]["divisible_by_stated_rhs"]
    assert not out["formal"]["details"]["cofactor_is_x1"]


@pytest.mark.parametrize("name", ["remark79", "ode-euler", "pde-quasihom"])
def test_verify_is_the_harness_report(name, capsys):
    code, out = run(capsys, ["verify", name])
    report = verify_example(name)
    assert out == json.loads(json.dumps(report))
    assert list(report)[-1] == "pass" and code == (0 if report["pass"] else 1)


# every option a subcommand does not read, with the arguments it needs otherwise
COEFFS = {"coeffs": [str(factorial(n)) for n in range(16)]}
UNREAD = [(cmd, opt, args) for cmd, args in (("blowup", ["--xi", "0"]), ("ramify", ["--k", "2"]),
                                             ("directions", []), ("dominant", []))
          for opt in ("--germ", "--order")]
UNREAD += [("borel-sum", opt, ["--theta", "0", "--t", "0.1"]) for opt in ("--germ", "--order")]
UNREAD += [("borel-sum", "--depth", ["--theta", "0", "--t", "0.1"]),
           ("borel-sum", "--t", ["--theta", "0", "--germ", "P", "--order", "1,1", "--depth", "8",
                                 "--point", "0.1,0.1"])]


@pytest.mark.parametrize("cmd,opt,args", UNREAD, ids=[f"{c} {o}" for c, o, _ in UNREAD])
def test_unread_option_refused(cmd, opt, args, files, capsys):
    # nothing is read or computed: a germ file that does not exist is never opened
    p = files("p.json", series_to_json(TS(2, 10, {(1, 1): 1})))
    source = files("c.json", COEFFS) if cmd in ("borel-sum", "directions") else p
    value = {"--germ": "missing.json", "--order": "9,9", "--depth": "8", "--t": "0.1"}[opt]
    args = [p if a == "P" else a for a in args]
    assert cli_main([cmd, source] + args + [opt, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and opt in captured.err


def test_usage_errors(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    p = files("p.json", series_to_json(TS(2, 10, {(1, 1): 1})))
    code = cli_main(["divide", "--germ", p, "--order", "1,1", str(bad)])
    err = capsys.readouterr().err
    assert code == 2 and "bad.json" in err
    code = cli_main(["divide", "--order", "1,1", str(bad)])
    assert code == 2
    code = cli_main(["ramify", "--k", "2", str(tmp_path / "absent.json")])
    assert code == 2 and "absent.json" in capsys.readouterr().err
    # a missing or malformed --order, a complex --rho, a germ sum without --depth
    for argv in (["divide", "--germ", p, p],
                 ["divide", "--germ", p, "--order", "1,x", p],
                 ["divide", "--germ", p, "--order", "1,1:deglex", p],
                 ["divide", "--germ", p, "--order", "0,1", p],
                 ["gevrey", "--germ", p, "--order", "1,1", "--depth", "4", "--rho", "1/2+1j", p],
                 ["borel-sum", p, "--germ", p, "--order", "1,1", "--point", "0.1,0.1",
                  "--theta", "0"]):
        assert cli_main(argv) == 2, argv
        assert capsys.readouterr().out == "", argv
    # a JSON boolean, an object with neither part and one with a string part beside a
    # float part (read as QQi(1/3, 1/10), and 1e300 beside "0" as an exact integer)
    # are no coefficient
    for coeff in (True, False, {}, {"re": True}, {"re": "1/3", "im": 0.1},
                  {"re": 1e300, "im": "0"}):
        g = files("g.json", {"dim": 2, "trunc": 3, "terms": [{"exp": [1, 0], "coeff": "1"},
                                                             {"exp": [0, 1], "coeff": coeff}]})
        assert cli_main(["divide", "--germ", p, "--order", "1,1", g]) == 2, coeff
        err = capsys.readouterr().err
        assert "terms[1]" in err and repr(coeff) in err, coeff
    code = cli_main(["blowup"])  # missing required --xi
    assert code == 2
    assert cli_main(["tmap", "--germ", p, "--order", "1,1", "--depth", "3", p]) == 2
    c = files("c.json", {"coeffs": [str(factorial(n)) for n in range(16)]})
    assert cli_main(["borel-sum", c, "--theta", "3.1", "--t=-0.2",
                     "--method", "pade"]) == 2
    capsys.readouterr()
    # malformed terms: a repeated exponent, an exponent of the wrong length, a negative one
    for name, exps in (("twice.json", [[1, 0], [0, 1], [1, 0]]), ("long.json", [[1, 0, 0]]),
                       ("negative.json", [[1, 0], [-1, 2]])):
        g = files(name, {"dim": 2, "trunc": 3,
                         "terms": [{"exp": e, "coeff": str(i + 1)} for i, e in enumerate(exps)]})
        assert cli_main(["divide", "--germ", p, "--order", "1,1", g]) == 2
        err = capsys.readouterr().err
        assert name in err and f"terms[{len(exps) - 1}]" in err
    # a zero denominator, in a JSON coefficient or in a scalar option, is a usage error
    zero = files("zero.json", {"dim": 2, "trunc": 3, "terms": [{"exp": [1, 0], "coeff": "1/0"}]})
    zc = files("zc.json", {"coeffs": ["1", "1/0"] + [str(factorial(n)) for n in range(2, 16)]})
    for argv in (["divide", "--germ", p, "--order", "1,1", zero],
                 ["borel-sum", zc, "--theta", "0", "--t", "0.1"],
                 ["borel-sum", c, "--theta", "0", "--t", "1/0"],
                 ["blowup", "--xi", "1/0", p],
                 ["borel-sum", c, "--germ", p, "--order", "1,1", "--depth", "8",
                  "--point", "1/0,0.1", "--theta", "0"],
                 ["gevrey", "--germ", p, "--order", "1,1", "--depth", "4", "--rho", "1/0", p]):
        assert cli_main(argv) == 2, argv
        assert "zero denominator" in capsys.readouterr().err, argv
    # the library's argument checks are usage errors, not failed verifications
    f = files("f.json", series_to_json(TS(2, 10, {(2, 2): 1, (1, 0): 1})))
    assert cli_main(["borel-sum", f, "--germ", p, "--order", "1,1", "--depth", "6",
                     "--point", "0.1,0.1", "--theta", "0"]) == 2
    assert "at least 8 Borel coefficients" in capsys.readouterr().err
    short = files("short.json", {"coeffs": [str(factorial(n)) for n in range(10)]})
    assert cli_main(["directions", short]) == 2
    assert "at least 16 Borel coefficients" in capsys.readouterr().err
    assert cli_main(["borel-sum", c, "--k", "-1", "--theta", "3.1", "--t=-0.2"]) == 2
    assert capsys.readouterr().err.startswith("germsum: summability index k")
    # too few norms for a Gevrey fit, as too few coefficients for a sum
    for argv in (["gevrey", "--germ", p, "--order", "1,1", "--depth", "3", f],
                 ["verify", "remark79", "--trunc", "12"]):
        assert cli_main(argv) == 2, argv
        assert "need at least 4 nonzero norms" in capsys.readouterr().err, argv
    # a negative depth is a usage error, not a traceback with the exit code of a failed check
    for argv in (["expand", "--germ", p, "--order", "1,1", "--depth", "-1", f],
                 ["gevrey", "--germ", p, "--order", "1,1", "--depth", "-1", f],
                 ["borel-sum", f, "--germ", p, "--order", "1,1", "--depth", "-1",
                  "--point", "0.1,0.1", "--theta", "0"]):
        assert cli_main(argv) == 2, argv
        assert "depth -1" in capsys.readouterr().err, argv
    # series arithmetic is floored at DEFAULT_PREC_BITS: a lower --prec is refused
    assert cli_main(["--prec", "64", "blowup", "--xi", "0", p]) == 2
    assert f"{DEFAULT_PREC_BITS} bits" in capsys.readouterr().err
    assert cli_main(["--prec", "256", "blowup", "--xi", "0", p]) == 0


def test_order_reaches_the_division(files, capsys, monkeypatch):
    import germsum.cli

    seen = []

    def recording_wdivide(g, germ):
        seen.append(germ.order)
        return wdivide(g, germ)

    monkeypatch.setattr(germsum.cli, "wdivide", recording_wdivide)
    p = TS(2, 12, {(0, 2): 1, (3, 0): -1})
    g = TS(2, 12, {(4, 1): 2, (1, 3): Fraction(1, 3), (2, 0): 1})
    code, out = run(capsys, ["divide", "--germ", files("p.json", series_to_json(p)),
                             "--order", "2,3:revlex", files("g.json", series_to_json(g))])
    order = MonomialOrder((2, 3), "revlex")
    assert code == 0 and seen == [order]
    division = wdivide(g, Germ(p, order))
    assert out == {"q": series_to_json(division.q), "r": series_to_json(division.r)}


def test_prec_reaches_series_arithmetic(files, capsys, monkeypatch):
    import germsum.cli
    from mpmath import mp

    seen = []

    def recording_p_expand(*args):
        seen.append(mp.prec)
        return p_expand(*args)

    monkeypatch.setattr(germsum.cli, "p_expand", recording_p_expand)
    p = files("p.json", series_to_json(TS(2, 10, {(1, 1): 1})))
    f = files("f.json", series_to_json(TS(2, 10, {(2, 2): 1, (1, 0): 1})))
    code, _ = run(capsys, ["--prec", "256", "expand", "--germ", p, "--order", "1,1",
                           "--depth", "3", f])
    assert code == 0 and seen == [256]


def test_env_precision_honored():
    out = subprocess.run(
        [sys.executable, "-c",
         "from germsum.scalars import DEFAULT_PREC_BITS; print(DEFAULT_PREC_BITS)"],
        env=child_env(GERMSUM_PREC_BITS="192"), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "192"


def test_domain_errors(files, capsys):
    # zero germ -> 3
    p0 = files("p0.json", series_to_json(TS.zero(2, 10)))
    f = files("f.json", series_to_json(TS(2, 10, {(1, 0): 1})))
    assert cli_main(["divide", "--germ", p0, "--order", "1,1", f]) == 3
    # singular ray -> 3
    coeffs = files("c.json", {"coeffs": [str(factorial(max(m - 1, 0)) if m else 0)
                                         for m in range(32)]})
    assert cli_main(["borel-sum", "--k", "1", "--theta", "0",
                     "--t", "0.1", coeffs]) == 3
    # a point where the germ vanishes -> 3
    p = files("p.json", series_to_json(TS(2, 10, {(1, 1): 1})))
    assert cli_main(["borel-sum", "--germ", p, "--order", "1,1", "--depth", "10",
                     "--theta", "0", "--point", "0,0", f]) == 3
    assert "vanishes" in capsys.readouterr().err
