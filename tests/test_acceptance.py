"""Acceptance criteria, one test per criterion.

Each test prints a `[criterion NN] name: PASS/FAIL` line (run pytest with
-s to see them on success); tolerances and runtime budgets are asserted,
not just reported.
"""
import json
import math
import random
import time
from fractions import Fraction
from math import factorial

import mpmath
from mpmath import mp

from germsum.borel import (OneVarSeries, borel_transform, continue_on_ray,
                           laplace_sum, singular_directions)
from germsum.gevrey import fit_gevrey, norm_sequence
from germsum.harness import (euler_borel_series, gen_example,
                             verify_ode_formal, verify_ode_numeric,
                             verify_pde_formal)
from germsum.series import MonomialOrder, TruncatedSeries, series_to_json, v_ell
from germsum.transforms import (INFINITY, blowup, chart_shift, dominant_data,
                                ramify, rotation_average)
from germsum.weierstrass import Germ, delta_member, p_expand, t_substitute, wdivide

from helpers import expansion_oracle, fixed_germs, random_order, random_series

TS = TruncatedSeries


class _criterion:
    def __init__(self, num, name):
        self.num, self.name = num, name

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    @property
    def elapsed(self):
        return time.monotonic() - self.t0

    def __exit__(self, exc_type, exc, tb):
        status = "FAIL" if exc_type else "PASS"
        print(f"[criterion {self.num:02d}] {self.name}: {status} "
              f"({self.elapsed:.1f}s)")
        return False


def _division_suite(seed=2024, count=1000):
    """The randomized division instances shared by criteria 1 and 3."""
    rng = random.Random(seed)
    suite = []
    for i in range(count):
        dim = 2 if i % 3 else 3
        trunc = rng.randint(6, 12)
        named = fixed_germs(dim, trunc)
        if i % 5 == 4:
            p = random_series(rng, dim, trunc, max_terms=4, nonzero=True,
                              min_degree=1)
            if (0,) * dim in p.terms or p.is_zero:
                p = TS(dim, trunc, {(1,) * dim: 1})
            germ = Germ(p, random_order(rng, dim))
        else:
            _, p, order = named[i % 4]
            germ = Germ(p, order)
        g = random_series(rng, dim, trunc, max_terms=10,
                          complex_coeffs=(i % 7 == 0))
        suite.append((g, germ))
    return suite


def test_criterion_01_division_correctness():
    with _criterion(1, "division correctness on 1000 random instances") as c:
        rng = random.Random(99)
        for g, germ in _division_suite():
            res = wdivide(g, germ)
            # reconstruction mod truncation
            rec = res.q.with_trunc(g.trunc) * germ.p + res.r
            assert rec.agrees_with(g, upto=g.trunc)
            # remainder avoids the cone
            assert all(delta_member(e, germ) for e in res.r.terms)
            # permuted term-processing order is bit-identical
            items = list(g.terms.items())
            rng.shuffle(items)
            res2 = wdivide(TS(g.dim, g.trunc, dict(items)), germ)
            assert json.dumps(series_to_json(res2.q)) == json.dumps(series_to_json(res.q))
            assert json.dumps(series_to_json(res2.r)) == json.dumps(series_to_json(res.r))
        assert c.elapsed < 60.0


def test_criterion_02_expansion_oracle_equivalence():
    with _criterion(2, "expansion matches exhaustive linear-solve oracle"):
        rng = random.Random(7)
        for trunc in (4, 5, 6):
            for _, p, order in fixed_germs(2, trunc):
                germ = Germ(p, order)
                fs = [TS.monomial(e, 1, trunc)
                      for e in _monomials(2, trunc)]
                fs += [random_series(rng, 2, trunc, max_terms=12)
                       for _ in range(3)]
                for depth in (1, 2, 3) if trunc == 6 else (3,):
                    for f in fs:
                        exp = p_expand(f, germ, depth)
                        oracle = expansion_oracle(f, germ, depth)
                        for n in range(depth):
                            assert exp.coeffs[n].terms == oracle[n], (
                                trunc, germ.lead_exp, depth, n)


def _monomials(dim, bound):
    from helpers import monomials_upto
    return monomials_upto(dim, bound)


def test_criterion_03_t_round_trip():
    with _criterion(3, "t-map round trip on the division suite"):
        for g, germ in _division_suite():
            expansion = p_expand(g, germ, g.trunc + 1)
            rec = t_substitute(expansion)
            assert rec.agrees_with(g, upto=g.trunc)


def test_criterion_04_gevrey_triple():
    with _criterion(4, "Gevrey orders (1, 1/2, 1) for the blow-up triple") as c:
        ex = gen_example("remark79", 212)
        germ = Germ(ex.p, ex.order)
        order0 = MonomialOrder((1, 1))
        cases = [
            (ex.f, germ, 41, 1.0),
            (blowup(ex.f, 0), Germ(blowup(ex.p, 0), order0), 61, 0.5),
            (blowup(ex.f, INFINITY), Germ(blowup(ex.p, INFINITY), order0), 41, 1.0),
        ]
        for f, g, depth, expected in cases:
            est = fit_gevrey(norm_sequence(p_expand(f, g, depth),
                                           Fraction(1, 2)), 5)
            assert abs(est.s - expected) <= 0.1, (expected, est.s)
        assert c.elapsed < 10.0


def test_criterion_05_dominant_data():
    with _criterion(5, "dominant-term data and root sets"):
        dd = dominant_data(TS(2, 10, {(1, 1): 1}), None)
        assert {(str(v) if v is INFINITY else v, m) for v, m in dd.roots} == {
            (Fraction(0), 1), ("inf", 1)}
        dd = dominant_data(TS(2, 10, {(0, 2): 1, (3, 0): -1}), None)
        assert dd.roots == ((Fraction(0), 2),)
        # numerical multiplicity clustering on a shifted double root
        dd = dominant_data(TS(2, 10, {(2, 0): 1, (1, 1): -2, (0, 2): 1}), None)
        assert len(dd.roots) == 1 and dd.roots[0][1] == 2

        rng = random.Random(11)
        checked = 0
        while checked < 20:
            p = random_series(rng, 2, 9, nonzero=True, min_degree=1,
                              max_terms=6)
            if p.is_zero or (0, 0) in p.terms:
                continue
            dd = dominant_data(p, None)
            xi = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            if dd.H.eval_at((Fraction(1), xi)) == 0:
                continue
            assert v_ell(blowup(p, xi), dd.completed_order) == (0, dd.h)
            checked += 1


def test_criterion_06_chart_coherence():
    with _criterion(6, "chart-shift coherence and ramification descent"):
        rng = random.Random(31)
        for _ in range(100):
            deg = rng.randint(0, 5)
            f = random_series(rng, 2, deg, max_terms=8).with_trunc(2 * deg + 2)
            xi = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            zeta = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            assert blowup(f, zeta) == chart_shift(blowup(f, xi), xi, zeta)
        for k in (2, 3, 5):
            for _ in range(25):
                f = random_series(rng, 2, 8, complex_coeffs=True)
                assert rotation_average(ramify(f, k), k, descend=True) == f


def test_criterion_07_euler_benchmark():
    with _criterion(7, "Euler series sum vs quadrature oracle + direction"):
        a = OneVarSeries([(-1) ** n * factorial(n) for n in range(40)])
        b = borel_transform(a, 1)
        rc = continue_on_ray(b, 0.0, [1.0, 2.0])
        res = laplace_sum(rc, 1, mpmath.mpf("0.1"))
        with mp.workprec(250):
            oracle = mpmath.quad(
                lambda u: mpmath.exp(-u) / (1 + mpmath.mpf("0.1") * u),
                [0, mpmath.inf])
        assert abs(res.value - oracle) < 1e-9
        report = singular_directions(borel_transform(
            OneVarSeries(a.coeffs[:32]), 1), 1)
        near_pi = [d for d in report.directions if abs(d - math.pi) < 0.05]
        assert len(near_pi) == 1


def test_criterion_08_ode_verification():
    with _criterion(8, "ODE example: formal + numeric + directions") as c:
        for n in range(8, 25, 4):
            ex = gen_example("ode-euler", n)
            assert verify_ode_formal(ex.f, ex.p).exact_to_truncation
        for theta in (math.pi / 2, math.pi):
            rep = verify_ode_numeric(1, theta, [0.02, 0.05, 0.1, 0.2, 0.3])
            assert rep.numeric_max_residual < 1e-8, theta
            for s in rep.details["samples"]:
                assert s["residual"] <= s["bound"], (theta, s)
        report = singular_directions(borel_transform(euler_borel_series(40), 1), 1)
        assert any(abs(d) < 0.05 for d in report.directions)
        assert c.elapsed < 30.0


def test_criterion_09_exponential_smallness():
    with _criterion(9, "exponentially small direction jump, scaled"):
        a = OneVarSeries([(-1) ** n * factorial(n) for n in range(40)])
        b = borel_transform(a, 1)
        rc_up = continue_on_ray(b, math.pi - 0.4, [0.5, 1.0])
        rc_dn = continue_on_ray(b, math.pi + 0.4, [0.5, 1.0])
        scaled = []
        for r in (0.3, 0.2, 0.12, 0.08, 0.05, 0.03):
            with mp.workprec(160):
                t = mpmath.mpf(str(r)) * mpmath.expjpi(1)
                up = laplace_sum(rc_up, 1, t)
                dn = laplace_sum(rc_dn, 1, t)
                scaled.append(float(abs(up.value - dn.value)
                                    * mpmath.exp(mpmath.mpf("0.5") / abs(t))))
                # exact Stokes jump: the transform 1/(1 + tau) has residue 1
                # at tau = -1, between the two rays
                jump = 2j * mpmath.pi * mpmath.exp(1 / t) / t
                assert abs(up.value - dn.value - jump) <= up.total_error + dn.total_error
        # bounded, no growth trend as |t| decreases over the decade
        assert max(scaled) <= scaled[0] * 1.5
        assert scaled[-1] <= scaled[0]


def test_criterion_10_pde_verification():
    with _criterion(10, "PDE example: divisibility, cofactor, discrepancy"):
        ex = gen_example("pde-quasihom", 25)
        report, h = verify_pde_formal(ex.f, ex.p, ex.notes["alpha"],
                                      ex.notes["beta"], ex.notes["k"])
        d = report.details
        assert d["divisible_by_stated_rhs"]
        assert d["cofactor_leading_term"] == {"exp": [1, 0], "coeff": "1"}
        assert d["stated_form_discrepancy"]
        assert not h.is_zero
