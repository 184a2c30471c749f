import math
from fractions import Fraction
from math import factorial

import mpmath
import pytest
from mpmath import mp

from germsum import harness
from germsum.borel import (OneVarSeries, borel_transform, p_k_sum,
                           singular_directions)
from germsum.errors import GermsumError, SingularRayError
from germsum.harness import (gen_example, sample_p_sector, verify_ode_formal,
                             verify_ode_numeric, verify_pde_formal)
from germsum.scalars import QQi
from germsum.series import MonomialOrder, TruncatedSeries, substitute
from germsum.transforms import INFINITY, blowup
from germsum.weierstrass import Germ, p_expand

TS = TruncatedSeries


class TestGenerators:
    def test_remark79_terms(self):
        ex = gen_example("remark79", 20)
        assert ex.f.terms == {(n, 3 * n): factorial(n) for n in range(6)}
        assert ex.p.terms == {(1, 1): 1}

    def test_ode_euler_terms(self):
        ex = gen_example("ode-euler", 12)
        # m ranges over 2(m+1) <= 12, i.e. m <= 5; check two spots
        assert ex.f.coeff((2, 0)) == 1           # P^1
        assert ex.f.coeff((0, 2)) == -1
        p5 = TS(2, 12, {(2, 0): 1, (0, 2): -1}) ** 6
        assert ex.f.coeff((12, 0)) == 120 * p5.coeff((12, 0))

    def test_pde_terms(self):
        ex = gen_example("pde-quasihom", 13)
        assert ex.f.coeff((1, 2)) == 1           # x1 * P
        assert ex.f.coeff((4, 0)) == -1          # x1 * (-x1^3)
        assert ex.notes["depth"] == 4

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            gen_example("nope", 10)

    def test_non_integer_truncation_refused(self):
        # int() made 2.7 a truncation of 2
        for trunc in (2.7, 4.0, "4"):
            with pytest.raises(ValueError, match=f"truncation {trunc!r} is not an integer"):
                gen_example("remark79", trunc)

    @pytest.mark.parametrize("name, trunc", [("ode-euler", -3), ("ode-euler", 1),
                                             ("pde-quasihom", 2), ("remark79", 1)])
    def test_truncation_cutting_the_germ_refused(self, name, trunc):
        with pytest.raises(ValueError, match="cuts the"):
            gen_example(name, trunc)


class TestOdeFormal:
    @pytest.mark.parametrize("n", range(8, 25, 2))
    def test_residual_vanishes(self, n):
        ex = gen_example("ode-euler", n)
        rep = verify_ode_formal(ex.f, ex.p)
        assert rep.exact_to_truncation
        # tail valuation grows linearly with the generation depth
        assert rep.formal_valuation == 2 * ((n // 2 - 1) + 2) + 1

    def test_negative_control(self):
        ex = gen_example("ode-euler", 12)
        bad = ex.f + TS.variable(0, 2, 12)
        rep = verify_ode_formal(bad, ex.p)
        assert not rep.exact_to_truncation
        assert rep.formal_valuation <= 3


class TestPdeFormal:
    def test_divisible_with_cofactor_flag(self):
        ex = gen_example("pde-quasihom", 25)
        rep, h = verify_pde_formal(ex.f, ex.p, 0, 1, 1)
        d = rep.details
        assert d["divisible_by_stated_rhs"]
        assert d["cofactor_leading_term"] == {"exp": [1, 0], "coeff": "1"}
        assert not d["stated_form_matches"]
        assert d["stated_form_discrepancy"]
        assert d["cofactor_is_x1"]

    @pytest.mark.parametrize("trunc", [13, 25, 26, 27, 28, 34])
    def test_cofactor_is_x1_where_certified(self, trunc):
        # the whole-summand representative has cofactor x1*(1 - N!*P^N), whose
        # second part lies at weights the truncation of f does not determine
        ex = gen_example("pde-quasihom", trunc)
        rep, _ = verify_pde_formal(ex.f, ex.p, 0, 1, 1)
        cofactor, n = rep.details["cofactor"], ex.notes["depth"]
        t = cofactor.trunc
        x1 = TS.variable(0, 2, t)
        assert cofactor == x1 - x1 * ex.p.with_trunc(t) ** n * factorial(n)
        assert rep.details["divisible_by_stated_rhs"] and rep.details["cofactor_is_x1"]

    @pytest.mark.parametrize("trunc", [25, 27, 30])
    def test_divisible_where_certified(self, trunc):
        # the summands x1 m! P^(m+1) of lowest degree <= trunc, held to the
        # truncation: h keeps remainder terms only at weights f does not determine
        # (at 27 and 30 the lowest one sits exactly at the first such weight)
        ex = gen_example("pde-quasihom", trunc)
        y = TS(2, trunc, {(1, m + 1): factorial(m) for m in range((trunc - 1) // 2)})
        f = substitute(y, [TS.variable(0, 2, trunc), ex.p], out_trunc=trunc)
        assert len(f.terms) > len(ex.f.terms)
        rep, _ = verify_pde_formal(f, ex.p, 0, 1, 1)
        d = rep.details
        assert d["remainder_terms"] > 0
        assert d["divisible_by_stated_rhs"] and d["cofactor_is_x1"]
        # a remainder at a certified weight still counts
        rep, _ = verify_pde_formal(f + TS(2, trunc, {(2, 0): 1}), ex.p, 0, 1, 1)
        assert not rep.details["divisible_by_stated_rhs"]

    def test_scaled_solution_fails_the_equation(self):
        # 2f is divisible with cofactor 2*x1: it does not satisfy h = x1*x2*P_2*P
        ex = gen_example("pde-quasihom", 25)
        rep, _ = verify_pde_formal(ex.f * 2, ex.p, 0, 1, 1)
        d = rep.details
        assert d["divisible_by_stated_rhs"]
        assert d["cofactor_leading_term"] == {"exp": [1, 0], "coeff": "2"}
        assert d["stated_form_discrepancy"]
        assert not d["cofactor_is_x1"]

    def test_zero_solution(self):
        ex = gen_example("pde-quasihom", 13)
        rep, h = verify_pde_formal(TS.zero(2, 13), ex.p, 0, 1, 1)
        assert h.is_zero

    def test_polynomial_closure(self):
        # convergent polynomial in: polynomial out, no factorial growth
        ex = gen_example("pde-quasihom", 13)
        f = TS(2, 13, {(1, 0): 1, (2, 2): Fraction(1, 3)})
        rep, h = verify_pde_formal(f, ex.p, 0, 1, 1)
        assert h.degree() is not None and h.degree() <= 13 + 10
        assert max(abs(c.numerator / c.denominator) if isinstance(c, Fraction)
                   else abs(c) for c in h.terms.values()) < 100


class TestOdeNumeric:
    EX = gen_example("ode-euler", 64)

    def test_residual_small_on_two_rays(self):
        ex = self.EX
        for theta in (math.pi, math.pi / 2):
            rep = verify_ode_numeric(ex.f, ex.p, ex.order, theta, 2)
            assert rep.numeric_max_residual < 1e-8
            assert all(s["residual"] <= s["bound"] for s in rep.details["samples"])

    def test_singular_direction_errors(self):
        ex = self.EX
        with pytest.raises(SingularRayError):
            verify_ode_numeric(ex.f, ex.p, ex.order, 0.0, 1)

    def test_germ_sum_matches_the_closed_form(self):
        # y = sum m! P^(m+1) sums to -e^(-1/t) E1(-1/t) at t = P(x)
        ex = self.EX
        for theta in (math.pi, math.pi / 2):
            rep = verify_ode_numeric(ex.f, ex.p, ex.order, theta, 3)
            for x in rep.details["sample"].points:
                s = p_k_sum(rep.details["expansion"], x, 1, theta)
                with mp.workprec(2 * s.prec):
                    x1, x2 = (mpmath.mpc(c) for c in x)
                    t = x1 ** 2 - x2 ** 2
                    closed = -mpmath.exp(-1 / t) * mpmath.e1(-1 / t)
                    assert abs(s.value - closed) <= s.total_error, (theta, x)

    def test_quadrature_error_capped(self, monkeypatch):
        ex = self.EX
        monkeypatch.setattr(harness, "ODE_NUMERIC_EPS", 1e-60)
        with pytest.raises(ValueError, match="ODE_NUMERIC_EPS"):
            verify_ode_numeric(ex.f, ex.p, ex.order, math.pi, 1)


class TestPSector:
    def test_sample_and_recheck(self):
        p = TS(2, 8, {(1, 1): 1})
        sample = sample_p_sector(p, -0.5, 0.5, 0.4, 12, seed=3)
        assert len(sample.points) == 12
        assert sample.recheck()

    def test_sector_feeds_p_k_sum(self):
        ex = gen_example("remark79", 60)
        exp = p_expand(ex.f, Germ(ex.p, ex.order), 15)
        sample = sample_p_sector(ex.p, -0.2, 0.2, Fraction(1, 5), 3, seed=9)
        for x0 in sample.points:
            res = p_k_sum(exp, x0, 1, math.pi / 4)
            assert res.total_error < 1e-6

    @pytest.mark.parametrize("a, b, R, count", [
        (-0.5, 0.5, -1, 3), (-0.5, 0.5, 0, 3), (-0.5, 0.5, math.nan, 3),
        (-0.5, 0.5, math.inf, 3), (-0.5, 0.5, 1j, 3), (-0.5, 0.5, 0.4, -1),
        (0.0, 3 * math.pi, 0.4, 3), (0.0, 1.0, 0.4, 2.5)])
    def test_bad_inputs_refused(self, a, b, R, count):
        p = TS(2, 8, {(1, 1): 1})
        with pytest.raises(ValueError):
            sample_p_sector(p, a, b, R, count, seed=1)

    def test_empty_sector_errors(self):
        p = TS(2, 8, {(1, 1): 1})
        with pytest.raises(GermsumError):
            sample_p_sector(p, 0.0, 1e-9, 0.3, 5, seed=1, max_tries=2000)


def _angles_contain(haystack, needle, tol=0.1):
    two_pi = 2 * math.pi
    return any(abs((needle - d + math.pi) % two_pi - math.pi) < tol
               for d in haystack)


class TestSummabilityConsistency:
    """Blow-up never creates a sum along a direction where the direct
    expansion is singular: the direct singular directions (specialized at a
    point) must reappear among the chart pullbacks' reports."""

    @pytest.mark.parametrize("x2", [Fraction(1, 4), QQi(0, Fraction(1, 4)),
                                    QQi(Fraction(1, 5), Fraction(1, 5))])
    def test_directions_survive_blowup(self, x2):
        ex = gen_example("remark79", 260)
        x0 = (Fraction(1, 5), x2)
        direct = p_expand(ex.f, Germ(ex.p, ex.order), 34)
        rep_direct = singular_directions(
            borel_transform(OneVarSeries(direct.specialize(x0)), 1), 1)

        germ0 = Germ(blowup(ex.p, 0), MonomialOrder((1, 1)))
        v_inf = (x0[0] / x2, x2)
        pull_inf = p_expand(blowup(ex.f, INFINITY), germ0, 34)
        rep_inf = singular_directions(
            borel_transform(OneVarSeries(pull_inf.specialize(v_inf)), 1), 1)

        v_zero = (x2 / x0[0], x0[0])
        pull_zero = p_expand(blowup(ex.f, 0), germ0, 67)
        rep_zero = singular_directions(
            borel_transform(OneVarSeries(pull_zero.specialize(v_zero)), 2), 2)

        pulled = list(rep_inf.directions) + list(rep_zero.directions)
        assert rep_direct.directions, "direct report should not be empty"
        for d in rep_direct.directions:
            assert _angles_contain(pulled, d), (d, pulled)
