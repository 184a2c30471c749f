import math
import random
import time
from fractions import Fraction
from math import factorial

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

import germsum.borel as borel
from germsum.borel import (FROISSART_REL, BorelSeries, OneVarSeries,
                           RationalApproximant, borel_transform, build_approximant,
                           continue_on_ray, laplace_sum, p_k_sum, singular_directions)
from germsum.errors import ContinuationError, SectorError, SingularRayError
from germsum.harness import gen_example
from germsum.scalars import QQi, gi_from_mpc, gi_to_mpc, to_mpc
from germsum.series import MonomialOrder, TruncatedSeries
from germsum.weierstrass import Germ, PExpansion, p_expand
from helpers import euler_borel_series, pole_transform_coeffs, pole_transform_quad

TS = TruncatedSeries


def euler_series(n=40):
    return OneVarSeries([(-1) ** m * factorial(m) for m in range(n)])


def euler_oracle(t, prec=250):
    """Independent high-precision quadrature of the Borel integral."""
    with mp.workprec(prec):
        tt = mpmath.mpf(t)
        return mpmath.quad(lambda u: mpmath.exp(-u) / (1 + tt * u),
                           [0, mpmath.inf])


class TestBorelTransform:
    def test_alternating_factorials(self):
        b = borel_transform(euler_series(12), 1)
        for n, c in enumerate(b.coeffs):
            assert c == (-1) ** n

    def test_log_series(self):
        b = borel_transform(euler_borel_series(12), 1)
        assert b.coeffs[0] == 0
        with mp.workprec(128):
            for m in range(1, 12):
                assert abs(b.coeffs[m] - mpmath.mpf(1) / m) < 1e-30

    def test_exponential(self):
        b = borel_transform(OneVarSeries([1] * 10), 1)
        with mp.workprec(128):
            for n, c in enumerate(b.coeffs):
                assert abs(c - 1 / mpmath.gamma(n + 1)) < 1e-30

    def test_k_validation(self):
        with pytest.raises(ValueError):
            borel_transform(OneVarSeries([1]), 0)


class TestContinuation:
    def test_euler_geometric_exact(self):
        b = borel_transform(euler_series(), 1)
        rc = continue_on_ray(b, 0.0, [1.0, 3.0])
        assert abs(rc.values[1] - mpmath.mpf(1) / 4) < 1e-8
        assert rc.errors[1] < 1e-8

    def test_log_on_opposite_ray(self):
        b = borel_transform(euler_borel_series(48), 1)
        rc = continue_on_ray(b, math.pi, [1.0, 2.0])
        # the direction is the double-precision pi, which off-sets the ray
        # from the real axis by ~1e-16; tolerance reflects that
        with mp.workprec(128):
            assert abs(rc.values[1] - (-mpmath.log(3))) < 1e-15

    def test_singular_ray(self):
        b = borel_transform(euler_borel_series(48), 1)
        with pytest.raises(SingularRayError) as err:
            continue_on_ray(b, 0.0, [0.5, 2.0])
        assert abs(err.value.pole - 1) < 0.05

    def test_radii_validation(self):
        b = borel_transform(euler_series(), 1)
        with pytest.raises(ValueError):
            continue_on_ray(b, 0.0, [2.0, 1.0])
        # a nan radius sampled a nan value and a nan error, an inf one a nan value
        for radii in ([1.0, math.nan], [math.inf], [0.0, 1.0]):
            with pytest.raises(ValueError, match="radii"):
                continue_on_ray(b, 0.0, radii)
        for theta in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="direction"):
                continue_on_ray(b, theta)
        with pytest.raises(ValueError):
            continue_on_ray(BorelSeries(1.0, (mpmath.mpc(1),) * 4), 0.0, [1.0])
        with pytest.raises(ValueError):
            continue_on_ray(b, 0.0, [1.0, 2.0], method="taylor")

    def test_no_samples_by_default(self):
        rc = continue_on_ray(borel_transform(euler_series(), 1), 0.0)
        assert rc.radii == rc.values == rc.errors == ()
        t = mpmath.mpf("0.1")
        res = laplace_sum(rc, 1, t)
        assert abs(res.value - euler_oracle(t)) <= res.total_error

    def test_degenerate_pade_reduces(self):
        # exactly geometric coefficients make the full Toeplitz system
        # singular; the builder must fall back to a lower degree
        appr = build_approximant([mpmath.mpc((-1) ** n) for n in range(20)])
        assert appr.order[1] < 9
        assert abs(appr(mpmath.mpc(2)) - Fraction(1, 3)) < 1e-30

    def test_constant_fallback_keeps_twice_the_precision(self):
        # no degree >= 1 solves, so the approximant is the constant term,
        # rounded to 2 prec bits like every coefficient
        appr = build_approximant([Fraction(1, 3)] + [0] * 9, prec=256)
        assert appr.order == (0, 0)
        with mp.workprec(1024):
            assert abs(appr.num[0] - mpmath.mpf(1) / 3) <= mpmath.ldexp(1, -512)

    def test_build_refuses_non_finite_coefficient(self):
        # an inf or nan has no integer mantissa: refused before any solve
        for bad in (mpmath.inf, mpmath.nan):
            with pytest.raises(ValueError):
                build_approximant([mpmath.mpc(1)] * 5 + [mpmath.mpc(bad)] + [mpmath.mpc(1)] * 4)


class TestFroissartFilter:
    # g(tau) = sum r p / (p - tau): a [1/2] rational Borel transform.  From
    # coefficients rounded to 128 bits the fit stops at the two true poles;
    # the same coefficients moved by about 2^-100, a noise above the cut of
    # 128-bit data, give a fit that follows the noise with pole-zero doublets
    POLES = ((mpmath.mpc(1.5, 1.0), 2), (mpmath.mpc(-2, 0.5), -1))

    @classmethod
    def coeffs(cls):
        with mp.workprec(128):
            return [sum(r * p ** (-n) for p, r in cls.POLES) for n in range(32)]

    @classmethod
    def noisy_coeffs(cls):
        rng = random.Random(1)
        with mp.workprec(128):
            noise = mpmath.ldexp(1, -100)
            return [c * (1 + noise * mpmath.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)))
                    for c in cls.coeffs()]

    def top_approximant(self):
        return build_approximant(self.coeffs())

    def test_keeps_exactly_the_true_poles(self):
        appr = self.top_approximant()
        assert appr.order == (2, 2)
        kept = [p for p, _ in appr.filtered_poles()]
        assert kept == [p for p, _ in appr.raw_poles()]
        with mp.workprec(128):
            for p, _ in self.POLES:
                assert min(abs(q - p) for q in kept) < 1e-20

    def test_decisions_match_numerator_roots(self):
        # the oracle roots the numerator and drops a pole with a zero
        # within FROISSART_REL of it
        appr = build_approximant(self.noisy_coeffs())
        kept = [p for p, _ in appr.filtered_poles()]
        raw = [p for p, _ in appr.raw_poles()]
        assert len(raw) == appr.order[1] >= 8
        assert len(kept) == 2
        with mp.workprec(appr.prec):
            for p, _ in self.POLES:
                assert min(abs(q - p) for q in kept) < 1e-20
            zeros = mpmath.polyroots(appr.num[::-1], maxsteps=200, extraprec=appr.prec)
            for p in raw:
                near = min(abs(p - z) for z in zeros) < FROISSART_REL * max(1, abs(p))
                assert near == (p not in kept)

    def test_roots_only_denominators(self, monkeypatch):
        import germsum.borel

        calls = []
        real = germsum.borel._poly_roots

        def counting(*args):
            calls.append(len(args[0]))
            return real(*args)

        monkeypatch.setattr(germsum.borel, "_poly_roots", counting)
        # b_n = (-1)^n: the ray's pair is [1/1] and [2/1], one root each
        b = borel_transform(euler_series(32), 1)
        continue_on_ray(b, 0.0, [1.0, 2.0])
        assert len(calls) == 2
        calls.clear()
        # every order singular_directions asks for resolves to the rank 1 the
        # series keeps: nothing is rooted again
        singular_directions(b, 1)
        assert len(calls) == 0


def three_pole_coeffs(n):
    """Taylor coefficients of sum r p / (p - tau) for three off-axis poles."""
    poles = ((mpmath.mpc(1.5, 1.0), 2), (mpmath.mpc(-2, 0.5), -1),
             (mpmath.mpc(0.3, -0.9), 0.5))
    with mp.workprec(128):
        return [sum(r * p ** (-j) for p, r in poles) for j in range(n)]


def rational_pole_coeffs(poles, n):
    """Exact a_0..a_{n-1}, a_m = m! sum r p^-m, of the 1-sum with Borel
    transform sum r p / (p - tau) over the (p, r) pairs (QQi p, rational r)."""
    coeffs = []
    powers = [QQi(1)] * len(poles)
    for m in range(n):
        coeffs.append(sum((QQi(r) * w for (_, r), w in zip(poles, powers)), QQi(0))
                      * factorial(m))
        powers = [w / p for (p, _), w in zip(poles, powers)]
    return coeffs


def rational_pole_sum(poles, t, theta, derivative=False, prec=512):
    """Closed-form 1-sum (or its t-derivative) of sum r p / (p - tau) along theta.

    Each pole adds -r p J(q)/t, q = p/t, J(q) = e^-q E1(-q) from the ray
    arg t: plus -+2 pi i e^-q for a pole strictly between arg t and theta.
    A pole on arg t (q > 0 exactly) takes E1 from the side of the ray:
    E1(-q +- i0) = -Ei(q) -+ i pi, the upper sign for a ray above arg t.
    The derivative is -r p ((q - 1) J(q) + 1)/t^2.
    """
    with mp.workprec(prec):
        t = mpmath.mpc(t)
        phi = float(math.remainder(theta - float(mpmath.arg(t)), 2 * math.pi))
        total = mpmath.mpc(0)
        for p, r in poles:
            p = to_mpc(p)
            q = p / t
            if q.imag == 0 and q.real > 0:
                jq = mpmath.exp(-q) * (-mpmath.ei(q.real) - math.copysign(1, phi) * mpmath.pi * 1j)
            else:
                jq = mpmath.exp(-q) * mpmath.e1(-q)
                a = float(mpmath.arg(q))
                if min(0, phi) < a < max(0, phi):
                    jq -= math.copysign(2, phi) * mpmath.pi * 1j * mpmath.exp(-q)
            if derivative:
                total += -r * p * ((q - 1) * jq + 1) / (t * t)
            else:
                total += -r * p * jq / t
        return total


class TestLaplace:
    def test_unresolvable_eps_refused(self):
        # 64 bits cannot resolve eps = 1e-25: refused before integrating
        # (it used to split every panel to the depth cap for minutes)
        rc = continue_on_ray(borel_transform(euler_series(), 1), 0.0, [1.0, 2.0])
        start = time.perf_counter()
        with pytest.raises(ValueError):
            laplace_sum(rc, 1, 0.1, prec=64, eps=1e-25)
        assert time.perf_counter() - start < 1
        res = laplace_sum(rc, 1, 0.1, prec=128, eps=1e-25)
        assert abs(res.value - euler_oracle("0.1")) < 1e-9

    def test_k_other_than_the_transforms_refused(self):
        # summed at k = 2, the k = 1 transform of the Euler series gave 0.09412 (the
        # sum is 0.11315) with a total_error of 5.5e-35
        rc = continue_on_ray(borel_transform(euler_series(), 1), 0.5, [1.0, 2.0])
        assert rc.k == 1
        with pytest.raises(ValueError, match="k = 2 is not the k = 1.0"):
            laplace_sum(rc, 2, 0.1)
        assert abs(laplace_sum(rc, 1, 0.1).value - euler_oracle("0.1")) < 1e-9

    def test_constant_is_one(self):
        rc = continue_on_ray(borel_transform(OneVarSeries([1] + [0] * 9), 1),
                             0.3, [1.0, 2.0])
        for t in (0.2, mpmath.mpc(0.1, 0.02)):
            res = laplace_sum(rc, 1, t)
            assert abs(res.value - 1) < 1e-15

    def test_linear_is_t(self):
        rc = continue_on_ray(borel_transform(OneVarSeries([0, 1] + [0] * 8), 1),
                             0.0, [1.0, 2.0])
        res = laplace_sum(rc, 1, 0.25)
        assert abs(res.value - mpmath.mpf("0.25")) < 1e-15

    def test_euler_against_oracle(self):
        b = borel_transform(euler_series(), 1)
        rc = continue_on_ray(b, 0.0, [1.0, 2.0])
        res = laplace_sum(rc, 1, mpmath.mpf("0.1"))
        assert abs(res.value - euler_oracle("0.1")) < 1e-9
        assert res.quadrature_error < 1e-12
        assert res.continuation_error < 1e-12

    def test_continuation_tolerance_gate(self):
        # few coefficients of a branchy transform + a far evaluation point:
        # the two approximant orders disagree and the gate refuses the value
        rc = continue_on_ray(borel_transform(euler_borel_series(10), 1),
                             math.pi / 2, [1.0, 2.0])
        big_t = mpmath.mpc(0, 4)
        res = laplace_sum(rc, 1, big_t)
        assert res.continuation_error > 1e-3
        with pytest.raises(ContinuationError):
            laplace_sum(rc, 1, big_t, max_continuation_error=1e-6)

    def test_ray_straddling_pi_against_closed_form(self):
        # a_n = n!/p^n has Borel transform p/(p - tau) and 1-sum
        # -(p/t) e^(-p/t) E1(-p/t); with arg t = -3.10 and the ray at 3.10
        # the kernel phase is wrapped across +-pi
        p = QQi(0, Fraction(3, 2))
        coeffs, power = [], QQi(1)
        for n in range(32):
            coeffs.append(power * factorial(n))
            power = power / p
        theta = 3.10
        rc = continue_on_ray(borel_transform(OneVarSeries(coeffs), 1), theta,
                             [0.5, 1.0, 2.0])
        with mp.workprec(128):
            t = mpmath.mpf("0.2") * mpmath.expj(-mpmath.mpf(theta))
        res = laplace_sum(rc, 1, t)
        with mp.workprec(256):
            z = mpmath.mpc(0, 1.5) / t
            exact = -z * mpmath.exp(-z) * mpmath.e1(-z)
            assert abs(res.value - exact) < 1e-18

    @pytest.mark.parametrize("theta, arg_t", [(0.3, 0.3), (3.0, -3.0)])
    def test_k3_2_against_quadrature(self, theta, arg_t):
        # k = 3/2 sums in closed form (tau = s^2, then order 3 in s): a pole
        # 0.35 rad off the ray, and a ray at 3.0 with arg t = -3.0, which is
        # 0.283 rad from it across the cut at +-pi (refused when the decay
        # test lifted arg t by k (theta - arg t) and not by theta - arg t)
        k = 1.5
        with mp.workprec(512):
            p = mpmath.mpf("0.8") * mpmath.expj(mpmath.mpf(theta) + mpmath.mpf("0.35"))
        coeffs = pole_transform_coeffs([(p, 1)], k, 32, 512)
        rc = continue_on_ray(borel_transform(OneVarSeries(coeffs), k), theta,
                             [0.5, 1.0, 2.0])
        with mp.workprec(128):
            t = mpmath.mpf("0.3") * mpmath.expj(mpmath.mpf(arg_t))
        for derivative in (False, True):
            res = laplace_sum(rc, k, t, derivative=derivative)
            exact = pole_transform_quad([(p, 1)], k, t, theta, derivative)
            with mp.workprec(256):
                assert abs(res.value - exact) <= res.total_error

    def test_runs_at_working_precision(self):
        # laplace_sum takes working_prec(prec) like every other entry point:
        # the ambient precision, or an explicit prec, not the continuation's.
        # At k = 3/2, 32 more bits make the bound 2^32 smaller, and the value
        # stays within it; the input is built at 512 bits
        poles = ((mpmath.mpc(1.5, 1), 2), (mpmath.mpc(-2, 0.5), -1))
        k, theta = 1.5, 0.2
        coeffs = pole_transform_coeffs(poles, k, 32, 512)
        with mp.workprec(512):
            t = mpmath.mpf("0.25") * mpmath.expj(mpmath.mpf("0.1"))
        exact = pole_transform_quad(poles, k, t, theta)
        res = {}
        for prec in (None, 160):
            rc = continue_on_ray(borel_transform(OneVarSeries(coeffs), k, prec=prec),
                                 theta, [1.0], prec=prec)
            res[prec] = laplace_sum(rc, k, t, prec=prec)
            with mp.workprec(256):
                assert abs(res[prec].value - exact) <= res[prec].total_error
        assert res[None].prec == 128 and res[160].prec == 160
        ratio = res[160].quadrature_error / res[None].quadrature_error
        assert 2.0 ** -33 <= ratio <= 2.0 ** -31
        with mp.workprec(256):
            ambient = laplace_sum(rc, k, t)
            explicit = laplace_sum(rc, k, t, prec=192)
        assert ambient.prec == 256 and explicit.prec == 192
        ratio = ambient.quadrature_error / explicit.quadrature_error
        assert 2.0 ** -65 <= ratio <= 2.0 ** -63

    def test_closed_form_runs_at_working_precision(self):
        # k = 1 sums in closed form at working_prec(prec): 32 more bits make
        # the bound 2^32 smaller, and the value stays within it.  The input
        # is exact: a_n = n! sum r p^-n with rational r and p
        poles = ((QQi(Fraction(3, 2), 1), 2), (QQi(-2, Fraction(1, 2)), -1))
        coeffs = rational_pole_coeffs(poles, 32)
        theta = 0.2
        with mp.workprec(512):
            t = mpmath.mpf("0.25") * mpmath.expj(mpmath.mpf("0.1"))
            exact = rational_pole_sum(poles, t, theta)
        res = {}
        for prec in (None, 160):
            rc = continue_on_ray(borel_transform(OneVarSeries(coeffs), 1, prec=prec),
                                 theta, [1.0], prec=prec)
            res[prec] = laplace_sum(rc, 1, t, prec=prec)
            with mp.workprec(512):
                assert abs(res[prec].value - exact) <= res[prec].total_error
        assert res[None].quadrature_error < 1e-36
        ratio = res[160].quadrature_error / res[None].quadrature_error
        assert 2.0 ** -33 <= ratio <= 2.0 ** -31
        with mp.workprec(512):
            assert abs(res[160].value - exact) <= 2.0 ** -30 * res[None].quadrature_error

    def test_scaled_euler_refuses_unreachable_eps(self):
        # the Euler series times 1e30 sums to about 1e30: at 128 bits its
        # evaluation bound is near 1e-8, so the default eps = 1e-16 is
        # refused (the quadrature split every panel to depth 24 for 40 s
        # and reported 1.8e9), and an eps above the bound is honoured
        a = OneVarSeries([10 ** 30 * (-1) ** n * factorial(n) for n in range(40)])
        rc = continue_on_ray(borel_transform(a, 1), 0.0, [1.0, 2.0])
        t = mpmath.mpf("0.1")
        start = time.perf_counter()
        with pytest.raises(ValueError):
            laplace_sum(rc, 1, t)
        res = laplace_sum(rc, 1, t, eps=1e-6)
        assert time.perf_counter() - start < 5
        assert 1e-12 < res.quadrature_error <= 1e-6
        with mp.workprec(256):
            exact = 10 ** 30 * rational_pole_sum(((QQi(-1), 1),), t, 0.0, prec=256)
            assert abs(res.value - exact) <= res.total_error

    @pytest.mark.parametrize("theta", [0.0, 2.0])
    def test_euler_bound_at_64_bits(self, theta):
        # at 64 bits the reported error covers the rounding of the sum (on
        # the ray 0 the quadrature was off by 3.95e-18 and reported 2.86e-21)
        rc = continue_on_ray(borel_transform(euler_series(), 1, prec=64), theta, [1.0],
                             prec=64)
        with mp.workprec(64):
            t = mpmath.mpf("0.1") * mpmath.expj(theta)
        res = laplace_sum(rc, 1, t, prec=64)
        with mp.workprec(256):
            exact = rational_pole_sum(((QQi(-1), 1),), t, theta, prec=256)
            assert abs(res.value - exact) <= res.total_error
        assert res.total_error < 1e-17

    def test_multiple_root_sums_in_closed_form(self):
        # (n + 1)! (-1)^n has the Borel transform 1/(1 + tau)^2: the double
        # pole splits into confluent fractions 0/(tau + 1) + 1/(tau + 1)^2
        a = OneVarSeries([(-1) ** n * (n + 1) * factorial(n) for n in range(32)])
        rc = continue_on_ray(borel_transform(a, 1), 0.0, [1.0, 2.0])
        # (the terms past r2 expand the two roots of the fit about their
        # center, which coincide to the fit's noise)
        assert [mult for _, mult in rc._hi.raw_poles()] == [2]
        # partial fractions are kernel numbers
        (p, rs), = rc._hi.partial_fractions()[1]
        p, (r1, r2, *rest) = gi_to_mpc(p), map(gi_to_mpc, rs)
        with mp.workprec(128):
            assert abs(p + 1) < 1e-30 and abs(r1) < 1e-30 and abs(r2 - 1) < 1e-30
            assert all(abs(r) < 1e-60 for r in rest)
            t = mpmath.mpf("0.1")
        for derivative in (False, True):
            res = laplace_sum(rc, 1, t, derivative=derivative)
            exact = pole_transform_quad([], 1, t, 0.0, derivative, double=[(-1, 1)])
            with mp.workprec(256):
                assert abs(res.value - exact) <= res.total_error

    def test_fourfold_pole_holds_its_bound(self):
        # (-1)^n C(n + 3, 3) n! has the Borel transform 1/(1 + tau)^4.  Split
        # into four simple poles 3e-10 apart, the fourfold pole summed to a
        # value off by 47 against 4e-10 reported (refused at the default eps)
        a = OneVarSeries([(-1) ** n * math.comb(n + 3, 3) * factorial(n) for n in range(40)])
        rc = continue_on_ray(borel_transform(a, 1), 0.0, [1.0])
        assert [mult for _, mult in rc._hi.raw_poles()] == [4]
        with mp.workprec(128):
            t = mpmath.mpf(1) / 5
        res = laplace_sum(rc, 1, t)
        with mp.workprec(256):
            exact = mpmath.quad(lambda s: mpmath.exp(-s / t) / (1 + s) ** 4, [0, mpmath.inf]) / t
            assert abs(res.value - exact) <= res.total_error

    @pytest.mark.parametrize("k", [1, 1.5])
    def test_close_poles_sum_as_a_cluster(self, k):
        # 1/(1 + tau) + 1/(1 + 1e-10 + tau): the fit resolves both poles,
        # and the root finder merges them (within 2^-32) into one of
        # multiplicity 2.  Summed as an exact double pole, the dropped
        # separation erred by 1e-19 against 4e-20 reported
        with mp.workprec(512):
            p2 = -1 - mpmath.mpf("1e-10")
            poles = [(-1, 1), (p2, -1 / p2)]
        coeffs = pole_transform_coeffs(poles, k, 32, 512)
        rc = continue_on_ray(borel_transform(OneVarSeries(coeffs), k), 0.0, [1.0])
        assert sorted(mult for _, mult in rc._hi.raw_poles())[-1] == 2
        with mp.workprec(128):
            t = mpmath.mpf("0.1")
        for derivative in (False, True):
            res = laplace_sum(rc, k, t, derivative=derivative)
            exact = pole_transform_quad(poles, k, t, 0.0, derivative)
            with mp.workprec(256):
                assert abs(res.value - exact) <= res.total_error

    @pytest.mark.parametrize("residue", [1, 0.3 - 0.7j])
    def test_close_simple_poles_hold_their_bound(self, residue):
        # poles -1, -(1 + d), -(1 - i d) (d = 1e-9, too far apart to merge) and
        # 0.5 + 1.5i: the cluster's residues, of order 1/d, multiply any error of
        # its roots.  With the root finder's stop and axis snap at 2^(1 - prec),
        # the snap moved two roots by their imaginary parts of 5e-46, and the
        # value erred by 1.3e-35 against 5.6e-36 reported (2.5e-36 against
        # 2.0e-37 with the second residue).  The oracle is the closed form on
        # the exact poles: with q = p/t, J = e^-q E1(-q), the sum is
        # sum -r q J and its t-derivative sum -r (q/t) ((q - 1) J + 1)
        with mp.workprec(512):
            d = mpmath.mpf("1e-9")
            poles = [(-1, 1), (-(1 + d), 2), (-(1 - 1j * d), -1),
                     (mpmath.mpc(0.5, 1.5), to_mpc(residue))]
        coeffs = pole_transform_coeffs(poles, 1, 40, 512)
        rc = continue_on_ray(borel_transform(OneVarSeries(coeffs), 1), 0.0, [1.0])
        with mp.workprec(128):
            t = mpmath.mpf("0.2")
        for derivative in (False, True):
            res = laplace_sum(rc, 1, t, derivative=derivative, eps=1)
            with mp.workprec(320):
                exact = 0
                for p, r in poles:
                    q = to_mpc(p) / t
                    j = mpmath.exp(-q) * mpmath.e1(-q)
                    exact -= to_mpc(r) * (q / t * ((q - 1) * j + 1) if derivative else q * j)
                assert abs(res.value - exact) <= res.total_error

    def test_crowded_cluster_refused(self):
        # roots 2e-10 apart, merged (within 2^-32 of each other), and a third
        # 3e-10 from the nearer of them, not merged: the pair does not stand
        # apart from it, and the split refuses to expand it
        with mp.workprec(512):
            den = [mpmath.mpc(1)]
            for z in (-1, -1 - mpmath.mpf("2e-10"), -1 - mpmath.mpf("5e-10")):
                # times (tau - z) / (-z)
                den = [(y - z * x) / -z for x, y in zip(den + [0], [0] + den)]
        appr = RationalApproximant([mpmath.mpc(1)], den, 128)
        assert sorted(mult for _, mult in appr.raw_poles()) == [1, 2]
        with pytest.raises(ValueError):
            appr.partial_fractions()

    def test_chained_triple_sums_as_a_cluster(self):
        # poles -1, -1 - 2e-10 and -1 - 3.5e-10 link in a chain (each within
        # 2^-32 of the next, the ends not) and sum as one cluster of three,
        # beside 0.5 + 1.5i.  Merged about a running mean, the third root
        # stayed apart and the split refused the pair; the oracle is the
        # closed form on the exact poles, as in the test above.  The input is
        # exact, so the fit resolves all four poles (from mpc data, taken as
        # accurate to 128 bits, it models the triple by fewer)
        poles = [(QQi(-1), 1), (QQi(-1 - Fraction(2, 10 ** 10)), 2),
                 (QQi(-1 - Fraction(35, 10 ** 11)), -1), (QQi(Fraction(1, 2), Fraction(3, 2)), 1)]
        coeffs = rational_pole_coeffs(poles, 40)
        rc = continue_on_ray(borel_transform(OneVarSeries(coeffs), 1), 0.0)
        assert sorted(mult for _, mult in rc._hi.raw_poles())[-2:] == [1, 3]
        with mp.workprec(128):
            t = mpmath.mpf("0.2")
        for derivative in (False, True):
            res = laplace_sum(rc, 1, t, derivative=derivative, eps=1)
            with mp.workprec(320):
                exact = 0
                for p, r in poles:
                    q = to_mpc(p) / t
                    j = mpmath.exp(-q) * mpmath.e1(-q)
                    exact -= to_mpc(r) * (q / t * ((q - 1) * j + 1) if derivative else q * j)
                assert abs(res.value - exact) <= res.total_error

    @pytest.mark.parametrize("prec", [64, 128])
    def test_jet_bound_tracks_its_error(self, prec):
        # k = 3, the order-3 Borel transform 1/(1 + tau)^2, t = 0.1: the
        # derivative takes three Taylor coefficients of the pole's sum, whose
        # recurrence cancels pieces near |x|^3 = 1000.  The bound stays within
        # 2^10 ulps of the value (it was 2^29 ulps: refused at the default eps
        # at 64 bits), and covers the error against the oracle
        coeffs = pole_transform_coeffs([], 3, 32, 4 * prec, double=[(-1, 1)])
        rc = continue_on_ray(borel_transform(OneVarSeries(coeffs), 3, prec=prec), 0.0,
                             [1.0], prec=prec)
        with mp.workprec(prec):
            t = mpmath.mpf("0.1")
        for derivative in (False, True):
            res = laplace_sum(rc, 3, t, derivative=derivative, prec=prec)
            exact = pole_transform_quad([], 3, t, 0.0, derivative, double=[(-1, 1)])
            with mp.workprec(256):
                assert abs(res.value - exact) <= res.total_error
                assert res.quadrature_error <= 2.0 ** (10 - prec) * abs(res.value)

    def test_non_finite_numerator_refused(self):
        # the closed form, like the quadrature, refuses an inf or nan
        # coefficient instead of summing it into the value
        appr = RationalApproximant([mpmath.mpc(1), mpmath.mpc(mpmath.nan)],
                                   [mpmath.mpc(1), mpmath.mpc(2)], 128)
        with pytest.raises(ValueError):
            appr.partial_fractions()

    def test_tail_covers_growing_transform(self):
        # the Borel transform -log(1 + s) of sum m! t^(m+1) still grows past
        # the kernel cutoff on the ray arg tau = pi; the reported error must
        # cover the discarded tail (closed form -e^(1/r) E1(1/r) at t = -r)
        b = borel_transform(euler_borel_series(48), 1)
        rc = continue_on_ray(b, math.pi, [0.25, 0.5, 1.0, 2.0])
        for r in ("0.02", "0.1", "0.3"):
            with mp.workprec(128):
                r = mpmath.mpf(r)
                res = laplace_sum(rc, 1, -r)
            with mp.workprec(256):
                exact = -mpmath.exp(1 / r) * mpmath.e1(1 / r)
                assert abs(res.value - exact) <= res.total_error

    def test_incompatible_direction(self):
        rc = continue_on_ray(borel_transform(euler_series(), 1), 0.0, [1.0])
        with pytest.raises(SectorError):
            laplace_sum(rc, 1, mpmath.mpc(-0.1))

    def test_zero_t_refused(self):
        rc = continue_on_ray(borel_transform(euler_series(), 1), 0.0, [1.0])
        with pytest.raises(SectorError, match="t = 0"):
            laplace_sum(rc, 1, 0)

    def test_k2_monomial_identity(self):
        # order-2 kernel reproduces a_n t^n termwise: test on 1 + t^2/2
        a = OneVarSeries([1, 0, Fraction(1, 2)] + [0] * 7)
        b = borel_transform(a, 2)
        rc = continue_on_ray(b, 0.1, [1.0, 2.0])
        with mp.workprec(160):
            t = mpmath.mpf("0.3") * mpmath.expjpi(mpmath.mpf("0.1") / mpmath.pi)
            res = laplace_sum(rc, 2, t)
            assert abs(res.value - (1 + t * t / 2)) < 1e-12

    def test_convergent_series_reproduced(self):
        # sum t^n/2^n = 1/(1 - t/2), convergent: the sum equals the value
        a = OneVarSeries([Fraction(1, 2 ** n) for n in range(32)])
        rc = continue_on_ray(borel_transform(a, 1), 0.0, [1.0, 2.0])
        with mp.workprec(160):
            res = laplace_sum(rc, 1, mpmath.mpf("0.3"))
            diff = abs(res.value - 1 / (1 - mpmath.mpf("0.3") / 2))
            assert diff < 1e-9
            assert diff <= 50 * res.total_error + 1e-12

    def test_derivative_flag(self):
        # compare differentiation under the integral against a central
        # difference of the regular sum (all arithmetic at high precision)
        b = borel_transform(euler_series(48), 1)
        rc = continue_on_ray(b, 0.0, [1.0, 2.0])
        with mp.workprec(200):
            t = mpmath.mpf("0.2")
            h = mpmath.mpf("1e-12")
            fp = laplace_sum(rc, 1, t, derivative=True, prec=200)
            f1 = laplace_sum(rc, 1, t + h, prec=200)
            f2 = laplace_sum(rc, 1, t - h, prec=200)
            assert abs(fp.value - (f1.value - f2.value) / (2 * h)) < 1e-6


@st.composite
def rational_borel_problems(draw):
    """An order k in {1/2, 1, 3/2, 2, 3}, 1-4 simple rational poles, an
    optional double pole, a ray beside the first pole and a point t.

    The ray turns 0.2-0.6 rad (at most 1.4/k) to either side of the first
    pole's direction; the others stay at least 0.3 rad off the ray.  Half
    the draws put t on the first pole's direction, a quarter of those with
    the pole on the negative axis, so that p/t is exactly real; the others
    put t within 0.5/k of the ray.
    """
    def rational(lo, hi):
        return Fraction(draw(st.integers(round(lo * 16), round(hi * 16))), 16)

    k = draw(st.sampled_from((0.5, 1.0, 1.5, 2.0, 3.0)))
    on_axis = draw(st.booleans())
    mod, ang = rational(0.6, 2.0), rational(-3.1, 3.1)
    if on_axis and draw(st.booleans()):
        ang = None
        first = QQi(-mod)
    else:
        first = QQi(mod * Fraction(math.cos(ang)), mod * Fraction(math.sin(ang)))
    alpha = math.pi if ang is None else math.atan2(first.im, first.re)
    side = draw(st.sampled_from((-1, 1)))
    theta = alpha + side * float(rational(0.2, min(0.6, 1.4 / k)))

    def off_ray_pole():
        m, a = rational(0.6, 2.0), theta + float(rational(0.3, 2 * math.pi - 0.3))
        return QQi(m * Fraction(math.cos(a)), m * Fraction(math.sin(a)))

    poles = [first] + [off_ray_pole() for _ in range(draw(st.integers(0, 3)))]
    residues = [rational(-4, 4) or Fraction(1) for _ in poles]
    double = [(off_ray_pole(), rational(-4, 4) or Fraction(1))
              for _ in range(draw(st.integers(0, 1)))]
    modulus = rational(0.05, 0.4)
    if on_axis:
        direction = alpha
    else:
        direction = theta + float(rational(-0.5, 0.5)) / max(1.0, k)
    return list(zip(poles, residues)), theta, modulus, direction, on_axis, k, double


class TestClosedFormBound:
    # total_error bounds the error against an mpmath.quad oracle at 256
    # bits (prec + 64 at prec = 256: the bound is a few ulps of the value),
    # for the value and the derivative, on input built at 4 prec bits
    @pytest.mark.parametrize("prec", [64, 128, 256])
    @settings(max_examples=8, deadline=None)
    @given(problem=rational_borel_problems())
    def test_total_error_covers_oracle(self, prec, problem):
        poles, theta, modulus, direction, on_axis, k, double = problem
        coeffs = pole_transform_coeffs(poles, k, 32, 4 * prec, double)
        rc = continue_on_ray(borel_transform(OneVarSeries(coeffs), k, prec=prec),
                             theta, [1.0], prec=prec)
        with mp.workprec(prec):
            if on_axis:
                # on the first pole's direction, rounded like any input
                p0 = to_mpc(poles[0][0])
                t = p0 / abs(p0) * to_mpc(modulus)
            else:
                t = to_mpc(modulus) * mpmath.expj(direction)
        for derivative in (False, True):
            res = laplace_sum(rc, k, t, derivative=derivative, prec=prec, eps=1)
            exact = pole_transform_quad(poles, k, t, theta, derivative, double,
                                        prec=max(256, prec + 64))
            with mp.workprec(512):
                assert abs(res.value - exact) <= res.total_error


def pade_step_down(coeffs, m, prec):
    """(order, num, den) that a step-down loop over mpmath.pade settles on
    at 2 prec bits: the reference of the kernel's Toeplitz solve."""
    with mp.workprec(2 * prec):
        c = [to_mpc(x) for x in coeffs]
        for mm in range(m, 0, -1):
            try:
                num, den = mpmath.pade(c, mm, mm)
            except ZeroDivisionError:
                continue
            if all(mpmath.isfinite(x) for x in den):
                return mm, num, den
    return 0, c[:1], [mpmath.mpc(1)]


@st.composite
def exact_lower_degree_coeffs(draw):
    """16-32 Taylor coefficients of sum r/(1 - tau/p) over 1-4 poles.

    1/p is a nonzero Gaussian integer of modulus <= 5 and r a dyadic
    rational, so every coefficient is held exactly at 2 prec >= 128 bits and
    the Toeplitz system of each order above the number of distinct poles
    is exactly singular.  (On rounded inputs ``mpmath.lu_solve`` cannot
    tell a lower true degree from rounding noise; the kernel stops where
    the pivots fall below the noise of the data's accuracy.)
    """
    invs = [QQi(draw(st.integers(-4, 4)), draw(st.integers(-3, 3)))
            for _ in range(draw(st.integers(1, 4)))]
    invs = [v for v in invs if v] or [QQi(1)]
    residues = [Fraction(draw(st.integers(1, 5)) * draw(st.sampled_from((-1, 1))),
                         draw(st.sampled_from((1, 2, 4)))) for _ in invs]
    coeffs, powers = [], [QQi(1)] * len(invs)
    for _ in range(draw(st.integers(16, 32))):
        coeffs.append(sum((w * r for w, r in zip(powers, residues)), QQi(0)))
        powers = [w * v for w, v in zip(powers, invs)]
    return coeffs


class TestToeplitzSolve:
    # the kernel's Toeplitz solve against mpmath.pade at 2 prec bits
    @pytest.mark.parametrize("prec", [64, 128, 256])
    @settings(max_examples=10, deadline=None)
    @given(coeffs=st.one_of(
        st.just([(-1) ** n for n in range(20)]),
        st.just(TestFroissartFilter.coeffs()),
        exact_lower_degree_coeffs()))
    def test_degenerate_input_settles_like_pade(self, prec, coeffs):
        m = (len(coeffs) - 1) // 2
        order = build_approximant(coeffs, m, prec).order[1]
        if isinstance(coeffs[0], mpmath.mpc) and prec <= 128:
            # rounded to 128 bits and taken as accurate to prec: the rounding
            # lies below the cut 2^(16 - prec), and the fit stops at the
            # true degree, where a step-down of mpmath.pade fits the noise
            assert order == 2
        else:
            assert order == pade_step_down(coeffs, m, prec)[0]

    @pytest.mark.parametrize("prec", [64, 128, 256])
    @settings(max_examples=8, deadline=None)
    @given(problem=rational_borel_problems())
    def test_values_on_the_ray_match_pade(self, prec, problem):
        poles, theta = problem[:2]
        b = borel_transform(OneVarSeries(rational_pole_coeffs(poles, 32)), 1, prec=prec)
        appr = build_approximant(b.coeffs, 15, prec)
        _, num, den = pade_step_down(b.coeffs, 15, prec)
        with mp.workprec(2 * prec):
            for r in (0.25, 0.5, 1, 2):
                tau = r * mpmath.expj(theta)
                got = mpmath.polyval(appr.num[::-1], tau) / mpmath.polyval(appr.den[::-1], tau)
                want = mpmath.polyval(num[::-1], tau) / mpmath.polyval(den[::-1], tau)
                assert abs(got - want) <= abs(want) * mpmath.ldexp(1, 8 - prec)


@st.composite
def rounded_rational_problems(draw):
    """a_0..a_(n-1), a_n = n! sum r p^-n at 128 bits (n 24-48), over 1-4
    poles p of modulus 0.6-2, at least 0.45 rad off the ray and 0.33 rad
    apart in angle, the (p, r) pairs, the ray and a point t within 0.5 rad
    of it."""
    def rational(lo, hi, den=16):
        return Fraction(draw(st.integers(round(lo * den), round(hi * den))), den)

    theta = float(rational(-3.1, 3.1))
    n = draw(st.integers(1, 4))
    # the poles' angles split the 2 pi - 0.9 rad off the ray into n parts
    span = 2 * math.pi - 0.9
    angles = [theta + 0.45 + span * (j + float(rational(0, 0.75))) / n for j in range(n)]
    with mp.workprec(128):
        poles = [(rational(0.6, 2.0, 10) * mpmath.expj(a), rational(-4, 4, 4) or 1)
                 for a in angles]
        coeffs = [mpmath.factorial(m) * sum(r * p ** -m for p, r in poles)
                  for m in range(draw(st.integers(24, 48)))]
        t = rational(0.05, 0.5) * mpmath.expj(theta + float(rational(-0.5, 0.5)))
    return coeffs, poles, theta, t


class TestRankCut:
    # the Toeplitz solve stops at the numerical rank of the data: a rounded
    # rational Borel transform is fitted at its true degree
    @settings(max_examples=12, deadline=None)
    @given(problem=rounded_rational_problems())
    def test_rounded_rational_sums_at_its_true_degree(self, problem):
        coeffs, poles, theta, t = problem
        rc = continue_on_ray(borel_transform(OneVarSeries(coeffs), 1), theta)
        nu = len(poles)
        assert rc._hi.order == (nu, nu) and rc._lo.order == (nu + 1, nu)
        for appr in (rc._hi, rc._lo):
            assert appr.filtered_poles() == appr.raw_poles()
        for derivative in (False, True):
            res = laplace_sum(rc, 1, t, derivative=derivative)
            exact = rational_pole_sum(poles, t, theta, derivative)
            with mp.workprec(512):
                assert abs(res.value - exact) <= res.total_error

    def test_rounded_stokes_pair_holds_its_bounds(self):
        # ray-sum seed 3031, slot 7: four poles (r, |p|, arg p), the first on
        # arg tau = -119/40, coefficients rounded to 128 bits, rays 7/20 rad
        # to either side.  Fitted at orders 19 and 18, doublets included, the
        # value erred by 3.0e-37 against 1.8e-37 reported, the derivative by
        # 3.4e-36 against 1.2e-36, the ray below by 5.1e-37 against 1.7e-37
        # and the Stokes jump by 4.4e-37 against 3.5e-37
        spec = ((-7, Fraction(19, 10), Fraction(-119, 40)),
                (2, Fraction(4, 5), Fraction(439, 500)),
                (-2, 2, Fraction(807, 1000)),
                (Fraction(3, 2), 2, Fraction(2369, 1000)))
        with mp.workprec(128):
            def real(x):
                x = Fraction(x)
                return mpmath.mpf(x.numerator) / x.denominator

            def polar(modulus, angle):
                return real(modulus) * mpmath.expj(real(angle))

            poles = [(polar(m, a), real(r)) for r, m, a in spec]
            coeffs = [mpmath.factorial(n) * sum(r * p ** -n for p, r in poles) for n in range(40)]
            t = polar(Fraction(177, 500), Fraction(-1553, 500))
            above, below = float(real(Fraction(-21, 8))), float(real(Fraction(-133, 40)))
        b = borel_transform(OneVarSeries(coeffs), 1)
        rc_above, rc_below = continue_on_ray(b, above), continue_on_ray(b, below)
        value = laplace_sum(rc_above, 1, t)
        dt = laplace_sum(rc_above, 1, t, derivative=True)
        low = laplace_sum(rc_below, 1, t)
        with mp.workprec(512):
            exact = rational_pole_sum(poles, t, above)
            exact_below = rational_pole_sum(poles, t, below)
            assert abs(value.value - exact) <= value.total_error
            exact_dt = rational_pole_sum(poles, t, above, derivative=True)
            assert abs(dt.value - exact_dt) <= dt.total_error
            assert abs(low.value - exact_below) <= low.total_error
            jump = value.value - low.value
            assert abs(jump - (exact - exact_below)) <= value.total_error + low.total_error

    def test_rank_cut_pair_builds_two_approximants(self, monkeypatch):
        # three poles, coefficients rounded to 128 bits: the fit at m* = 15
        # resolves to the rank 3, and the lower fit is requested as [4/3]
        # directly; building order m* - 1 first only resolved to [3/3] again
        with mp.workprec(128):
            poles = [(mpmath.mpf(3) / 2 * mpmath.expj(2), 1),
                     (mpmath.mpf(4) / 5 * mpmath.expj(-1), -2),
                     (mpmath.mpf(6) / 5 * mpmath.expj(mpmath.mpf(1) / 5), mpmath.mpf(1) / 2)]
            coeffs = [mpmath.factorial(n) * sum(r * p ** -n for p, r in poles)
                      for n in range(32)]
        built = []
        build = borel.build_approximant
        monkeypatch.setattr(borel, "build_approximant",
                            lambda *a, **kw: built.append(a[1]) or build(*a, **kw))
        rc = continue_on_ray(borel_transform(OneVarSeries(coeffs), 1), -2.5)
        assert (rc._hi.order, rc._lo.order) == ((3, 3), (4, 3))
        assert built == [15, 3]

    @pytest.mark.parametrize("prec", [64, 96, 128])
    def test_exact_euler_keeps_its_orders(self, prec):
        # sum m! t^(m+1), exact: the Borel transform -log(1 - tau) has no
        # finite degree, and no order of the ray's pair is cut
        for n in range(24, 65, 8):
            a = OneVarSeries([0] + [factorial(m) for m in range(n - 1)])
            b = borel_transform(a, 1, prec=prec)
            rc = continue_on_ray(b, math.pi, prec=prec)
            m = (n - 1) // 2
            assert (rc._hi.order, rc._lo.order) == ((m, m), (m - 1, m - 1))


def one_pole_sum(p, r, t, theta, double, derivative, prec):
    """The 1-sum (or its t-derivative) of r p/(p - tau), or of
    r p^2/(p - tau)^2 when ``double``, along theta, in closed form at
    ``prec`` bits from mpmath alone, as perfbench/oracles.py builds it
    (p and r exact complex rationals).

    With q = p/t, J(q) = -e^-q E1(-q) and K = J + s 2 pi i e^-q, where
    s = +1 (-1) when the ray turned past the pole counter-clockwise
    (clockwise) from arg t: F = r q K for the simple pole and
    r (q^2 K - q) for the double one.  K' = 1/q - K, and dq/dt = -q/t.
    """
    with mp.workprec(prec):
        p, r = (mpmath.mpc(mpmath.mpf(x.re.numerator) / x.re.denominator,
                           mpmath.mpf(x.im.numerator) / x.im.denominator) for x in (p, r))
        t = mpmath.mpc(t)
        arg_t = mpmath.atan2(t.imag, t.real)
        wrap = lambda a: a - 2 * mpmath.pi * mpmath.nint(a / (2 * mpmath.pi))
        d_ray, d_pole = wrap(theta - arg_t), wrap(mpmath.atan2(p.imag, p.real) - arg_t)
        side = 1 if 0 < d_pole < d_ray else -1 if d_ray < d_pole < 0 else 0
        q = p / t
        k = -mpmath.exp(-q) * mpmath.e1(-q) + side * 2j * mpmath.pi * mpmath.exp(-q)
        if not derivative:
            return r * (q * q * k - q if double else q * k)
        dk = 1 / q - k
        return -q / t * r * (2 * q * k + q * q * dk - 1 if double else k + q * dk)


class TestOnePoleOracle:
    # one pole at k = 1 against one_pole_sum at 3 prec bits: |p/t| from 1e-2
    # to 1e3, p/t in both half-planes and on both sides of the continued
    # fraction's crossover |z| = 12 (z = -p/t), the ray past the pole (either
    # way) or not; (arg p/t, the ray's turn from arg t) for each case
    P, R = QQi(Fraction(3, 4), Fraction(6, 5)), QQi(Fraction(3, 4), Fraction(-1, 2))
    GEOMETRY = [(0.5, 1.0), (-0.5, -1.0), (0.6, -0.5), (2.6, 0.4), (-2.2, -0.6)]
    MODULI = ["0.01", "0.5", "11.5", "12.5", "1000"]

    @pytest.mark.parametrize("prec", [64, 128, 256])
    @pytest.mark.parametrize("double", [False, True])
    def test_value_and_derivative_within_total_error(self, prec, double):
        pole = [(self.P, self.R)]
        coeffs = pole_transform_coeffs([] if double else pole, 1, 32, 4 * prec,
                                       pole if double else ())
        b = borel_transform(OneVarSeries(coeffs), 1, prec=prec)
        with mp.workprec(prec):
            p = to_mpc(self.P)
            arg_p = mpmath.atan2(p.imag, p.real)
        for arg_x, turn in self.GEOMETRY:
            theta = float(arg_p - arg_x + turn)
            rc = continue_on_ray(b, theta, prec=prec)
            for modulus in self.MODULI:
                with mp.workprec(prec):
                    t = abs(p) / mpmath.mpf(modulus) * mpmath.expj(arg_p - arg_x)
                for derivative in (False, True):
                    res = laplace_sum(rc, 1, t, derivative=derivative, prec=prec, eps=1)
                    exact = one_pole_sum(self.P, self.R, t, theta, double, derivative,
                                         3 * prec)
                    with mp.workprec(3 * prec):
                        assert abs(res.value - exact) <= res.total_error, (
                            arg_x, turn, modulus, derivative)


class TestKernelGuard:
    # the Pade layer runs on the Gaussian-integer kernel: no mpmath Pade
    # solve, LU solve or polynomial rooting anywhere in the ray-sum chain,
    # and the Laplace step's per-pole loops run on it too
    @staticmethod
    def problem(family):
        if family == "euler48":
            return euler_borel_series(48), math.pi, mpmath.mpf("-0.1")
        series = OneVarSeries([factorial(n) * c for n, c in enumerate(three_pole_coeffs(32))])
        return series, -0.3, mpmath.mpf("0.1") * mpmath.expj(-0.3)

    @staticmethod
    def spy(monkeypatch, names):
        calls = []
        for name in names:
            def spy(*args, _name=name, _real=getattr(mpmath, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(mpmath, name, spy)
            monkeypatch.setattr(mp, name, spy)
        return calls

    @pytest.mark.parametrize("family", ["euler48", "three_pole"])
    def test_chain_calls_no_mpmath_solver(self, monkeypatch, family):
        series, theta, t = self.problem(family)
        calls = self.spy(monkeypatch, ("pade", "lu_solve", "polyroots"))
        b = borel_transform(series, 1)
        rc = continue_on_ray(b, theta, [0.5, 1.0])
        laplace_sum(rc, 1, t)
        singular_directions(b, 1)
        assert calls == []

    @pytest.mark.parametrize("family", ["euler48", "three_pole"])
    def test_laplace_step_runs_on_the_kernel(self, monkeypatch, family):
        # no argument, magnitude, ldexp or Horner of mpmath objects per pole:
        # the Stokes side comes from mantissa signs, the bounds are floats on
        # integer exponents, and the terms are kernel numbers.  Only calls
        # made inside the per-pole steps count; once per sum, the point's
        # argument is still taken by mpmath
        series, theta, t = self.problem(family)
        rc = continue_on_ray(borel_transform(series, 1), theta, [0.5, 1.0])
        calls = self.spy(monkeypatch, ("arg", "mag", "ldexp", "polyval"))
        inside = []

        def per_pole(owner, name):
            real = getattr(owner, name)

            def wrapped(*args, **kwargs):
                inside.append(name)
                mark = len(calls)
                try:
                    return real(*args, **kwargs)
                finally:
                    assert calls[mark:] == [], (name, calls[mark:])
            monkeypatch.setattr(owner, name, wrapped)

        per_pole(borel._PoleStart, "__init__")
        for name in ("_pole_jet", "_times_derivative", "_closed_form_sum"):
            per_pole(borel, name)
        laplace_sum(rc, 1, t)
        laplace_sum(rc, 1, t, derivative=True)
        assert {"__init__", "_pole_jet", "_times_derivative", "_closed_form_sum"} <= set(inside)


class TestExpE1:
    # G(z) = e^z E1(z), the one special function of the k = 1 sum, against
    # mpmath at 3 prec bits: every value within the bound it states, and
    # that bound within 2^-prec |G|
    @staticmethod
    def kernel(fn, z, prec):
        """fn at z as a kernel number: (z, prec, g, bound) for check, g read
        through gi_to_mpc and the bound ulps 2^-prec |g|."""
        zk = gi_from_mpc(z, 4 * prec)
        g, ulps = fn(zk, prec)
        g = gi_to_mpc(g)
        with mp.workprec(3 * prec):
            return gi_to_mpc(zk), prec, g, ulps * mpmath.ldexp(abs(g), -prec)

    @staticmethod
    def check(z, prec, g, bound):
        with mp.workprec(3 * prec):
            exact = mpmath.exp(z) * mpmath.e1(z)
            assert abs(g - exact) <= bound
            assert bound <= mpmath.ldexp(abs(g), -prec)

    @settings(max_examples=60, deadline=None)
    @given(log_r=st.floats(-3, 3), turn=st.floats(-1, 1, exclude_min=True, exclude_max=True),
           prec=st.sampled_from([64, 128, 160, 256]))
    @example(log_r=math.log10(borel._FRACTION_MIN_ABS), turn=0.0, prec=128)
    @example(log_r=math.log10(borel._FRACTION_MIN_ABS * 0.999), turn=0.25, prec=128)
    @example(log_r=math.log10(borel._FRACTION_MIN_ABS * 1.001), turn=-0.5, prec=160)
    @example(log_r=3.0, turn=0.5, prec=64)
    @example(log_r=1.5, turn=0.999, prec=128)
    def test_within_its_bound(self, log_r, turn, prec):
        # |z| from 1e-3 to 1e3, every argument off the cut: both sides of
        # the crossover to the continued fraction, and both half-planes
        with mp.workprec(prec):
            z = mpmath.mpf(10) ** log_r * mpmath.expjpi(turn)
        self.check(*self.kernel(borel._exp_e1, z, prec))

    @settings(max_examples=25, deadline=None)
    @given(log_r=st.floats(math.log10(4), 3), turn=st.floats(-0.5, 0.5),
           prec=st.sampled_from([64, 128, 256]))
    def test_fraction_within_its_bound(self, log_r, turn, prec):
        # the fraction on all of Re z >= 0, below the crossover too, where
        # it is valid but slower than mpmath
        with mp.workprec(prec):
            z = mpmath.mpf(10) ** log_r * mpmath.expjpi(turn)
        self.check(*self.kernel(borel._exp_e1_fraction, z, prec))

    def test_fraction_beyond_the_crossover(self, monkeypatch):
        # mpmath.e1 runs only below the crossover or in the left half-plane
        seen = []
        monkeypatch.setattr(mpmath, "e1", lambda z: seen.append(z) or mpmath.expint(1, z))
        with mp.workprec(128):
            inside = [mpmath.mpc(12, 0), mpmath.mpc(0, 20), mpmath.mpc(300, -40)]
            outside = [mpmath.mpc(11.9, 0), mpmath.mpc(-20, 1), mpmath.mpc(0.5, 0.5)]
        for z in inside + outside:
            borel._exp_e1(gi_from_mpc(z, 256), 128)
        assert seen == outside


class TestPoleStarts:
    # the ray-independent start of each pole's jet (x = c/u, G and its bound,
    # e^-x) is computed once per pole, point and approximant
    @staticmethod
    def problem():
        # a pole at tau = 1 between the rays arg tau = 0.3 and -0.3, a Stokes
        # pair at t = 0.2 e^(0.05 i): the ray below adds the pole's residue term
        poles = [(1, 1), (mpmath.mpc(-0.5, 1.5), 0.5 - 1j), (-2, 2)]
        coeffs = pole_transform_coeffs(poles, 1, 32, 512)
        with mp.workprec(128):
            t = mpmath.mpf("0.2") * mpmath.expj(mpmath.mpf("0.05"))
        return coeffs, t

    def test_value_derivative_and_stokes_pair_share_g(self, monkeypatch):
        coeffs, t = self.problem()
        calls = []
        exp_e1 = borel._exp_e1
        monkeypatch.setattr(borel, "_exp_e1", lambda z, prec: calls.append(z) or exp_e1(z, prec))
        b = borel_transform(OneVarSeries(coeffs), 1)
        above = continue_on_ray(b, 0.3, [1.0])
        # the second ray matches the poles its approximants filtered for the
        # first: no numerator Horner at any pole
        horner = []
        gi_horner = borel.gi_horner
        monkeypatch.setattr(borel, "gi_horner", lambda *a: horner.append(a) or gi_horner(*a))
        below = continue_on_ray(b, -0.3, [1.0])
        assert horner == []
        shared = [laplace_sum(above, 1, t), laplace_sum(above, 1, t, derivative=True),
                  laplace_sum(below, 1, t)]
        # both rays take the series' cached approximants, [3/3] and [4/3] with
        # the three true poles each: one G per pole of each
        assert (above._hi.order, above._lo.order) == ((3, 3), (4, 3))
        poles = sum(len(appr.partial_fractions(1)[1]) for appr in (above._hi, above._lo))
        assert poles == 6 and len(calls) == poles
        assert (below._hi, below._lo) == (above._hi, above._lo)
        for res, (theta, derivative) in zip(shared, [(0.3, False), (0.3, True), (-0.3, False)]):
            fresh = continue_on_ray(borel_transform(OneVarSeries(coeffs), 1), theta, [1.0])
            alone = laplace_sum(fresh, 1, t, derivative=derivative)
            assert res.value._mpc_ == alone.value._mpc_
            assert (res.quadrature_error, res.continuation_error) == (
                alone.quadrature_error, alone.continuation_error)

    def test_store_stays_bounded(self, monkeypatch):
        coeffs, t = self.problem()
        calls = []
        exp_e1 = borel._exp_e1
        monkeypatch.setattr(borel, "_exp_e1", lambda z, prec: calls.append(z) or exp_e1(z, prec))
        rc = continue_on_ray(borel_transform(OneVarSeries(coeffs), 1), 0.3, [1.0])
        poles = sum(len(appr.partial_fractions(1)[1]) for appr in (rc._hi, rc._lo))
        for i in range(10):
            laplace_sum(rc, 1, t * (1 + mpmath.mpf(i) / 16))
        assert len(calls) == 10 * poles
        for appr in (rc._hi, rc._lo):
            assert len(appr._starts) <= borel._STORED_POINTS


class TestPKSum:
    def test_constant_coefficient_only(self):
        germ = Germ(TS(2, 10, {(1, 1): 1}), MonomialOrder((1, 1)))
        g0 = TS(2, 10, {(0, 0): 3, (1, 0): 2})
        coeffs = [g0] + [TS.zero(2, 10) for _ in range(9)]
        exp = PExpansion(germ, coeffs, 10)
        x0 = (Fraction(1, 10), Fraction(1, 5))
        res = p_k_sum(exp, x0, 1, 0.0)
        assert abs(res.value - (3 + 2 * mpmath.mpf("0.1"))) < 1e-12

    def test_point_outside_sector(self):
        germ = Germ(TS(2, 10, {(1, 1): 1}), MonomialOrder((1, 1)))
        exp = PExpansion(germ, [TS.one(2, 10)] * 10, 10)
        with pytest.raises(SectorError):
            p_k_sum(exp, (Fraction(-1, 10), Fraction(1, 10)), 1, 0.0)

    def test_samples_no_ray(self, monkeypatch):
        # the Laplace step reads the approximants, never samples of the ray
        def refuse(self, tau):
            raise AssertionError("sampled the continuation")
        monkeypatch.setattr(RationalApproximant, "__call__", refuse)
        germ = Germ(TS(2, 10, {(1, 1): 1}), MonomialOrder((1, 1)))
        exp = PExpansion(germ, [TS.one(2, 10)] * 10, 10)
        res = p_k_sum(exp, (Fraction(1, 10), Fraction(1, 5)), 1, 0.0)
        assert abs(res.value - 1 / (1 - mpmath.mpf("0.02"))) < 1e-12

    def test_germ_zero_refused(self):
        germ = Germ(TS(2, 10, {(1, 1): 1}), MonomialOrder((1, 1)))
        exp = PExpansion(germ, [TS.one(2, 10)] * 10, 10)
        with pytest.raises(SectorError, match="vanishes"):
            p_k_sum(exp, (0, Fraction(1, 10)), 1, 0.0)

    def test_ode_expansion_at_negative_germ_value(self):
        # y = sum m! P^(m+1) with P = x^2 - eps^2, evaluated where P < 0:
        # summing along theta = pi succeeds and matches the one-variable sum
        ex = gen_example("ode-euler", 40)
        exp = p_expand(ex.f, Germ(ex.p, ex.order), 20)
        x0 = (Fraction(1, 10), Fraction(1, 2))
        t = ex.p.eval_at(x0)
        assert t == Fraction(1, 100) - Fraction(1, 4)
        res = p_k_sum(exp, x0, 1, math.pi)
        assert res.total_error < 1e-10
        from germsum.borel import continue_on_ray, laplace_sum
        b = borel_transform(euler_borel_series(20), 1)
        rc = continue_on_ray(b, math.pi, [0.5, 1.0])
        direct = laplace_sum(rc, 1, mpmath.mpf(t.numerator) / t.denominator)
        assert abs(res.value - direct.value) < 1e-10

    def test_factorial_expansion_pole_direction(self):
        # coefficients n! x2^(2n): Borel pole at 1/x2^2, singular direction
        # -2*arg(x2); summing along it fails, rotating by pi/4 succeeds
        ex = gen_example("remark79", 120)
        exp = p_expand(ex.f, Germ(ex.p, ex.order), 30)
        theta_bad = 0.0     # x2 real: pole on the positive axis
        x0 = (Fraction(1, 5), Fraction(1, 4))
        with pytest.raises(SingularRayError):
            p_k_sum(exp, x0, 1, theta_bad)
        res = p_k_sum(exp, x0, 1, theta_bad + math.pi / 4)
        assert res.continuation_error < 1e-10
        # value should be close to the Borel sum of the specialized series:
        # cross-check first coefficients dominate at this small t
        t = mpmath.mpf(1) / 20
        partial = sum(factorial(n) * mpmath.mpf(0.25) ** (2 * n) * t ** n
                      for n in range(4))
        assert abs(res.value - partial) < 0.01


class TestSingularDirections:
    def test_euler_pole_at_pi(self):
        report = singular_directions(borel_transform(euler_series(32), 1), 1)
        close = [d for d in report.directions if abs(d - math.pi) < 0.05]
        assert len(close) == 1
        assert all(c.hits >= 3 for c in report.clusters)

    def test_log_branch_at_zero(self):
        report = singular_directions(
            borel_transform(euler_borel_series(40), 1), 1)
        assert any(abs(d) < 0.05 for d in report.directions)

    def test_entire_function_empty(self):
        a = OneVarSeries([Fraction(1, factorial(n)) for n in range(32)])
        report = singular_directions(borel_transform(a, 1), 1)
        assert report.directions == ()

    def test_minimum_coefficients(self):
        with pytest.raises(ValueError):
            singular_directions(borel_transform(OneVarSeries([1] * 8), 1), 1)

    def test_k_of_the_transform(self):
        # another k was reported as the report's k
        b = borel_transform(euler_borel_series(32), 1)
        with pytest.raises(ValueError, match="k = 2"):
            singular_directions(b, 2)
        assert singular_directions(b).k == singular_directions(b, 1).k == 1.0


class TestInvariants:
    def test_direction_consistency_same_side(self):
        # two rays on the same side of the singular direction agree within
        # the combined error estimates
        b = borel_transform(euler_series(48), 1)
        t = mpmath.mpf("0.15")
        r1 = laplace_sum(continue_on_ray(b, 0.3, [1.0, 2.0]), 1, t)
        r2 = laplace_sum(continue_on_ray(b, -0.25, [1.0, 2.0]), 1, t)
        tol = r1.total_error + r2.total_error + 1e-25
        assert abs(r1.value - r2.value) <= tol * 10

    def test_asymptotic_recovery(self):
        # |sum - partial sums| <= K A^N Gamma(N+1) |t|^N for the euler series
        b = borel_transform(euler_series(48), 1)
        rc = continue_on_ray(b, 0.0, [1.0, 2.0])
        t = mpmath.mpf("0.05")
        res = laplace_sum(rc, 1, t)
        a = euler_series(48).coeffs
        for N in range(2, 9):
            partial = sum(a[n] * t ** n for n in range(N))
            bound = 2 * mpmath.gamma(N + 1) * t ** N
            assert abs(res.value - partial) <= bound
