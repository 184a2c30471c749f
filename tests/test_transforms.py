import random
from fractions import Fraction
from math import comb, factorial

import mpmath
import pytest
from mpmath import mp

from germsum import transforms
from germsum.borel import borel_transform, build_approximant
from germsum.errors import DimensionMismatchError
from germsum.scalars import QQi, to_mpc
from germsum.series import MonomialOrder, TruncatedSeries, v_ell
from germsum.transforms import (INFINITY, blowup, chart_shift,
                                dominant_data, ramify, rotation_average)

from helpers import euler_borel_series, random_series

TS = TruncatedSeries


def factorial_series(trunc):
    return TS(2, trunc, {(n, 3 * n): factorial(n) for n in range(11)
                         if 4 * n <= trunc})


class TestBlowup:
    def test_chart_zero(self):
        out = blowup(factorial_series(70), 0)
        for n in range(11):
            assert out.terms[(3 * n, 4 * n)] == factorial(n)

    def test_chart_infinity(self):
        out = blowup(factorial_series(50), INFINITY)
        for n in range(10):
            assert out.terms[(n, 4 * n)] == factorial(n)

    def test_monomial_germ(self):
        assert blowup(TS(2, 6, {(1, 1): 1}), 0).terms == {(1, 2): 1}
        assert blowup(TS(2, 6, {(1, 1): 1}), INFINITY).terms == {(1, 2): 1}

    def test_finite_nonzero_chart(self):
        # x1*x2 at xi=1: v2*(1+v1)*v2
        out = blowup(TS(2, 6, {(1, 1): 1}), 1)
        assert out.terms == {(0, 2): 1, (1, 2): 1}

    def test_needs_two_variables(self):
        with pytest.raises(DimensionMismatchError):
            blowup(TS(1, 4, {(1,): 1}), 0)

    def test_float_promotion(self):
        out = blowup(TS(2, 6, {(1, 1): 1}), mpmath.mpf("0.5"))
        assert not out.is_exact
        out2 = blowup(TS(2, 6, {(1, 1): 1}), Fraction(1, 2))
        assert out2.is_exact

    def test_ring_homomorphism(self):
        rng = random.Random(31)
        for xi in (0, Fraction(2, 3), INFINITY):
            for _ in range(10):
                f = random_series(rng, 2, 6)
                g = random_series(rng, 2, 6)
                assert blowup(f * g, xi).agrees_with(blowup(f, xi) * blowup(g, xi))
                assert blowup(f + g, xi) == blowup(f, xi) + blowup(g, xi)

    def test_three_variables(self):
        f = TS(3, 6, {(1, 1, 2): 1})
        out = blowup(f, 0)
        assert out.terms == {(1, 2, 2): 1}


class TestRamify:
    def test_basic(self):
        out = ramify(TS(2, 6, {(1, 0): 1, (0, 1): 1}), 2)
        assert out.terms == {(2, 0): 1, (0, 1): 1}
        assert out.trunc == 12

    def test_cusp(self):
        out = ramify(TS(2, 6, {(0, 2): 1, (3, 0): -1}), 2)
        assert out.terms == {(0, 2): 1, (6, 0): -1}

    def test_rotation_invariance(self):
        rng = random.Random(37)
        for k in (2, 3, 5):
            f = random_series(rng, 2, 8)
            out = ramify(f, k)
            assert all(e[0] % k == 0 for e in out.terms)
            assert rotation_average(out, k) == out

    def test_k_validation(self):
        with pytest.raises(ValueError):
            ramify(TS(2, 4, {(1, 0): 1}), 1)


class TestRotationAverage:
    def test_term_filter(self):
        g = TS(2, 8, {(2, 0): 1, (1, 1): 1, (0, 1): 1})
        avg = rotation_average(g, 2)
        assert avg.terms == {(2, 0): 1, (0, 1): 1}
        desc = rotation_average(g, 2, descend=True)
        assert desc.terms == {(1, 0): 1, (0, 1): 1}

    def test_section_property(self):
        rng = random.Random(41)
        for k in (2, 3, 5):
            for _ in range(10):
                f = random_series(rng, 3, 7, complex_coeffs=True)
                assert rotation_average(ramify(f, k), k, descend=True) == f


class TestChartShift:
    def test_identity(self):
        f = TS(2, 8, {(1, 2): 3, (0, 1): 1})
        assert chart_shift(f, Fraction(1, 2), Fraction(1, 2)) == f

    def test_monomial_example(self):
        # chart data of x1*x2 at 0 is v1*v2^2; shifting to 1 gives (v1+1)*v2^2
        fxi = TS(2, 6, {(1, 2): 1})
        out = chart_shift(fxi, 0, 1)
        assert out.terms == {(1, 2): 1, (0, 2): 1}
        assert out == blowup(TS(2, 6, {(1, 1): 1}), 1)

    def test_constant_unchanged(self):
        c = TS.constant(Fraction(5, 3), 2, 6)
        assert chart_shift(c, 0, 7) == c

    def test_infinite_chart_rejected(self):
        with pytest.raises(ValueError):
            chart_shift(TS(2, 4, {}), INFINITY, 0)

    def test_chart_coherence(self):
        # polynomial data with headroom so the blow-up keeps every term
        rng = random.Random(43)
        for _ in range(30):
            deg = rng.randint(0, 5)
            f = random_series(rng, 2, deg).with_trunc(2 * deg + 2)
            xi = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            zeta = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            lhs = blowup(f, zeta)
            rhs = chart_shift(blowup(f, xi), xi, zeta)
            assert lhs == rhs


class TestDominantData:
    def test_monomial(self):
        dd = dominant_data(TS(2, 8, {(1, 1): 1}), None)
        assert dd.h == 2
        assert dd.H.terms == {(1, 1): 1}
        vals = {(str(v) if v is INFINITY else v, m) for v, m in dd.roots}
        assert (Fraction(0), 1) in vals and ("inf", 1) in vals

    def test_cusp_double_zero(self):
        dd = dominant_data(TS(2, 8, {(0, 2): 1, (3, 0): -1}), None)
        assert dd.h == 2
        assert dd.H.terms == {(0, 2): 1}
        assert dd.roots == ((Fraction(0), 2),)

    def test_circle_pair(self):
        dd = dominant_data(TS(2, 8, {(2, 0): 1, (0, 2): 1}), None)
        assert dd.h == 2
        roots = sorted((complex(mpmath.mpc(v)) for v, _ in dd.roots),
                       key=lambda z: z.imag)
        assert roots == [complex(0, -1), complex(0, 1)]

    def test_scaled_circle_pair(self):
        # x1^2 + 2 x2^2: 2 xi^2 + 1 has no linear term, and its roots +-i/sqrt(2)
        # are not Gaussian integers (a zero coefficient once set the sweeps'
        # scale to nothing, and both iterates settled at 0)
        dd = dominant_data(TS(2, 8, {(2, 0): 1, (0, 2): 2}), None)
        assert sorted(m for _, m in dd.roots) == [1, 1]
        for v, _ in dd.roots:
            assert abs(abs(mpmath.mpc(v).imag) - mpmath.sqrt(0.5)) < 1e-25
            assert mpmath.mpc(v).real == 0

    def test_numeric_double_root_clustering(self):
        # (x2 - x1)^2: double root at 1 found by clustering, not deflation
        dd = dominant_data(TS(2, 8, {(2, 0): 1, (1, 1): -2, (0, 2): 1}), None)
        assert len(dd.roots) == 1
        v, m = dd.roots[0]
        assert m == 2 and abs(mpmath.mpc(v) - 1) < 1e-25

    def test_triple_root(self):
        # (x1 + x2)^3: the three Durand-Kerner iterates near -1 merge into
        # one root of multiplicity 3
        dd = dominant_data(TS(2, 6, {(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}), None)
        assert len(dd.roots) == 1
        v, m = dd.roots[0]
        assert m == 3 and abs(mpmath.mpc(v) + 1) < 1e-20

    @pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
    def test_high_multiplicity_root(self, m):
        # (x1 + x2)^m: Durand-Kerner stalls on the m-fold root, its iterates
        # about 2^(-266/m) from -1 (2-5e-10 at m = 8, beside the 2.3e-10
        # radius), and single linkage must merge them; a greedy pass about
        # the running mean returned m = 8 as [1, 7]
        p = TS(2, m, {(i, m - i): comb(m, i) for i in range(m + 1)})
        dd = dominant_data(p, None)
        assert len(dd.roots) == 1
        v, mult = dd.roots[0]
        assert mult == m and abs(mpmath.mpc(v) + 1) < 1e-20

    def test_merged_center_refined(self):
        # (x1 - 2 x2)^5: the five iterates merge, and Newton steps on the
        # fourth derivative put the center within 2^(-2 prec) of 1/2 (the
        # mean of the iterates erred by 1e-51 to 1e-60)
        prec = 128
        p = TS(2, 5, {(5 - i, i): comb(5, i) * (-2) ** i for i in range(6)})
        (v, mult), = dominant_data(p, None, prec=prec).roots
        with mp.workprec(4 * prec):
            assert mult == 5 and abs(mpmath.mpc(v) - mpmath.mpf(1) / 2) <= mpmath.ldexp(1, -2 * prec)

    def test_multiplicity_sum_is_h(self):
        rng = random.Random(47)
        for _ in range(20):
            p = random_series(rng, 2, 8, nonzero=True, min_degree=1)
            if (0, 0) in p.terms:
                continue
            dd = dominant_data(p, None)
            assert sum(m for _, m in dd.roots) == dd.h

    def test_dominant_term_claim(self):
        rng = random.Random(53)
        checked = 0
        while checked < 20:
            p = random_series(rng, 2, 8, nonzero=True, min_degree=1, max_terms=6)
            if (0, 0) in p.terms or p.is_zero:
                continue
            dd = dominant_data(p, None)
            xi = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            if dd.H.eval_at((Fraction(1), xi)) == 0:
                continue
            assert v_ell(blowup(p, xi), dd.completed_order) == (0, dd.h)
            checked += 1

    def test_three_variable_slice(self):
        # P = x3 * (x1*x2) + x3^2 * (anything): the x3-minimal slice rules
        p = TS(3, 8, {(1, 1, 1): 1, (0, 0, 2): 5, (2, 0, 2): -1})
        base = MonomialOrder((1,))
        dd = dominant_data(p, base)
        assert dd.a == (1,)
        assert dd.h == 2
        assert dd.H.terms == {(1, 1): 1}
        assert dd.completed_order.weights[2:] == base.weights
        # completed weights keep the dominant exponent minimal off the roots
        xi = Fraction(3, 2)
        assert v_ell(blowup(p, xi), dd.completed_order) == (0, 2, 1)

    def test_base_order_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            dominant_data(TS(2, 6, {(1, 1): 1}), MonomialOrder((1,)))
        with pytest.raises(DimensionMismatchError):
            dominant_data(TS(3, 6, {(1, 1, 1): 1}), None)


class TestPolyRoots:
    # _poly_roots runs Durand-Kerner on the Gaussian-integer kernel; the
    # oracle is mpmath.polyroots at twice the precision
    PREC = 128

    @staticmethod
    def denominators():
        euler = borel_transform(euler_borel_series(48), 1).coeffs
        with mp.workprec(128):
            poles = ((mpmath.mpc(1.5, 1.0), 2), (mpmath.mpc(-2, 0.5), -1),
                     (mpmath.mpc(0.3, -0.9), 0.5))
            rational = [sum(r * p ** (-n) for p, r in poles) for n in range(32)]
        return [list(build_approximant(c).den) for c in (euler, rational)]

    def test_roots_match_polyroots_oracle(self):
        # each root within cond(p) 2^(4 - prec) of the oracle's, where
        # cond(p) = sum |d_j| |p|^j / |D'(p)| is the root's absolute
        # condition number under relative coefficient perturbations, and
        # with the multiplicity the oracle's roots give
        for den in self.denominators():
            roots = transforms._poly_roots(den, self.PREC)
            with mp.workprec(2 * self.PREC):
                oracle = mpmath.polyroots(den[::-1], maxsteps=200, extraprec=2 * self.PREC)
                radius = mpmath.mpf(2) ** -(self.PREC // 4)
                deriv = [j * c for j, c in enumerate(den)][:0:-1]
                assert sum(m for _, m in roots) == len(oracle)
                for v, m in roots:
                    near = [z for z in oracle if abs(z - v) <= radius * max(1, abs(v))]
                    assert len(near) == m
                    size = sum(abs(c) * abs(v) ** j for j, c in enumerate(den))
                    cond = size / abs(mpmath.polyval(deriv, v))
                    err = min(abs(z - v) for z in oracle)
                    assert err <= cond * mpmath.ldexp(1, 4 - self.PREC)

    def test_power_of_two_scaling_keeps_roots(self):
        # the float64 seeds come from coefficients scaled by a power of two,
        # so a denominator far beyond float64 range roots exactly the same
        den = self.denominators()[1]
        with mp.workprec(4 * self.PREC):  # wide enough to scale exactly
            scaled = [c * mpmath.mpf(2) ** 1100 for c in den]
        assert transforms._poly_roots(scaled, self.PREC) == transforms._poly_roots(den, self.PREC)

    def test_multiple_roots_merge_beside_simple_ones(self):
        # (z + 1)^7 (z - 1/2) (z + 3) (z - 1 - i) with exact QQi coefficients:
        # the stalled iterates of the sevenfold root merge into one root,
        # and the simple roots stay apart, listed by modulus
        poly = [QQi(1)]
        for r in [QQi(-1)] * 7 + [QQi(Fraction(1, 2)), QQi(-3), QQi(1, 1)]:
            poly = [a - r * b for a, b in zip([QQi(0)] + poly, poly + [QQi(0)])]
        roots = transforms._poly_roots(poly, self.PREC)
        assert [m for _, m in roots] == [1, 7, 1, 1]
        with mp.workprec(2 * self.PREC):
            for (v, _), z in zip(roots, (0.5, -1, 1 + 1j, -3)):
                assert abs(mpmath.mpc(v) - z) <= mpmath.ldexp(1, -self.PREC)

    @pytest.mark.parametrize("poly, exact", [
        # roots (re + i im) / sqrt 8: +-i / sqrt 2 and (+-1 +- i) / sqrt 8
        ([1, 0, 2], [(0, s) for s in (-2, 2)]),
        ([1, 0, 0, 0, 16], [(s, t) for s in (-1, 1) for t in (-1, 1)]),
    ])
    def test_zero_coefficients(self, poly, exact):
        # zero coefficients are left out of the lower bound on the roots that
        # places the sweeps' exponent; counted, it came out nan, the sweeps
        # ran on integers and 1 + 2 z^2 had a double root at 0
        roots = transforms._poly_roots(poly, self.PREC)
        assert [m for _, m in roots] == [1] * len(exact)
        with mp.workprec(2 * self.PREC):
            exact = [mpmath.mpc(re, im) / mpmath.sqrt(8) for re, im in exact]
            for v, _ in roots:
                err = min(abs(mpmath.mpc(v) - r) for r in exact)
                assert err <= mpmath.ldexp(1, -self.PREC)

    @pytest.mark.parametrize("scale", [-20, 300])
    def test_far_roots_hold_their_precision(self, scale):
        # the sweeps run in fixed point on one exponent, placed by the
        # smallest seed: roots 2^scale (j + (j - 2) i/3)/4, j = 1..10, far
        # below 1 (placed at the kernel width alone, the ten roots at 2^-20
        # came out within 2^-80 of their values, relative: each seed below 1
        # adds bits for the polynomial's shrinking values) or far above
        # 2^(2 prec + 10) (the exponent stops at 0)
        exact = [QQi(Fraction(j, 4), Fraction(j - 2, 12)) * Fraction(2) ** scale
                 for j in range(1, 11)]
        poly = [QQi(1)]
        for r in exact:
            poly = [a - r * b for a, b in zip([QQi(0)] + poly, poly + [QQi(0)])]
        roots = transforms._poly_roots(poly, self.PREC)
        assert [m for _, m in roots] == [1] * 10
        with mp.workprec(2 * self.PREC):
            for (v, _), r in zip(roots, exact):
                r = to_mpc(r)
                assert abs(mpmath.mpc(v) - r) <= abs(r) * mpmath.ldexp(1, -self.PREC)
