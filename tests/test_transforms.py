import random
from fractions import Fraction
from unittest import mock
from math import comb, factorial

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from germsum import transforms
from germsum.borel import borel_transform, build_approximant
from germsum.errors import DimensionMismatchError, ZeroGermError
from germsum.scalars import QQi, gi_from_mpc, gi_to_mpc, gi_width, to_mpc
from germsum.series import MonomialOrder, TruncatedSeries, v_ell
from germsum.transforms import (INFINITY, blowup, chart_shift,
                                dominant_data, ramify, rotation_average)

from helpers import euler_borel_series, random_series, sweep_all_durand_kerner

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

    @pytest.mark.parametrize("k", [1, 0, -2, 2.0])
    def test_order_below_two_refused(self, k):
        with pytest.raises(ValueError, match="rotation order must be an integer >= 2"):
            rotation_average(TS(2, 8, {(2, 0): 1}), k)

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

    def test_small_distinct_roots_stay_apart(self):
        # x2^2 + 2^-39 x1 x2 - 3 2^-80 x1^2 = (x2 - 2^-40 x1)(x2 + 3 2^-40 x1):
        # the merge radius is relative to |z|, so roots far below 1 merge only
        # when they are close relative to their size (an absolute radius
        # 2^-32 returned one double root at -2^-40)
        dd = dominant_data(TS(2, 4, {(0, 2): 1, (1, 1): Fraction(1, 2 ** 39),
                                     (2, 0): Fraction(-3, 2 ** 80)}), None)
        assert [m for _, m in dd.roots] == [1, 1]
        with mp.workprec(256):
            for (v, _), r in zip(dd.roots, (1, -3)):
                assert abs(mpmath.mpc(v) - mpmath.ldexp(r, -40)) <= mpmath.ldexp(1, -40 - 128)

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

    def test_zero_germ_refused(self):
        with pytest.raises(ZeroGermError, match="nonzero germ"):
            dominant_data(TS.zero(2, 6), None)

    def test_base_order_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            dominant_data(TS(2, 6, {(1, 1): 1}), MonomialOrder((1,)))
        with pytest.raises(DimensionMismatchError):
            dominant_data(TS(3, 6, {(1, 1, 1): 1}), None)


def kernel_roots(poly, prec):
    """``_poly_roots`` of scalar coefficients lifted as ``dominant_data``
    lifts them, the roots read through ``gi_to_mpc``."""
    w = gi_width(prec)
    with mp.workprec(w):
        lifted = [gi_from_mpc(c, w) for c in poly]
    return [(gi_to_mpc(z), m) for z, m in transforms._poly_roots(lifted, prec)]


class TestPolyRoots:
    # _poly_roots runs Durand-Kerner on the Gaussian-integer kernel; the
    # oracle is mpmath.polyroots at twice the precision
    PREC = 128

    @staticmethod
    def denominators(prec=PREC):
        euler48, euler40 = (borel_transform(euler_borel_series(n), 1, prec=prec).coeffs
                            for n in (48, 40))
        with mp.workprec(128):
            poles = ((mpmath.mpc(1.5, 1.0), 2), (mpmath.mpc(-2, 0.5), -1),
                     (mpmath.mpc(0.3, -0.9), 0.5))
            rational = [sum(r * p ** (-n) for p, r in poles) for n in range(32)]
        return [list(build_approximant(c, prec=prec).den) for c in (euler48, rational, euler40)]

    def test_roots_match_polyroots_oracle(self):
        # each root within cond(p) 2^(4 - prec) of the oracle's, where
        # cond(p) = sum |d_j| |p|^j / |D'(p)| is the root's absolute
        # condition number under relative coefficient perturbations, and
        # with the multiplicity the oracle's roots give; the sweeps hand
        # over from the narrow width to the full one at a different point
        # on each denominator and precision
        for prec in (128, 256):
            for den in self.denominators(prec):
                roots = [(gi_to_mpc(v), m) for v, m in transforms._poly_roots(den, prec)]
                den = [gi_to_mpc(c) for c in den]
                with mp.workprec(2 * prec):
                    oracle = mpmath.polyroots(den[::-1], maxsteps=200, extraprec=2 * prec)
                    radius = mpmath.mpf(2) ** -(prec // 4)
                    deriv = [j * c for j, c in enumerate(den)][:0:-1]
                    assert sum(m for _, m in roots) == len(oracle)
                    for v, m in roots:
                        near = [z for z in oracle if abs(z - v) <= radius * abs(v)]
                        assert len(near) == m
                        size = sum(abs(c) * abs(v) ** j for j, c in enumerate(den))
                        cond = size / abs(mpmath.polyval(deriv, v))
                        err = min(abs(z - v) for z in oracle)
                        assert err <= cond * mpmath.ldexp(1, 4 - prec)

    def test_power_of_two_scaling_keeps_roots(self):
        # the float64 seeds come from coefficients scaled by a power of two,
        # so a denominator far beyond float64 range roots exactly the same
        den = [gi_to_mpc(c) for c in self.denominators()[1]]
        with mp.workprec(4 * self.PREC):  # wide enough to scale exactly
            scaled = [c * mpmath.mpf(2) ** 1100 for c in den]
        assert kernel_roots(scaled, self.PREC) == kernel_roots(den, self.PREC)

    @pytest.mark.parametrize("prec", [128, 256])
    def test_multiple_roots_merge_beside_simple_ones(self, prec):
        # (z + 1)^7 (z - 1/2) (z + 3) (z - 1 - i) with exact QQi coefficients:
        # the stalled iterates of the sevenfold root merge into one root,
        # and the simple roots stay apart, listed by modulus.  At 256 bits
        # the iterates lie about 2^-75 apart, inside the radius 2^-64 but
        # below the rounding of float64 moduli near 1, which a merge window
        # on those moduli would take for a gap
        poly = [QQi(1)]
        for r in [QQi(-1)] * 7 + [QQi(Fraction(1, 2)), QQi(-3), QQi(1, 1)]:
            poly = [a - r * b for a, b in zip([QQi(0)] + poly, poly + [QQi(0)])]
        roots = kernel_roots(poly, prec)
        assert [m for _, m in roots] == [1, 7, 1, 1]
        with mp.workprec(2 * prec):
            for (v, _), z in zip(roots, (0.5, -1, 1 + 1j, -3)):
                assert abs(mpmath.mpc(v) - z) <= mpmath.ldexp(1, -prec)

    def test_small_roots_merge_by_their_size(self):
        # roots 2^-40 and (-3/2 + i) 2^-40 are 2^-40 apart, below the radius
        # 2^-32 in absolute terms but far apart relative to their size: two
        # simple roots (an absolute radius merged them into one double root
        # at their mean)
        exact = [QQi(Fraction(1, 2 ** 40)), QQi(Fraction(-3, 2 ** 41), Fraction(1, 2 ** 40))]
        poly = [exact[0] * exact[1], -(exact[0] + exact[1]), QQi(1)]
        roots = kernel_roots(poly, self.PREC)
        assert [m for _, m in roots] == [1, 1]
        with mp.workprec(2 * self.PREC):
            for (v, _), r in zip(roots, exact):
                r = to_mpc(r)
                assert abs(mpmath.mpc(v) - r) <= abs(r) * mpmath.ldexp(1, -self.PREC)

    @pytest.mark.parametrize("poly, exact", [
        # roots (re + i im) / sqrt 8: +-i / sqrt 2 and (+-1 +- i) / sqrt 8
        ([1, 0, 2], [(0, s) for s in (-2, 2)]),
        ([1, 0, 0, 0, 16], [(s, t) for s in (-1, 1) for t in (-1, 1)]),
    ])
    def test_zero_coefficients(self, poly, exact):
        # zero coefficients are left out of the lower bound on the roots that
        # places the sweeps' exponent; counted, it came out nan, the sweeps
        # ran on integers and 1 + 2 z^2 had a double root at 0
        roots = kernel_roots(poly, self.PREC)
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
        roots = kernel_roots(poly, self.PREC)
        assert [m for _, m in roots] == [1] * 10
        with mp.workprec(2 * self.PREC):
            for (v, _), r in zip(roots, exact):
                r = to_mpc(r)
                assert abs(mpmath.mpc(v) - r) <= abs(r) * mpmath.ldexp(1, -self.PREC)


def poly_with_roots(roots):
    """Exact coefficients, lowest first, of the monic polynomial with these roots."""
    poly = [QQi(1)]
    for r in roots:
        poly = [a - r * b for a, b in zip([QQi(0)] + poly, poly + [QQi(0)])]
    return poly


@st.composite
def clustered_polys(draw):
    """(exact QQi coefficients lowest first, prec): a root of multiplicity
    2-7 and 1-5 simple roots, distinct Gaussian rationals (quarters) of
    modulus 1/2-2, and a precision of 64, 128 or 256 bits.

    Seven at most: an m-fold root's iterates stall about 2^(-(2 prec + 10)/m)
    apart, which for m = 8 lies 1.25 bits inside the merge radius
    2^-(prec/4) of ``_poly_roots`` before the polynomial's scale is counted,
    so whether an 8-fold root merges depends on where each iteration's
    stalled iterates end (``test_eightfold_root_matches`` takes two that
    merge)."""
    quarter = st.tuples(st.integers(-8, 8), st.integers(-8, 8)).filter(
        lambda p: 4 <= p[0] ** 2 + p[1] ** 2 <= 64)
    parts = draw(st.lists(quarter, min_size=2, max_size=6, unique=True))
    roots = [QQi(Fraction(re, 4), Fraction(im, 4)) for re, im in parts]
    roots += [roots[0]] * (draw(st.integers(2, 7)) - 1)
    return poly_with_roots(roots), draw(st.sampled_from((64, 128, 256)))


def assert_roots_match_sweeps_of_every_root(poly, prec):
    """``_poly_roots`` of the exact coefficients, merged clusters included,
    within 2^(-31 - prec) max(1, |z|) of what it gives with the
    Durand-Kerner iteration that sweeps every root to the target."""
    w = gi_width(prec)
    with mp.workprec(w):
        lifted = [gi_from_mpc(c, w) for c in poly]
    roots = transforms._poly_roots(lifted, prec)
    with mock.patch.object(transforms, "_durand_kerner", sweep_all_durand_kerner):
        reference = transforms._poly_roots(lifted, prec)
    assert sorted(m for _, m in roots) == sorted(m for _, m in reference)
    with mp.workprec(2 * w):
        for v, m in roots:
            v = gi_to_mpc(v)
            near = min(abs(v - gi_to_mpc(z)) for z, n in reference if n == m)
            assert near <= mpmath.ldexp(1, -31 - prec) * max(1, abs(v))


class TestMovingRootSweeps:
    # Durand-Kerner sweeps only the roots still moving in its narrow phase
    # and stops its wide one on a contracting tail: each root it returns,
    # merged clusters included, lies within 2^(-31 - prec) max(1, |z|) of
    # the one the iteration that sweeps every root to the target gives
    @settings(max_examples=20, deadline=None)
    @given(data=clustered_polys())
    def test_roots_match_the_sweeps_of_every_root(self, data):
        assert_roots_match_sweeps_of_every_root(*data)

    @pytest.mark.parametrize("prec", [64, 128])
    def test_eightfold_root_matches(self, prec):
        # (z + 1)^8 (z - 1/2) (z + 3) (z - 1 - i): the eightfold root merges
        # in both iterations at 64 and 128 bits
        poly = poly_with_roots([QQi(-1)] * 8 + [QQi(Fraction(1, 2)), QQi(-3), QQi(1, 1)])
        assert_roots_match_sweeps_of_every_root(poly, prec)

    def test_sevenfold_root_merges_at_64_bits(self):
        # (z - 3/4 + i)^7 (z - 3/4): the wide sweeps run out on the stalled
        # sevenfold root, and the last one kicked an iterate past the merge
        # radius, so it came back as multiplicities 1, 1 and 6; the iterates
        # kept are those after the sweep of smallest largest move
        poly = poly_with_roots([QQi(Fraction(3, 4), -1)] * 7 + [QQi(Fraction(3, 4))])
        roots = kernel_roots(poly, 64)
        assert [m for _, m in roots] == [1, 7]
        with mp.workprec(128):
            for (v, _), z in zip(roots, (0.75, 0.75 - 1j)):
                assert abs(mpmath.mpc(v) - z) <= mpmath.ldexp(1, -64)
        assert_roots_match_sweeps_of_every_root(poly, 64)

    def test_euler_denominators_match(self):
        # the Euler and rational denominators of TestPolyRoots, whose narrow
        # phase leaves most roots after a few sweeps
        for den in TestPolyRoots.denominators():
            roots = transforms._poly_roots(den, 128)
            with mock.patch.object(transforms, "_durand_kerner", sweep_all_durand_kerner):
                reference = transforms._poly_roots(den, 128)
            assert [m for _, m in roots] == [m for _, m in reference]
            with mp.workprec(512):
                for (v, _), (z, _) in zip(roots, reference):
                    v = gi_to_mpc(v)
                    assert abs(v - gi_to_mpc(z)) <= mpmath.ldexp(1, -159) * max(1, abs(v))
