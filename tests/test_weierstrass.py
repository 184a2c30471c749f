import itertools
import json
import random
import re
from fractions import Fraction
from math import factorial

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from germsum.errors import DimensionMismatchError, ZeroGermError
from germsum.scalars import (QQi, is_exact, sabs, sadd, sdiv, smul, sneg, to_mpc,
                             working_prec)
from germsum.series import MonomialOrder, TruncatedSeries, _lift, series_to_json, substitute
from germsum import weierstrass
from germsum.weierstrass import (Germ, PExpansion, _Frame, _reduce, delta_member, p_expand,
                                 t_substitute, wdivide)

from helpers import (LAM, SHAPES, assert_near_reference, exact_coeffs, exact_germs,
                     exact_series, expansion_oracle, exponents, fixed_germs, mixed, mixed_germs,
                     points, random_series, ref_eval, ref_mass_expand, ref_mul, ref_order_key,
                     ref_p_expand, ref_substitute, ref_t_substitute, ref_wdivide)

TS = TruncatedSeries


def _valuation(x, base):
    """The largest k with base^k dividing the nonzero int x."""
    k = 0
    while x % base == 0:
        x //= base
        k += 1
    return k


@pytest.fixture
def cusp_germ():
    p = TS(2, 12, {(0, 2): 1, (3, 0): -1})
    return Germ(p, MonomialOrder((1, 2)))


@pytest.fixture
def mono_germ():
    return Germ(TS(2, 12, {(1, 1): 1}), MonomialOrder((1, 1)))


class TestGerm:
    def test_lead_data(self, cusp_germ):
        assert cusp_germ.lead_exp == (3, 0)
        assert cusp_germ.lead_coeff == Fraction(-1)

    def test_rejects_zero(self):
        with pytest.raises(ZeroGermError):
            Germ(TS.zero(2, 5), MonomialOrder((1, 1)))

    def test_order_dimension_checked(self):
        with pytest.raises(DimensionMismatchError,
                           match="order has 3 weights, germ has 2 variables"):
            Germ(TS(2, 5, {(1, 1): 1}), MonomialOrder((1, 1, 1)))

    def test_rejects_unit(self):
        with pytest.raises(ZeroGermError):
            Germ(TS(2, 5, {(0, 0): 1, (1, 0): 1}), MonomialOrder((1, 1)))


class TestDeltaMember:
    @pytest.mark.parametrize("e", [(1,), (1, 0, 0)])
    def test_exponent_length_checked(self, cusp_germ, e):
        with pytest.raises(DimensionMismatchError, match=f"exponent length {len(e)}, expected 2"):
            delta_member(e, cusp_germ)

    def test_below_cone(self, cusp_germ):
        assert delta_member((2, 0), cusp_germ)

    def test_in_cone(self, cusp_germ):
        assert not delta_member((3, 5), cusp_germ)

    def test_monomial_cone(self, mono_germ):
        assert not delta_member((1, 1), mono_germ)
        assert delta_member((1, 0), mono_germ)
        assert delta_member((0, 5), mono_germ)


class TestWdivide:
    def test_single_cancellation(self, cusp_germ):
        res = wdivide(TS(2, 10, {(3, 0): 1}), cusp_germ)
        assert res.q.terms == {(0, 0): -1}
        assert res.r.terms == {(0, 2): 1}

    def test_two_step(self, cusp_germ):
        res = wdivide(TS(2, 10, {(6, 0): 1}), cusp_germ)
        assert res.q.terms == {(3, 0): -1, (0, 2): -1}
        assert res.r.terms == {(0, 4): 1}
        # verify q*P + r = g by multiplication
        rec = res.q.with_trunc(10) * cusp_germ.p + res.r
        assert rec.agrees_with(TS(2, 10, {(6, 0): 1}), upto=10)

    def test_monomial_cone_split(self, mono_germ):
        g = TS(2, 10, {(2, 1): 1, (1, 0): 1, (0, 2): 1})
        res = wdivide(g, mono_germ)
        assert res.q.terms == {(1, 0): 1}
        assert res.r.terms == {(1, 0): 1, (0, 2): 1}

    @pytest.mark.parametrize("c", [Fraction(1, 3), QQi(1, 2), mpmath.mpc(0.5, 0.25)])
    def test_lead_degree_above_trunc(self, cusp_germ, c):
        # the lead monomial's degree exceeds the truncation, so no term lies in
        # the cone and the quotient certifies no order
        g = TS(2, 1, {(0, 0): c, (0, 1): 2})
        res = wdivide(g, cusp_germ)
        assert res.r == g
        assert res.q.is_zero and res.q.trunc == -1

    def test_trunc_contract(self, cusp_germ):
        res = wdivide(TS(2, 9, {(3, 0): 1}), cusp_germ)
        assert res.q.trunc == 6 and res.r.trunc == 9

    def test_dim_mismatch(self, cusp_germ):
        with pytest.raises(DimensionMismatchError):
            wdivide(TS(3, 5, {}), cusp_germ)

    def test_determinism_under_term_order(self):
        rng = random.Random(5)
        for _, p, order in fixed_germs(2, 12):
            germ = Germ(p, order)
            for _ in range(10):
                g = random_series(rng, 2, 12, complex_coeffs=True)
                res = wdivide(g, germ)
                items = list(g.terms.items())
                rng.shuffle(items)
                res2 = wdivide(TS(2, 12, dict(items)), germ)
                assert json.dumps(series_to_json(res.q)) == json.dumps(series_to_json(res2.q))
                assert json.dumps(series_to_json(res.r)) == json.dumps(series_to_json(res2.r))

    def test_linearity(self):
        rng = random.Random(13)
        for _, p, order in fixed_germs(2, 10):
            germ = Germ(p, order)
            for _ in range(8):
                g1 = random_series(rng, 2, 10)
                g2 = random_series(rng, 2, 10)
                al, be = Fraction(3, 2), Fraction(-2, 5)
                lhs = wdivide(g1 * al + g2 * be, germ)
                r1, r2 = wdivide(g1, germ), wdivide(g2, germ)
                assert lhs.q == r1.q * al + r2.q * be
                assert lhs.r == r1.r * al + r2.r * be

    def test_delta_support(self):
        rng = random.Random(17)
        for _, p, order in fixed_germs(2, 12):
            germ = Germ(p, order)
            for _ in range(10):
                g = random_series(rng, 2, 12)
                res = wdivide(g, germ)
                assert all(delta_member(e, germ) for e in res.r.terms)


class TestIntegerKernel:
    """int/Fraction data (the integer lift) and QQi data against the exact
    term-by-term reference of tests/helpers.py."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_wdivide_matches_reference(self, data):
        dim, trunc = data.draw(st.sampled_from(SHAPES))
        qqi = data.draw(st.booleans())
        germ = data.draw(exact_germs(dim, trunc, qqi=qqi))
        g = data.draw(exact_series(dim, trunc, qqi=qqi, max_terms=30))
        key = ref_order_key(germ.order.weights, germ.order.tiebreak)
        assert germ.lead_exp == min(germ.p.terms, key=key)
        quot, rem = ref_wdivide(g.terms, germ.p.terms, key, trunc)
        res = wdivide(g, germ)
        assert res.q.terms == quot
        assert res.r.terms == rem

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_p_expand_matches_reference(self, data):
        dim, trunc = data.draw(st.sampled_from(SHAPES))
        qqi = data.draw(st.booleans())
        germ = data.draw(exact_germs(dim, trunc, qqi=qqi))
        f = data.draw(exact_series(dim, trunc, qqi=qqi, max_terms=30))
        depth = data.draw(st.integers(0, trunc + 2))
        key = ref_order_key(germ.order.weights, germ.order.tiebreak)
        expansion = p_expand(f, germ, depth)
        ref = ref_p_expand(f.terms, germ.p.terms, key, trunc, depth)
        assert [(g.trunc, g.terms) for g in expansion.coeffs] == ref

    def test_older_generation_meets_newer(self):
        """A cancellation adds to a remainder term that a later cancellation made (L = 15,
        P scaled to integers): over the one shared denominator the two add as they are."""
        p = TS(2, 8, {(2, 0): Fraction(5, 2), (1, 1): -3, (2, 1): Fraction(5, 3)})
        germ = Germ(p, MonomialOrder((1, 3), "revlex"))
        g = TS(2, 8, {(0, 0): Fraction(-1, 5), (3, 0): Fraction(6, 5), (5, 1): -7,
                      (7, 1): 6, (6, 2): -8, (0, 7): Fraction(-8, 5)})
        key = ref_order_key((1, 3), "revlex")
        quot, rem = ref_wdivide(g.terms, p.terms, key, 8)
        res = wdivide(g, germ)
        assert (res.q.terms, res.r.terms) == (quot, rem)
        for depth in range(1, 5):
            ref = ref_p_expand(g.terms, p.terms, key, 8, depth)
            assert [(c.trunc, c.terms) for c in p_expand(g, germ, depth).coeffs] == ref

    @staticmethod
    def rescale_case(dim, trunc, depth, n_terms):
        """A germ whose integer lead L = -7 (d = 2) or -5 (d = 3), P scaled to integer
        coefficients, is prime to the other coefficients of the scaled P and to its
        denominator, the coefficient of t, and a series g of n_terms Fraction terms,
        over denominators 1..4, with a fixed seed."""
        p = ({(1, 1): Fraction(-7, 2), (3, 0): Fraction(3, 2), (0, 3): 5, (2, 1): Fraction(1, 2)}
             if dim == 2 else
             {(1, 0, 0): Fraction(-5, 3), (0, 2, 0): 2, (0, 1, 1): Fraction(7, 3), (1, 0, 2): 1})
        rng = random.Random(dim * trunc)
        window = [e for e in itertools.product(range(trunc + 1), repeat=dim) if sum(e) <= trunc]
        g = TS(dim, trunc, {e: Fraction(rng.choice((-9, -7, -4, -2, -1, 1, 2, 3, 5, 8)),
                                        rng.randint(1, 4))
                            for e in rng.sample(window, n_terms)})
        germ = Germ(TS(dim, trunc, p), MonomialOrder((1,) * dim))
        return germ, g, depth, _lift(germ.p.terms, True)[0][germ.lead_exp]

    RESCALE_CASES = [(2, 5, 2, 4), (2, 24, 11, 60), (3, 14, 12, 40)]

    @pytest.mark.parametrize("case", RESCALE_CASES)
    def test_shared_denominator_doubles(self, case):
        """Every remainder term is a numerator over D = den_g * L^J, where J + 1 is a
        power of two (rescales by L, L^2, L^4, ...); on these data J is also below
        twice the largest power of L that a remainder coefficient needs."""
        germ, g, depth, big_l = self.rescale_case(*case)
        rem, den = _reduce(_Frame(germ, g.trunc, depth), g.terms, germ, True)
        den_g = _lift(g.terms, True)[1]
        j = _valuation(den // den_g, big_l)
        assert den == den_g * big_l ** j
        need = max(_valuation(Fraction(n, den).denominator, big_l) for n in rem.values())
        assert j + 1 & j == 0 and need <= j < 2 * need

    @pytest.mark.parametrize("case", RESCALE_CASES)
    def test_rescaled_elimination_matches_reference(self, case):
        """The division and every level equal the reference in terms, coefficient types
        and truncation; at depths 11 and 12 the levels' denominators need L^8 and more,
        so the shared denominator is rescaled at least four times (L, L^2, L^4, L^8)."""
        germ, g, depth, big_l = self.rescale_case(*case)
        key = ref_order_key(germ.order.weights, germ.order.tiebreak)
        assert germ.lead_exp == min(germ.p.terms, key=key)

        def typed(levels):
            return [(tr, {e: (type(c), c) for e, c in terms.items()}) for tr, terms in levels]

        quot, rem = ref_wdivide(g.terms, germ.p.terms, key, g.trunc)
        res = wdivide(g, germ)
        assert typed([(res.q.trunc, res.q.terms), (res.r.trunc, res.r.terms)]) == typed(
            [(max(g.trunc - germ.lead_degree, -1), quot), (g.trunc, rem)])
        coeffs = p_expand(g, germ, depth).coeffs
        assert typed((c.trunc, c.terms) for c in coeffs) == typed(
            ref_p_expand(g.terms, germ.p.terms, key, g.trunc, depth))
        if depth > 10:
            assert max(_valuation(c.denominator, big_l)
                       for level in coeffs for c in level.terms.values()) >= 8


def test_float_path_matches_funnel_reference():
    """mpc data on the series kernel: *, substitute, wdivide and p_expand agree
    with the reference run on sadd/smul/sdiv/sneg (a germ-sum style scaled
    input) within the tolerance of ``assert_near_reference``.  f is divisible
    by P, so its remainder is 0: the float division drops the round-off that
    the reference keeps.  An off-cone summand h cancels nothing, so the
    remainder of f + h keeps every term of h, at the reference's values."""
    depth, a = 8, Fraction(-1, 2)
    trunc = 2 * (depth - 1)
    p = TS(2, trunc, {(2, 0): 1, (1, 1): Fraction(3, 4), (0, 2): Fraction(-3, 4)})
    f = TS.zero(2, trunc)
    for m in range(depth - 1):
        f = f + p ** (m + 1) * (factorial(m) * a ** m)
    with mpmath.mp.workprec(128):
        lam = mpmath.mpc(mpmath.mpf(9) / 10, mpmath.mpf(-1) / 7)
    images = [TS(2, trunc, {(1, 0): lam}), TS(2, trunc, {(0, 1): lam})]

    def ref_sub(g):
        out = substitute(g, images)
        ref = ref_substitute(g.terms, [im.terms for im in images], out.trunc, sadd, smul)
        assert_near_reference([out], [TS(2, out.trunc, ref)])
        return out

    fs, ps = ref_sub(f), ref_sub(p)
    assert all(isinstance(c, mpmath.mpc) for c in fs.terms.values())
    assert_near_reference([fs * ps],
                          [TS(2, trunc, ref_mul(fs.terms, ps.terms, trunc, sadd, smul))])
    germ = Germ(ps, MonomialOrder((1, 1)))
    key = ref_order_key((1, 1), "lex")
    res = wdivide(fs, germ)
    quot, rem = ref_wdivide(fs.terms, ps.terms, key, trunc, sadd, smul, sdiv, sneg)
    assert_near_reference([res.q, res.r], [TS(2, res.q.trunc, quot), TS(2, trunc, rem)])
    assert len(res.q.terms) > 20 and res.r.is_zero
    ref = ref_p_expand(fs.terms, ps.terms, key, trunc, depth, sadd, smul, sdiv, sneg)
    assert_near_reference(p_expand(fs, germ, depth).coeffs, [TS(2, t, terms) for t, terms in ref])
    off_cone = [(i, j) for i in range(trunc + 1) for j in range(trunc + 1 - i)
                if delta_member((i, j), germ)]
    h = TS(2, trunc, {e: smul(Fraction(2 * n + 1, 3), lam) for n, e in enumerate(off_cone[::3])})
    assert len(h.terms) > 5
    res = wdivide(fs + h, germ)
    quot, rem = ref_wdivide((fs + h).terms, ps.terms, key, trunc, sadd, smul, sdiv, sneg)
    assert_near_reference([res.q, res.r], [TS(2, res.q.trunc, quot), TS(2, trunc, rem)])
    assert set(res.r.terms) == set(h.terms)


@pytest.mark.parametrize("lead_bits", [0, 20])
def test_float_expansion_matches_wide_precision(lead_bits):
    """A depth-24 germ-sum style input (f = sum m! a^m P^(m+1) scaled by lambda,
    round-off amplified by about (1 + 3/4 + 3/4)^24 in the division), expanded
    in powers of L P for L = 1 or 2^20; for L = 2^20 level n shrinks by L^-n.
    The float expansion has the exact support, g_0 = 0 and one constant per
    level n >= 1.  Each kept term times L^n lies within 2^(4 - prec) max|c|
    of the same call at 512 bits (cutting every term to prec + 32 bits of its
    own size, without g's grid, errs by 2^(5.7 - prec) max|c| here), and each
    value of specialize times L^n within 2^(16 - prec) max|v|.  A term absent
    at prec bits is round-off of the rounded input: its 512-bit value is at
    most 2^(16 - prec) of its mass, the same coefficient of the elimination
    run on magnitudes (``ref_mass_expand``)."""
    depth, a = 24, Fraction(-1, 2)
    trunc = 2 * (depth - 1)
    p = TS(2, trunc, {(2, 0): 1, (1, 1): Fraction(3, 4), (0, 2): Fraction(-3, 4)})
    f, p_pow = TS.zero(2, trunc), p
    for m in range(depth - 1):
        f = f + p_pow * (factorial(m) * a ** m)
        p_pow = p_pow * p
    with mpmath.mp.workprec(working_prec()):
        lam = mpmath.mpc(mpmath.mpf(9) / 10, mpmath.mpf(-1) / 7)
        x = (mpmath.mpc(0.15, 0.05), mpmath.mpc(-0.1, 0.1))
    images = [TS(2, trunc, {(1, 0): lam}), TS(2, trunc, {(0, 1): lam})]
    germ = Germ(substitute(p * 2 ** lead_bits, images), MonomialOrder((1, 1)))
    fs = substitute(f, images)
    expansion = p_expand(fs, germ, depth)
    assert [set(g.terms) for g in expansion.coeffs] == [set()] + [{(0, 0)}] * (depth - 1)
    values = expansion.specialize(x)
    masses = ref_mass_expand(fs.terms, germ.p.terms, ref_order_key((1, 1), "lex"), trunc, depth)
    with mpmath.mp.workprec(512):
        wide = p_expand(fs, germ, depth)
        wide_values = wide.specialize(x)

        def unscaled(levels):  # times L^n, exactly
            return [TS(2, g.trunc, {e: c * mpmath.ldexp(1, lead_bits * n)
                                    for e, c in g.terms.items()}) for n, g in enumerate(levels)]

        values = [v * mpmath.ldexp(1, lead_bits * n) for n, v in enumerate(values)]
        wide_values = [v * mpmath.ldexp(1, lead_bits * n) for n, v in enumerate(wide_values)]
        levels, wide_levels = unscaled(expansion.coeffs), unscaled(wide.coeffs)
    scale = max(sabs(c) for g in wide_levels for c in g.terms.values())
    tol = scale * mpmath.mpf(2) ** (4 - working_prec())
    cut = mpmath.mpf(2) ** (16 - working_prec())
    for g, w, raw, mass in zip(levels, wide_levels, wide.coeffs, masses, strict=True):
        for e in set(g.terms) | set(w.terms):
            if e in g.terms:
                assert sabs(sadd(g.coeff(e), sneg(w.coeff(e)))) <= tol
            else:
                assert sabs(raw.terms[e]) <= cut * mass[e], (e, raw.terms[e], mass[e])
    tol = max(sabs(v) for v in wide_values) * mpmath.mpf(2) ** (16 - working_prec())
    for v, w in zip(values, wide_values, strict=True):
        assert sabs(sadd(v, sneg(w))) <= tol


@pytest.mark.parametrize("depth", [8, 12])
def test_germ_sum_family_one_term_per_level(depth):
    """germ-sum's own family at small size: f = sum m! a^m P^(m+1) with
    P = x1^2 + c x1 x2 + beta x2^2, both under x -> lam x for an mpc lam, then
    expanded in powers of the scaled P.  Nearly every term the float elimination
    pops lies on g's grid and takes the plan built before the loop.  The
    expansion is g_0 = 0 and g_n = (n - 1)! a^(n - 1), one term per level, each
    within 2^(16 - prec) max(1, |g_n|)."""
    a, c, beta = Fraction(3, 4), Fraction(-1, 2), Fraction(3, 4)
    trunc = 2 * (depth - 1)
    p = TS(2, trunc, {(2, 0): 1, (1, 1): c, (0, 2): beta})
    f, p_pow = TS.zero(2, trunc), p
    for m in range(depth - 1):
        f = f + p_pow * (factorial(m) * a ** m)
        p_pow = p_pow * p
    with mpmath.mp.workprec(working_prec()):
        lam = mpmath.mpc(mpmath.mpf(11) / 10, mpmath.mpf(3) / 10)
    images = [TS(2, trunc, {(1, 0): lam}), TS(2, trunc, {(0, 1): lam})]
    germ = Germ(substitute(p, images), MonomialOrder((1, 1)))
    levels = p_expand(substitute(f, images), germ, depth).coeffs
    assert [set(g.terms) for g in levels] == [set()] + [{(0, 0)}] * (depth - 1)
    tol = mpmath.mpf(2) ** (16 - working_prec())
    for n, g in enumerate(levels[1:], 1):
        want = factorial(n - 1) * a ** (n - 1)
        assert sabs(sadd(g.terms[(0, 0)], sneg(want))) <= tol * max(1, abs(want)), n


@pytest.mark.parametrize("prec", [128, 256])
def test_float_residual_after_grid_products_kept(prec):
    """x1^8 - (1 - eps) x2^8 with eps = 2^(19 - prec), expanded in powers of
    x1 + x2 on mpc data.  Its remainder eps x2^8 is what the input leaves of the
    term (-x2)^8 that x1^8 reaches in eight products by -x2, each on g's grid, so
    its mass is 1 + (1 - eps) and it is 4 times the cut 2^(16 - prec) of that mass:
    the term is kept.  The data are dyadic, so the float expansion equals the
    exact one."""
    depth, eps = 9, Fraction(1, 2 ** (prec - 19))
    p = {(1, 0): 1, (0, 1): 1}
    f = {(8, 0): 1, (0, 8): eps - 1}
    with mpmath.mp.workprec(prec):
        germ = Germ(TS(2, 8, {e: to_mpc(c) for e, c in p.items()}), MonomialOrder((1, 1)))
        floats = p_expand(TS(2, 8, {e: to_mpc(c) for e, c in f.items()}), germ, depth).coeffs
    exact = p_expand(TS(2, 8, f), Germ(TS(2, 8, p), MonomialOrder((1, 1))), depth).coeffs
    assert exact[0].terms == {(0, 8): eps}
    assert all(isinstance(c, mpmath.mpc) for g in floats for c in g.terms.values())
    assert floats == exact


def test_float_mass_overflow_keeps_term(monkeypatch):
    """{1: 1e-200, x1^2 x2: 1e200, x1^3 x2^2: 1 + 2i} on mpc data, expanded to depth
    4 in x1^2 + x1 x2/3 + x2^2 at 128 bits.  g's grid keeps 1e-200 at prec + 32
    bits, so the mass of x1^2 x2 overflows the float range (``weierstrass._mass``
    returns inf): that term and what it leaves are never judged as noise, and
    the levels it reaches keep it at the reference's value.  Every other term,
    1 + 2i's descendants too, matches the reference to 2^(16 - prec) of its own
    size, beside the tolerance of ``assert_near_reference``."""
    masses = []
    mass = weierstrass._mass
    monkeypatch.setattr(weierstrass, "_mass", lambda *args: masses.append(mass(*args)) or masses[-1])
    key = ref_order_key((1, 1), "lex")
    with mpmath.mp.workprec(128):
        f = TS(2, 8, {(0, 0): mpmath.mpc(1e-200), (2, 1): mpmath.mpc(1e200),
                      (3, 2): mpmath.mpc(1, 2)})
        p = TS(2, 8, {(2, 0): 1, (1, 1): Fraction(1, 3), (0, 2): 1})
        levels = p_expand(f, Germ(p, MonomialOrder((1, 1))), 4).coeffs
        ref = [TS(2, t, terms) for t, terms in
               ref_p_expand(f.terms, p.terms, key, 8, 4, sadd, smul, sdiv, sneg)]
        assert masses.count(mpmath.inf) == 1
        assert abs(levels[1].terms[(0, 1)] - mpmath.mpf(1e200)) <= mpmath.mpf(1e200) * 2.0 ** -120
        assert_near_reference(levels, ref)
        assert [set(g.terms) for g in levels] == [set(r.terms) for r in ref]
        for g, r in zip(levels, ref):
            for e, c in r.terms.items():
                assert sabs(sadd(g.terms[e], sneg(c))) <= sabs(c) * mpmath.mpf(2) ** (16 - 128), e


def test_mixed_expansion_holds_working_precision():
    """A dense series of truncation 24 with about 15 % of its coefficients turned
    into mpc (times lam), expanded in powers of x2^2 - x1^3 + x1 x2/3 to depth 8.
    Mixed data run the generic pass at prec + 32 bits and round each output once,
    so every coefficient lies within 2^-prec max|c| of the same call at 512 bits,
    the maximum taken over its level.  Without the 32 guard bits it errs by
    2^(1.7 - prec) here."""
    rng = random.Random(2)
    trunc, depth = 24, 8
    prec = working_prec()
    with mpmath.mp.workprec(prec):
        lam = mpmath.mpc(mpmath.mpf(9) / 10, mpmath.mpf(-1) / 7)
    terms = {}
    for i in range(trunc + 1):
        for j in range(trunc + 1 - i):
            c = Fraction(rng.randint(-40, 40) or 1, rng.choice((1, 7, 11, 13)))
            terms[(i, j)] = smul(c, lam) if rng.random() < 0.15 else c
    f = TS(2, trunc, terms)
    germ = Germ(TS(2, trunc, {(0, 2): 1, (3, 0): -1, (1, 1): Fraction(1, 3)}),
                MonomialOrder((2, 3)))
    levels = p_expand(f, germ, depth).coeffs
    values = [c for g in levels for c in g.terms.values()]
    assert any(is_exact(c) for c in values) and not all(is_exact(c) for c in values)
    with mpmath.mp.workprec(512):
        wide = p_expand(f, germ, depth).coeffs
        for g, w in zip(levels, wide, strict=True):
            tol = max((sabs(c) for c in w.terms.values()), default=0) * mpmath.mpf(2) ** -prec
            for e in set(g.terms) | set(w.terms):
                assert sabs(sadd(g.coeff(e), sneg(w.coeff(e)))) <= tol, (e, g.coeff(e))


@st.composite
def float_germ_sums(draw, prec):
    """(g, germ, depth, planted exponent, planted value) at ``prec`` bits: a germ
    x1^2 + c x1 x2 + beta x2^2 with random complex c and beta != 0, and
    g = u f + delta x^e, f = sum_(m < depth-1) m! a^m P^(m+1) (divisible by P),
    u a random unit and delta x^e off the cone, 2^-60 of g's largest term."""
    def scalar(nonzero=False):
        re = draw(st.integers(-9, 9))
        im = draw(st.integers(-9, 9).filter(lambda k: k or re or not nonzero))
        return mpmath.mpc(mpmath.mpf(re) / draw(st.sampled_from((7, 11, 13))),
                          mpmath.mpf(im) / draw(st.sampled_from((7, 11, 13))))

    depth = draw(st.integers(2, 5))
    trunc = 2 * depth
    a = draw(st.sampled_from((Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), -1)))
    with mpmath.mp.workprec(prec):
        germ = Germ(TS(2, trunc, {(2, 0): mpmath.mpc(1), (1, 1): scalar(),
                                  (0, 2): scalar(nonzero=True)}), MonomialOrder((1, 1)))
        f, p_pow = TS.zero(2, trunc), germ.p
        for m in range(depth - 1):
            f = f + p_pow * to_mpc(factorial(m) * a ** m)
            p_pow = p_pow * germ.p
        u = TS(2, trunc, {(0, 0): scalar(nonzero=True), (1, 0): scalar(), (0, 1): scalar(),
                          (1, 1): scalar()})
        g = u * f
        e = draw(st.sampled_from([(i, j) for i in range(2) for j in range(trunc + 1 - i)]))
        phase = scalar(nonzero=True)
        delta = max(sabs(c) for c in g.terms.values()) * mpmath.ldexp(1, -60) * phase / abs(phase)
        g = g + TS(2, trunc, {e: delta})
    return g, germ, depth, e, delta


@pytest.mark.parametrize("prec", [128, 256])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_float_noise_cut_property(prec, data):
    """The float elimination's noise cut on random germ sums (``float_germ_sums``)
    at 128 and 256 bits, against the same call at 512 bits: every kept term is
    within the tolerance of ``assert_near_reference``, every dropped term's
    512-bit value is at most 2^(16 - prec) of its mass (``ref_mass_expand``),
    and the planted 2^-60 term, the whole exact remainder, survives."""
    g, germ, depth, e, delta = data.draw(float_germ_sums(prec))
    with mpmath.mp.workprec(prec):
        levels = p_expand(g, germ, depth).coeffs
    masses = ref_mass_expand(g.terms, germ.p.terms, ref_order_key((1, 1), "lex"), g.trunc, depth)
    with mpmath.mp.workprec(512):
        wide = p_expand(g, germ, depth).coeffs
        scale = max(sabs(c) for w in wide for c in w.terms.values())
        tol = scale * mpmath.mpf(2) ** (16 - prec)
        cut = mpmath.mpf(2) ** (16 - prec)
        for level, w, mass in zip(levels, wide, masses, strict=True):
            for x in set(level.terms) | set(w.terms):
                if x in level.terms:
                    assert sabs(sadd(level.terms[x], sneg(w.coeff(x)))) <= tol, (x, level.terms[x])
                else:
                    assert sabs(w.terms[x]) <= cut * mass[x], (x, w.terms[x], mass[x])
        assert e in levels[0].terms
        assert sabs(sadd(levels[0].terms[e], sneg(delta))) <= tol


@pytest.mark.parametrize("lead, tail", [(2 ** 166, 1), (1, Fraction(1, 2 ** 200)),
                                        (Fraction(1, 2 ** 300), 1)])
def test_float_elimination_keeps_relative_precision(lead, tail):
    """Terms far above or below g's coefficients keep their relative precision:
    P = lead x1 + tail x2^2 + (3 + 4i)/8 tail x1 x2 with a lead of about 1e50,
    or a tail of about 1e-60, on mpc data.  A lead of about 1e-90 grows the
    terms 2^300 a step, above g's grid, until their masses leave the float
    range: such a term is kept.  Each term of wdivide and p_expand
    lies within 2^(16 - prec) of its own size of the exact elimination of the
    same values; a term the float result lacks, which only _reduce_float's masses
    drop, is below 2^(-prec/2) of the largest of its degree."""
    trunc, depth = 8, 4
    p = {(1, 0): lead, (0, 2): tail, (1, 1): QQi(Fraction(3, 8), Fraction(1, 2)) * tail}
    g = {(1, 0): Fraction(1, 3), (2, 0): 3, (1, 1): Fraction(-2, 7), (0, 3): 5,
         (2, 1): Fraction(1, 5), (3, 2): Fraction(-4, 3)}
    with mpmath.mp.workprec(working_prec()):
        germ = Germ(TS(2, trunc, {e: to_mpc(c) for e, c in p.items()}), MonomialOrder((1, 1)))
        gf = TS(2, trunc, {e: to_mpc(c) for e, c in g.items()})
    exact_germ = Germ(TS(2, trunc, p), MonomialOrder((1, 1)))
    res, ref = wdivide(gf, germ), wdivide(TS(2, trunc, g), exact_germ)
    outs = [res.q, res.r] + list(p_expand(gf, germ, depth).coeffs)
    refs = [ref.q, ref.r] + list(p_expand(TS(2, trunc, g), exact_germ, depth).coeffs)
    assert len(ref.q.terms) > 10 and len(ref.r.terms) > 5
    tol = mpmath.mpf(2) ** (16 - working_prec())
    cut = mpmath.mpf(2) ** -(working_prec() // 2)
    for out, r in zip(outs, refs, strict=True):
        assert set(out.terms) <= set(r.terms)
        for e, c in r.terms.items():
            if e in out.terms:
                assert sabs(sadd(out.terms[e], sneg(c))) <= tol * sabs(c), (e, out.terms[e], c)
            else:
                assert sabs(c) < cut * max(sabs(b) for k, b in r.terms.items() if sum(k) == sum(e))


@pytest.mark.parametrize("p, weights", [({(0, 2): 1, (3, 0): -1}, (2, 3)),
                                        ({(2, 0): 1, (1, 1): 1, (0, 2): -1}, (1, 1)),
                                        ({(1, 1): 1}, (1, 1))])
def test_float_expansion_meets_exact_cancellation(p, weights):
    """u (P + P^2 + P^3) with the dyadic float u = 1/2 + x1/4 + x2/8, expanded
    to depth 4 at trunc 16: sums in the float elimination cancel exactly (such
    a sum is deleted, and the heap entry of the term it held is skipped), and
    the expansion is g_0 = 0, g_1 = g_2 = g_3 = u, equal to the expansion of the
    same data with Fraction coefficients."""
    trunc, depth = 16, 4
    u = {(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 4), (0, 1): Fraction(1, 8)}
    germ = Germ(TS(2, trunc, p), MonomialOrder(weights))
    sums = germ.p + germ.p ** 2 + germ.p ** 3

    def expansion(scalar):
        return p_expand(TS(2, trunc, {e: scalar(c) for e, c in u.items()}) * sums, germ,
                        depth).coeffs

    floats, exact = expansion(to_mpc), expansion(Fraction)
    assert all(isinstance(c, mpmath.mpc) for g in floats for c in g.terms.values())
    assert [g.terms for g in exact] == [{}, u, u, u]
    assert floats == exact


class TestMixedDomains:
    """Fraction, QQi and mpc coefficients mixed in one operand: wdivide and
    p_expand against the reference run on the s* funnel."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_wdivide_matches_funnel_reference(self, data):
        dim, trunc = data.draw(st.sampled_from(SHAPES))
        germ = data.draw(mixed_germs(dim, trunc))
        g = data.draw(mixed(data.draw(exact_series(dim, trunc, qqi=True, max_terms=30))))
        key = ref_order_key(germ.order.weights, germ.order.tiebreak)
        quot, rem = ref_wdivide(g.terms, germ.p.terms, key, trunc, sadd, smul, sdiv, sneg)
        res = wdivide(g, germ)
        assert_near_reference([res.q, res.r],
                              [TS(dim, res.q.trunc, quot), TS(dim, trunc, rem)])

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_p_expand_matches_funnel_reference(self, data):
        dim, trunc = data.draw(st.sampled_from(SHAPES))
        germ = data.draw(mixed_germs(dim, trunc))
        f = data.draw(mixed(data.draw(exact_series(dim, trunc, qqi=True, max_terms=30))))
        depth = data.draw(st.integers(0, trunc + 2))
        key = ref_order_key(germ.order.weights, germ.order.tiebreak)
        ref = ref_p_expand(f.terms, germ.p.terms, key, trunc, depth, sadd, smul, sdiv, sneg)
        assert_near_reference(p_expand(f, germ, depth).coeffs,
                              [TS(dim, t, terms) for t, terms in ref])


class TestSpecialize:
    """a_n = g_n(x) from one substitution into sum g_n(x) t^n, against evaluating
    each coefficient and the term-by-term reference of tests/helpers.py."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_exact_matches_eval_and_reference(self, data):
        dim, trunc = data.draw(st.sampled_from(SHAPES))
        qqi = data.draw(st.booleans())
        germ = data.draw(exact_germs(dim, trunc, qqi=qqi))
        f = data.draw(exact_series(dim, trunc, qqi=qqi, max_terms=30))
        expansion = p_expand(f, germ, data.draw(st.integers(0, trunc + 2)))
        x = data.draw(points(dim, qqi=qqi))
        values = expansion.specialize(x)
        assert values == [g.eval_at(x) for g in expansion.coeffs]
        assert values == [ref_eval(g.terms, x) for g in expansion.coeffs]

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_float_matches_funnel_reference(self, data):
        dim, trunc = data.draw(st.sampled_from(SHAPES))
        germ = data.draw(mixed_germs(dim, trunc))
        f = data.draw(mixed(data.draw(exact_series(dim, trunc, qqi=True, max_terms=30))))
        expansion = p_expand(f, germ, data.draw(st.integers(1, trunc + 2)))
        x = data.draw(points(dim, qqi=True, floats=True))
        scale = max((sabs(c) for g in expansion.coeffs for c in g.terms.values()), default=0)
        tol = scale * mpmath.mpf(2) ** (16 - working_prec())
        for v, g in zip(expansion.specialize(x), expansion.coeffs, strict=True):
            ref = ref_eval(g.terms, x, sadd, smul)
            if is_exact(ref):
                assert is_exact(v) and v == ref
            else:
                assert sabs(sadd(v, sneg(ref))) <= tol

    def test_point_length_checked(self, cusp_germ):
        expansion = p_expand(TS(2, 12, {(3, 1): 1, (0, 1): 2}), cusp_germ, 3)
        for point in ((1,), (1, 2, 3)):
            with pytest.raises(DimensionMismatchError):
                expansion.specialize(point)


class TestPExpand:
    def test_geometric_stack(self, cusp_germ):
        # f = sum_{n<=4} P^n (trunc covers 4*3=12 at lead degree 3)
        f = TS.zero(2, 12)
        for n in range(5):
            f = f + cusp_germ.p ** n
        exp = p_expand(f, cusp_germ, 5)
        for n, g in enumerate(exp.coeffs):
            assert g.terms == {(0, 0): 1}, n

    def test_factorial_monomial(self, mono_germ):
        terms = {(n, 3 * n): factorial(n) for n in range(11)}
        f = TS(2, 44, terms)
        germ = Germ(TS(2, 44, {(1, 1): 1}), MonomialOrder((1, 1)))
        exp = p_expand(f, germ, 11)
        for n, g in enumerate(exp.coeffs):
            assert g.terms == {(0, 2 * n): factorial(n)}, n

    def test_shifted_factorial(self):
        # f = x1 * sum_{n<=8} n! P^(n+1), P = x2^2 - x1^3: g_0 = 0 and
        # g_n = (n-1)! x1 for n >= 1 since x1 avoids the cone
        order = MonomialOrder((1, 2))
        N = 40
        p = TS(2, N, {(0, 2): 1, (3, 0): -1})
        x1 = TS.variable(0, 2, N)
        f = TS.zero(2, N)
        for n in range(9):
            f = f + x1 * p ** (n + 1) * factorial(n)
        exp = p_expand(f, Germ(p, order), 10)
        assert exp.coeffs[0].is_zero
        for n in range(1, 10):
            assert exp.coeffs[n].terms == {(1, 0): factorial(n - 1)}, n
        # reconstruction oracle
        assert t_substitute(exp).agrees_with(f)

    def test_reliable_order_metadata(self, cusp_germ):
        f = random_series(random.Random(1), 2, 12)
        exp = p_expand(f, cusp_germ, 4)
        for n in range(4):
            assert exp.reliable_order(n) == 12 - 3 * n
            assert exp.coeffs[n].trunc == max(12 - 3 * n, -1)

    def test_negative_depth_refused(self, cusp_germ):
        # it ended in an IndexError from the elimination
        with pytest.raises(ValueError, match="depth -1"):
            p_expand(TS(2, 6, {(1, 0): 1}), cusp_germ, -1)
        assert p_expand(TS(2, 6, {(1, 0): 1}), cusp_germ, 0).coeffs == ()

    def test_non_integer_depth_refused(self, cusp_germ):
        # a float depth ended in a TypeError from the elimination's shifts
        for depth in (2.5, 2.0, Fraction(5, 2)):
            message = f"expansion depth {depth!r} is not an integer"
            with pytest.raises(ValueError, match=re.escape(message)):
                p_expand(TS(2, 6, {(1, 0): 1}), cusp_germ, depth)

    def test_oracle_equivalence_small(self):
        # the acceptance suite runs the exhaustive version; spot-check here
        germ = Germ(TS(2, 6, {(0, 2): 1, (3, 0): -1}), MonomialOrder((1, 2)))
        f = TS(2, 6, {(1, 0): 2, (3, 0): 1, (2, 2): Fraction(1, 3)})
        exp = p_expand(f, germ, 3)
        oracle = expansion_oracle(f, germ, 3)
        for n in range(3):
            assert exp.coeffs[n].terms == oracle[n]


class TestTMapSubstitute:
    def test_tmap_example(self, mono_germ):
        g = TS(2, 10, {(2, 1): 1, (1, 0): 1, (0, 2): 1})
        exp = p_expand(g, mono_germ, 4)
        assert exp.coeffs[0].terms == {(1, 0): 1, (0, 2): 1}
        assert exp.coeffs[1].terms == {(1, 0): 1}
        assert exp.coeffs[2].is_zero

    def test_p_itself(self, cusp_germ):
        exp = p_expand(cusp_germ.p, cusp_germ, 3)
        assert exp.coeffs[0].is_zero
        assert exp.coeffs[1].terms == {(0, 0): 1}
        assert exp.coeffs[2].is_zero

    def test_remainder_only(self, mono_germ):
        f = TS(2, 10, {(3, 0): 1, (0, 4): Fraction(2, 7)})
        exp = p_expand(f, mono_germ, 3)
        assert exp.coeffs[0] == f
        assert all(g.is_zero for g in exp.coeffs[1:])

    def test_round_trip_random(self):
        rng = random.Random(23)
        for _, p, order in fixed_germs(2, 10):
            germ = Germ(p, order)
            for _ in range(10):
                f = random_series(rng, 2, 10, complex_coeffs=True)
                rec = t_substitute(p_expand(f, germ, 11))
                assert rec.agrees_with(f, upto=10)

    def test_simple_substitute(self, mono_germ):
        exp = PExpansion(mono_germ, [TS.one(2, 12), TS.one(2, 12)], 12)
        assert t_substitute(exp).terms == {(0, 0): 1, (1, 1): 1}

    def test_factorial_family_back_substitutes(self):
        # the n! x2^(2n) t^n expansion returns the original double series
        f = TS(2, 44, {(n, 3 * n): factorial(n) for n in range(11)})
        germ = Germ(TS(2, 44, {(1, 1): 1}), MonomialOrder((1, 1)))
        assert t_substitute(p_expand(f, germ, 11)) == f

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_one_substitution(self, data):
        """t_substitute against sum g_n P^n on dict arithmetic at 4 times the working
        precision (helpers.ref_t_substitute), on int/Fraction, QQi, float and mixed
        data, at depths 0..trunc+2, the expansion's truncation above or below P's and
        terms of P above it: exact data equal, coefficient types included, and float
        data within 2^(8 - prec) max|c|."""
        dim, trunc = data.draw(st.sampled_from(SHAPES))
        domain = data.draw(st.sampled_from(("exact", "qqi", "float", "mixed")))
        qqi = domain != "exact"

        def cast(f):
            if domain == "float":
                return TS(f.dim, f.trunc, {e: smul(c, LAM) for e, c in f.terms.items()})
            return data.draw(mixed(f)) if domain == "mixed" else f

        p_trunc = data.draw(st.integers(3, trunc))
        germ = data.draw(exact_germs(dim, p_trunc, qqi=qqi))
        p_terms = dict(germ.p.terms)
        if data.draw(st.booleans()):
            # a term at P's own truncation, above the expansion's where that is lower
            p_terms[data.draw(exponents(dim, p_trunc, p_trunc))] = data.draw(exact_coeffs(qqi))
        germ = Germ(cast(TS(dim, p_trunc, p_terms)), germ.order)
        coeffs = [cast(data.draw(exact_series(dim, trunc, qqi=qqi, max_terms=6)))
                  for _ in range(data.draw(st.integers(0, trunc + 2)))]
        expansion = PExpansion(germ, coeffs, data.draw(st.integers(-1, trunc + 2)))
        out, ref = t_substitute(expansion), ref_t_substitute(expansion)
        if domain in ("exact", "qqi"):
            assert (out.dim, out.trunc) == (ref.dim, ref.trunc)
            assert ({e: (type(c), c) for e, c in out.terms.items()}
                    == {e: (type(c), c) for e, c in ref.terms.items()})
        else:
            assert_near_reference([out], [ref], margin=8)


class TestFloatPath:
    def test_division_with_float_germ(self):
        # blow-up at a non-rational center promotes to floats; division must
        # still reconstruct within float tolerance
        import mpmath
        from germsum.transforms import blowup
        f = TS(2, 12, {(1, 1): 1, (2, 3): Fraction(1, 3), (0, 4): -2})
        xi = mpmath.mpf("0.7071067811865476")
        p_f = blowup(TS(2, 12, {(1, 1): 1, (0, 3): 1}), xi)
        g_f = blowup(f, xi)
        germ = Germ(p_f, MonomialOrder((1, 2)))
        res = wdivide(g_f, germ)
        assert all(delta_member(e, germ) for e in res.r.terms)
        rec = res.q.with_trunc(12) * p_f + res.r
        diff = rec - g_f
        assert all(abs(c) < 1e-30 for c in diff.terms.values())


class TestTiebreakDependence:
    def test_delta_depends_on_tiebreak(self):
        # P = x1 + x2 with equal weights: the cone flips with the tie rule
        p = TS(2, 8, {(1, 0): 1, (0, 1): 1})
        g = TS(2, 8, {(1, 0): 1})
        lex = Germ(p, MonomialOrder((1, 1), "lex"))
        rev = Germ(p, MonomialOrder((1, 1), "revlex"))
        assert lex.lead_exp == (1, 0)
        assert rev.lead_exp == (0, 1)
        r_lex = wdivide(g, lex).r
        r_rev = wdivide(g, rev).r
        # under lex, x1 is the lead: x1 = 1*P - x2
        assert r_lex.terms == {(0, 1): -1}
        # under revlex, x1 avoids the cone and is its own remainder
        assert r_rev.terms == {(1, 0): 1}


class TestPExpansionJson:
    def test_round_trip(self, cusp_germ):
        f = TS(2, 12, {(1, 0): 1, (6, 0): Fraction(2, 3)})
        exp = p_expand(f, cusp_germ, 3)
        blob = json.dumps(exp.to_json())
        back = PExpansion.from_json(json.loads(blob))
        assert back.depth == exp.depth and back.trunc == exp.trunc
        for g1, g2 in zip(back.coeffs, exp.coeffs):
            assert g1 == g2
        assert back.germ.lead_exp == cusp_germ.lead_exp

    def test_refuses_malformed_fields(self, cusp_germ):
        """trunc and depth are JSON integers, depth counts the coefficients, and
        every coefficient has the germ's dimension."""
        obj = p_expand(TS(2, 12, {(1, 0): 1, (6, 0): Fraction(2, 3)}), cusp_germ, 3).to_json()
        for field, value in (("trunc", 5.9), ("trunc", True), ("trunc", "4"),
                             ("depth", 2), ("depth", 4), ("depth", 3.0)):
            with pytest.raises(ValueError):
                PExpansion.from_json({**obj, field: value})
        other = series_to_json(TS(3, 9, {(1, 0, 0): 1}))
        with pytest.raises(ValueError, match="dimension"):
            PExpansion.from_json({**obj, "coeffs": obj["coeffs"][:2] + [other]})
        # a missing or mistyped field is a ValueError that names it, not a bare KeyError
        for field in ("germ", "order", "coeffs"):
            with pytest.raises(ValueError, match=repr(field)):
                PExpansion.from_json({k: v for k, v in obj.items() if k != field})
        with pytest.raises(ValueError, match="'order'"):
            PExpansion.from_json({**obj, "order": 3})
