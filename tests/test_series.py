import json
import random
import re
from bisect import bisect_left
from fractions import Fraction

import mpmath
import numpy
import pytest
from hypothesis import given, settings, strategies as st

from germsum import series
from germsum.errors import (DimensionMismatchError, InsufficientTruncationError,
                            ZeroSeriesError)
from germsum.scalars import (QQi, is_exact, parse_scalar, sabs, sadd, scalar_from_json, smul,
                             sneg, working_prec)
from germsum.series import (MonomialOrder, TruncatedSeries, _operand, _Packing, majorant_norm,
                            series_from_json, series_to_json, substitute, v_ell)
from germsum.transforms import blowup

from helpers import (LAM, SHAPES, assert_near_reference, exact_series, image_series, mixed,
                     nonzero, points, random_series, ref_eval, ref_mul, ref_substitute)

TS = TruncatedSeries


def S(dim, trunc, terms):
    return TS(dim, trunc, terms)


class TestAdd:
    def test_additive_inverse(self):
        x1 = TS.variable(0, 2, 5)
        assert (x1 + (-x1)).is_zero

    def test_disjoint_supports(self):
        a = S(2, 5, {(0, 0): 1, (1, 1): 1})
        b = S(2, 5, {(0, 2): 1})
        assert (a + b).terms == {(0, 0): 1, (1, 1): 1, (0, 2): 1}

    def test_truncation_contract(self):
        a = S(2, 3, {(1, 0): 1})
        b = S(2, 5, {(0, 1): 1})
        assert (a + b).trunc == 3

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            S(2, 3, {}) + S(3, 3, {})


class TestMul:
    def test_difference_of_squares(self):
        one = TS.one(2, 4)
        x1 = TS.variable(0, 2, 4)
        assert ((one + x1) * (one - x1)).terms == {(0, 0): 1, (2, 0): -1}

    def test_cusp_product(self):
        # (x2^2 - x1^3)(-x1^3 - x2^2) = x1^6 - x2^4
        a = S(2, 10, {(0, 2): 1, (3, 0): -1})
        b = S(2, 10, {(3, 0): -1, (0, 2): -1})
        assert (a * b).terms == {(6, 0): 1, (0, 4): -1}

    def test_mul_zero(self):
        p = S(2, 8, {(1, 1): 3, (0, 2): -2})
        assert (p * TS.zero(2, 8)).is_zero

    def test_trunc_min_rule(self):
        a = S(2, 3, {(1, 0): 1})
        b = S(2, 7, {(1, 0): 1})
        prod = a * b
        assert prod.trunc == 3 and prod.terms == {(2, 0): 1}


class TestSubstitute:
    def test_blowup_style(self):
        f = S(2, 6, {(1, 1): 1})
        images = [TS.variable(1, 2, 6), S(2, 6, {(1, 1): 1, (0, 1): 1})]
        assert substitute(f, images).terms == {(0, 2): 1, (1, 2): 1}

    def test_ramification_style(self):
        f = S(2, 6, {(1, 0): 1, (0, 1): 1})
        images = [S(2, 12, {(2, 0): 1}), TS.variable(1, 2, 12)]
        out = substitute(f, images)
        assert out.terms == {(2, 0): 1, (0, 1): 1}

    def test_factorial_family(self):
        # sum n! x2^(2n) (x1 x2)^n under (x1,x2) -> (v2, v1 v2)
        fact = 1
        terms = {}
        for n in range(11):
            terms[(n, 3 * n)] = fact
            fact *= n + 1
        f = S(2, 70, terms)
        images = [TS.variable(1, 2, 70), S(2, 70, {(1, 1): 1})]
        out = substitute(f, images)
        fact = 1
        for n in range(11):
            assert out.terms[(3 * n, 4 * n)] == fact
            fact *= n + 1

    def test_image_count_and_dimension_checks(self):
        f = S(2, 5, {(1, 1): 1})
        with pytest.raises(DimensionMismatchError):
            substitute(f, [TS.variable(0, 2, 5)])
        with pytest.raises(DimensionMismatchError):
            substitute(f, [TS.variable(0, 2, 5), TS.variable(0, 3, 5)])

    def test_empty_result_truncation_clamped(self):
        y = S(1, 5, {(2,): 1})
        p = S(2, 5, {(1, 0): 1})
        assert substitute(y, [p], out_trunc=-5) == TS(2, -5)
        assert substitute(TS(1, 5), [p], out_trunc=-3).trunc == -1

    def test_unit_image_requires_override(self):
        f = S(1, 5, {(2,): 1})
        unit = S(1, 5, {(0,): 1, (1,): 1})
        with pytest.raises(InsufficientTruncationError):
            substitute(f, [unit])
        out = substitute(f, [unit], out_trunc=5)
        assert out.terms == {(0,): 1, (1,): 2, (2,): 1}

    def test_homomorphism_on_sample(self):
        rng = random.Random(7)
        images = [S(2, 12, {(1, 0): 1, (1, 1): 2}),
                  S(2, 12, {(0, 1): Fraction(1, 2)})]
        for _ in range(25):
            f = random_series(rng, 2, 6)
            g = random_series(rng, 2, 6)
            sf, sg = substitute(f, images), substitute(g, images)
            assert substitute(f * g, images).agrees_with(sf * sg)
            assert substitute(f + g, images).agrees_with(sf + sg)


def _substitute_asserting_units(f, images, trunc):
    """substitute(f, images), the output truncation asserted as ``trunc`` where an
    image has a constant term, which leaves the derived one empty."""
    if any(g.valuation() == 0 for g in images):
        return substitute(f, images, out_trunc=trunc)
    return substitute(f, images)


class TestIntegerKernel:
    """int/Fraction data (the integer lift) and QQi data against the exact
    term-by-term reference of tests/helpers.py."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_mul_matches_reference(self, data):
        dim, trunc = data.draw(st.sampled_from(SHAPES))
        qqi = data.draw(st.booleans())
        a = data.draw(exact_series(dim, trunc, qqi=qqi))
        b = data.draw(exact_series(dim, data.draw(st.integers(trunc - 2, trunc)), qqi=qqi))
        prod = a * b
        assert prod.trunc == min(a.trunc, b.trunc)
        assert prod.terms == nonzero(ref_mul(a.terms, b.terms, prod.trunc))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_substitute_matches_reference(self, data):
        """Every image shape (zero, monomial, affine, several terms) at every index."""
        dim, trunc = data.draw(st.sampled_from(SHAPES))
        dim2, trunc2 = data.draw(st.sampled_from(SHAPES))
        qqi = data.draw(st.booleans())
        f = data.draw(exact_series(dim, trunc, qqi=qqi))
        images = [data.draw(image_series(dim2, trunc2, qqi=qqi)) for _ in range(dim)]
        out = _substitute_asserting_units(f, images, trunc2)
        ref = ref_substitute(f.terms, [g.terms for g in images], out.trunc, dim=dim2)
        assert out.terms == nonzero(ref)


class TestMixedDomains:
    """Fraction, QQi and mpc coefficients mixed in one operand: * and substitute
    against the reference run on the s* funnel."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_mul_matches_funnel_reference(self, data):
        dim, trunc = data.draw(st.sampled_from(SHAPES))
        trunc_b = data.draw(st.integers(trunc - 2, trunc))
        a = data.draw(mixed(data.draw(exact_series(dim, trunc, qqi=True))))
        b = data.draw(mixed(data.draw(exact_series(dim, trunc_b, qqi=True))))
        prod = a * b
        ref = ref_mul(a.terms, b.terms, prod.trunc, sadd, smul)
        assert_near_reference([prod], [TS(dim, prod.trunc, ref)])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_substitute_matches_funnel_reference(self, data):
        """Every image shape at every index, each coefficient kept exact or made an
        mpc at random, or every one an mpc (the float pass)."""
        dim, trunc = data.draw(st.sampled_from(SHAPES))
        dim2, trunc2 = data.draw(st.sampled_from(SHAPES))
        floats = data.draw(st.booleans())
        cast = ((lambda g: TS(g.dim, g.trunc, {e: smul(c, LAM) for e, c in g.terms.items()}))
                if floats else (lambda g: data.draw(mixed(g))))
        f = cast(data.draw(exact_series(dim, trunc, qqi=True)))
        images = [cast(data.draw(image_series(dim2, trunc2, qqi=True))) for _ in range(dim)]
        out = _substitute_asserting_units(f, images, trunc2)
        if floats:
            assert all(isinstance(c, mpmath.mpc) for c in out.terms.values())
        ref = ref_substitute(f.terms, [g.terms for g in images], out.trunc, sadd, smul, dim=dim2)
        assert_near_reference([out], [TS(dim2, out.trunc, ref)])

    @pytest.mark.parametrize("mixed_image", [False, True])
    def test_float_images_keep_exact_terms(self, mixed_image):
        """An exact f substituted with float images keeps its exact constant term,
        and a term that only exact pieces reach (x2, from an exact image term)."""
        with mpmath.mp.workprec(working_prec()):
            lam = mpmath.mpc(mpmath.mpf(9) / 10, mpmath.mpf(-1) / 7)
        f = S(2, 6, {(0, 0): Fraction(2, 3), (1, 0): 1, (1, 2): Fraction(-1, 7)})
        first = {(1, 0): lam, (0, 1): 1} if mixed_image else {(1, 0): lam}
        images = [S(2, 6, first), S(2, 6, {(0, 1): lam})]
        out = substitute(f, images)
        assert out.terms[(0, 0)] == Fraction(2, 3)
        assert is_exact(out.terms[(0, 0)])
        assert is_exact(out.terms[(0, 1)]) if mixed_image else (0, 1) not in out.terms
        ref = ref_substitute(f.terms, [g.terms for g in images], out.trunc, sadd, smul)
        assert_near_reference([out], [TS(2, out.trunc, ref)])

    @pytest.mark.parametrize("constant, exact_image, expect", [
        (True, None, "generic"), (False, None, "float"), (False, 0, "generic"),
        (False, 1, "float")])
    def test_pass_chosen_from_images(self, monkeypatch, constant, exact_image, expect):
        """The pass of an exact f under float images, with an exact term in no image
        or in image ``exact_image``.  With none, only f's constant term makes a piece
        mixed: the generic pass keeps that constant exact, and without it the float
        pass makes every coefficient an mpc.  An exact term in x1's image reaches
        the exact x1 piece (generic pass); one in x2's alone reaches no piece, as
        every term of f takes x1 (float pass)."""
        with mpmath.mp.workprec(working_prec()):
            lam = mpmath.mpc(mpmath.mpf(9) / 10, mpmath.mpf(-1) / 7)
        terms = {(1, 0): 1, (1, 2): Fraction(-1, 7)}
        if constant:
            terms[(0, 0)] = Fraction(2, 3)
        f = S(2, 6, terms)
        images = [S(2, 6, {(1, 0): lam}), S(2, 6, {(0, 1): lam})]
        if exact_image is not None:
            images[exact_image] = images[exact_image] + S(2, 6, {(1, 1): 1})
        passes = []
        for name in ("_substitute", "_substitute_float"):
            run = getattr(series, name)
            monkeypatch.setattr(series, name, lambda *args, run=run, name=name: (
                passes.append(name), run(*args))[1])
        out = substitute(f, images)
        assert passes == [{"generic": "_substitute", "float": "_substitute_float"}[expect]]
        if constant:
            assert out.terms[(0, 0)] == Fraction(2, 3) and is_exact(out.terms[(0, 0)])
        if expect == "float":
            assert all(isinstance(c, mpmath.mpc) for c in out.terms.values())
        ref = ref_substitute(f.terms, [g.terms for g in images], out.trunc, sadd, smul)
        assert_near_reference([out], [TS(2, out.trunc, ref)])

    def test_exact_cancellation_stays_exact_beside_floats(self):
        """f = x1 x2 - x1 x2^2 with x2 -> y1/3 + y1^2/9: the y1^2 terms of x2 and
        x2^2 cancel exactly, so x1 -> lam y1 + y2 multiplies an exact zero, and the
        result has no y1^3 term (a float pass alone leaves round-off there)."""
        with mpmath.mp.workprec(working_prec()):
            lam = mpmath.mpc(mpmath.mpf(9) / 10, mpmath.mpf(-1) / 7)
        f = S(2, 6, {(1, 1): 1, (1, 2): -1})
        images = [S(2, 6, {(1, 0): lam, (0, 1): 1}),
                  S(2, 6, {(1, 0): Fraction(1, 3), (2, 0): Fraction(1, 9)})]
        out = substitute(f, images)
        ref = TS(2, out.trunc, ref_substitute(f.terms, [g.terms for g in images], out.trunc,
                                              sadd, smul))
        assert (3, 0) not in ref.terms and (3, 0) not in out.terms
        assert_near_reference([out], [ref])

    def test_exact_zero_times_float_is_float(self):
        """f = x1 x2 - x1 x2^2 + x2^3 with the images above: the exact zero left by
        the cancellation times lam is a float zero, so the y1^3 term, y1^3/27 from
        x2^3 alone, is a float equal to the reference's and not Fraction(1, 27)."""
        with mpmath.mp.workprec(working_prec()):
            lam = mpmath.mpc(mpmath.mpf(9) / 10, mpmath.mpf(-1) / 7)
        f = S(2, 6, {(1, 1): 1, (1, 2): -1, (0, 3): 1})
        images = [S(2, 6, {(1, 0): lam, (0, 1): 1}),
                  S(2, 6, {(1, 0): Fraction(1, 3), (2, 0): Fraction(1, 9)})]
        out = substitute(f, images)
        ref = TS(2, out.trunc, ref_substitute(f.terms, [g.terms for g in images], out.trunc,
                                              sadd, smul))
        assert not is_exact(out.terms[(3, 0)]) and out.terms[(3, 0)] == ref.terms[(3, 0)]
        assert_near_reference([out], [ref])


class TestVEll:
    def test_weighted(self):
        f = S(2, 10, {(0, 2): 1, (3, 0): -1})
        assert v_ell(f, MonomialOrder((1, 2))) == (3, 0)

    def test_divisibility_forced(self):
        f = S(2, 10, {(1, 1): 1, (2, 1): 1})
        for order in (MonomialOrder((1, 1)), MonomialOrder((3, 1), "revlex")):
            assert v_ell(f, order) == (1, 1)

    def test_tiebreak(self):
        f = S(2, 10, {(1, 0): 1, (0, 1): 1})
        assert v_ell(f, MonomialOrder((1, 1), "lex")) == (1, 0)
        assert v_ell(f, MonomialOrder((1, 1), "revlex")) == (0, 1)

    def test_zero_series(self):
        with pytest.raises(ZeroSeriesError):
            v_ell(TS.zero(2, 5), MonomialOrder((1, 1)))

    def test_order_dimension_checked(self):
        with pytest.raises(DimensionMismatchError,
                           match="order has 3 weights, series has 2 variables"):
            v_ell(S(2, 5, {(1, 1): 1}), MonomialOrder((1, 1, 1)))

    def test_multiplicativity(self):
        rng = random.Random(3)
        order = MonomialOrder((Fraction(2, 3), Fraction(1)))
        for _ in range(50):
            f = random_series(rng, 2, 12, nonzero=True, max_terms=5)
            g = random_series(rng, 2, 12, nonzero=True, max_terms=5)
            prod = f * g
            if prod.is_zero:
                continue
            assert v_ell(prod, order) == tuple(
                a + b for a, b in zip(v_ell(f, order), v_ell(g, order)))


class TestMajorantNorm:
    def test_zero(self):
        assert majorant_norm(TS.zero(2, 4), 0.5) == 0.0

    def test_single_term(self):
        import math
        for n in (1, 3, 7):
            f = S(2, 40, {(0, 2 * n): math.factorial(n)})
            assert majorant_norm(f, Fraction(1, 2)) == pytest.approx(
                math.factorial(n) / 4 ** n)

    def test_three_terms(self):
        f = S(2, 4, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        assert majorant_norm(f, 1) == pytest.approx(3.0)

    @pytest.mark.parametrize("rho", [QQi(1, 1), mpmath.mpc(1, 1), 0, -1])
    def test_refuses_radius_not_positive_real(self, rho):
        # a complex radius is a ValueError naming it, like a nonpositive one
        f = S(2, 4, {(0, 0): 1, (1, 0): 1})
        with pytest.raises(ValueError, match="radius"):
            majorant_norm(f, rho)

    def test_sub_additive_multiplicative(self):
        rng = random.Random(11)
        for _ in range(40):
            f = random_series(rng, 2, 8, complex_coeffs=True)
            g = random_series(rng, 2, 8, complex_coeffs=True)
            rho = rng.choice([Fraction(1, 2), Fraction(1, 3), 1])
            nf, ng = majorant_norm(f, rho), majorant_norm(g, rho)
            assert majorant_norm(f + g, rho) <= nf + ng + 1e-12
            assert majorant_norm(f * g, rho) <= nf * ng + 1e-12


small_series = st.builds(
    lambda entries, trunc: TS(2, trunc, dict(entries)),
    st.lists(st.tuples(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.fractions(min_value=-5, max_value=5, max_denominator=4)),
        max_size=6),
    st.integers(4, 8))


class TestRingAxioms:
    @given(small_series, small_series, small_series)
    @settings(max_examples=60, deadline=None)
    def test_associativity_distributivity(self, a, b, c):
        assert ((a * b) * c).agrees_with(a * (b * c))
        assert (a * (b + c)).agrees_with(a * b + a * c)

    @given(small_series, small_series)
    @settings(max_examples=60, deadline=None)
    def test_commutativity(self, a, b):
        assert (a * b) == (b * a)
        assert (a + b) == (b + a)


class TestOrderKey:
    @given(st.tuples(st.integers(0, 6), st.integers(0, 6)),
           st.tuples(st.integers(0, 6), st.integers(0, 6)),
           st.tuples(st.integers(0, 3), st.integers(0, 3)))
    @settings(max_examples=100, deadline=None)
    def test_translation_invariance(self, a, b, c):
        order = MonomialOrder((Fraction(2, 3), Fraction(3, 2)))
        shift = lambda e: tuple(x + y for x, y in zip(e, c))
        assert (order.key(a) < order.key(b)) == (
            order.key(shift(a)) < order.key(shift(b)))

    def test_total_order(self):
        order = MonomialOrder((1, 2))
        exps = [(i, j) for i in range(5) for j in range(5)]
        keys = {order.key(e) for e in exps}
        assert len(keys) == len(exps)

    def test_positive_weights_required(self):
        with pytest.raises(ValueError):
            MonomialOrder((1, 0))


class TestScalarsAndPruning:
    def test_mixed_exact_complex(self):
        a = S(2, 4, {(1, 0): QQi(1, 1)})
        b = S(2, 4, {(1, 0): QQi(0, -1)})
        assert (a + b).terms == {(1, 0): QQi(1)}
        assert (a + b).terms[(1, 0)] == Fraction(1)

    def test_exact_float_promotion(self):
        a = S(2, 4, {(1, 0): Fraction(1, 3)})
        b = S(2, 4, {(1, 0): mpmath.mpf("0.25")})
        c = (a * b).terms[(2, 0)]
        assert isinstance(c, (mpmath.mpf, mpmath.mpc))
        with mpmath.mp.workprec(128):
            assert abs(c - mpmath.mpf(1) / 12) < 1e-30

    def test_float_pruning_relative_per_degree(self):
        big = mpmath.mpf("1e30")
        tiny = big * mpmath.mpf(2) ** (-80)
        f = S(2, 4, {(1, 0): big, (0, 1): tiny, (0, 2): tiny})
        assert f.terms[(0, 1)] == tiny        # kept beside the big term of its degree
        assert (0, 2) in f.terms              # its own degree scale
        g = S(2, 4, {(1, 0): big, (0, 1): Fraction(1, 10 ** 40)})
        assert (0, 1) in g.terms              # exact terms are never pruned

    def test_small_float_input_is_kept(self):
        # 1e-25 x2 beside x1 is input, not round-off: at 128 bits the constructor, JSON
        # input, + 0, * 1 and the blow-up at 0 (x1 -> v2, x2 -> v1 v2) all keep it
        f = S(2, 3, {(1, 0): 1.0, (0, 1): 1e-25})
        for g in (f, series_from_json(series_to_json(f)), f + TS.zero(2, 3), f * TS.one(2, 3)):
            assert g.terms == {(1, 0): 1.0, (0, 1): 1e-25}
        assert blowup(f, 0).terms == {(0, 1): 1.0, (1, 1): 1e-25}

    def test_exact_zero_never_stored(self):
        f = S(2, 4, {(1, 0): Fraction(0), (0, 1): QQi(0, 0)})
        assert f.is_zero

    def test_exponents_are_integers(self):
        # ints and numpy ints pass as they are; nothing else is rounded into one
        f = S(2, 5, {(numpy.int64(1), 2): 3})
        assert f.terms == {(1, 2): 3} and all(type(k) is int for k in next(iter(f.terms)))
        for e in ((1.5, 2), (-0.5, 2), ("1", 2), (Fraction(1), 2)):
            with pytest.raises(ValueError, match="integers"):
                S(2, 5, {e: 1, (1, 2): 2})

    def test_constructor_messages(self):
        # the exponent checks word their refusals as they always have
        for e, error, text in (((1, -1), ValueError, "negative exponent in (1, -1)"),
                               ((1,), DimensionMismatchError,
                                "exponent (1,) has length 1, expected 2"),
                               ((1.5, 2), ValueError,
                                "exponent (1.5, 2) is not a tuple of integers")):
            with pytest.raises(error) as info:
                S(2, 5, {e: 1})
            assert str(info.value) == text

    def test_truncation_and_dimension_are_integers(self):
        # a non-integral truncation or dimension is refused, not rounded
        for args, bad in (((2, 2.7, {(1, 0): 1, (2, 1): 3}), 2.7), ((2, "3", {}), "3"),
                          ((2, Fraction(7, 2), {}), Fraction(7, 2)), ((2.5, 4, {}), 2.5)):
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                S(*args)
        f = S(2, 3, {(1, 0): 1, (1, 1): 2})
        with pytest.raises(ValueError, match=re.escape("1.9")):
            f.with_trunc(1.9)
        # ints and numpy ints pass, and a truncation below -1 still means none
        g = S(numpy.int64(2), numpy.int32(1), {(1, 0): 1, (1, 1): 2})
        assert (type(g.dim), type(g.trunc), g.terms) == (int, int, {(1, 0): 1})
        assert type(f.with_trunc(numpy.int64(2)).trunc) is int
        assert S(2, -5, {(0, 0): 1}).trunc == -1 and f.with_trunc(-7).trunc == -1
        for dim in (0, -1, numpy.int64(0)):
            with pytest.raises(ValueError, match="dimension must be >= 1"):
                S(dim, 4, {})

    def test_parse_scalar(self):
        assert parse_scalar("3/4") == Fraction(3, 4)
        assert parse_scalar("1/2+1/3j") == QQi(Fraction(1, 2), Fraction(1, 3))
        z = parse_scalar("0.5-0.25j")
        assert isinstance(z, QQi) and z.im == Fraction(-1, 4)
        # an exact real is a Fraction however it is spelled, as JSON input reads it
        for text in ("1/2+0j", "1/2-0j", "0.5+0/3j"):
            assert type(parse_scalar(text)) is Fraction and parse_scalar(text) == Fraction(1, 2)


def same_series(a, b):
    """Equal dimension and truncation, and the same terms in the same order with
    coefficients equal in value and in type (mpmath floats bit for bit)."""
    assert (a.dim, a.trunc) == (b.dim, b.trunc)
    assert list(a.terms) == list(b.terms)
    for e, x in a.terms.items():
        y = b.terms[e]
        assert type(x) is type(y)
        if isinstance(x, mpmath.mpc):
            assert x._mpc_ == y._mpc_
        else:
            assert x == y and (not isinstance(x, QQi) or (x.re, x.im) == (y.re, y.im))


@st.composite
def ring_series(draw, dim, trunc, kind):
    """An exact (int/Fraction), QQi, 128-bit float or mixed series."""
    f = draw(exact_series(dim, trunc, qqi=kind in ("qqi", "mixed")))
    if kind == "float":
        return TS(dim, trunc, {e: smul(c, LAM) for e, c in f.terms.items()})
    return draw(mixed(f)) if kind == "mixed" else f


NEAR_MINUS_ONE = (-1, sadd(-1, mpmath.ldexp(1, -100)))
SCALARS = (0, 3, -1, Fraction(-2, 7), QQi(1, -2), QQi(0, 0), mpmath.mpc(0),
           mpmath.mpc("0.75", "-1.25"), LAM)


class TestBuiltOnce:
    """Ring operations build their result without the public constructor; each
    must equal, term by term and in type, that constructor on the same raw dict."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_ring_operations_match_the_constructor(self, data):
        dim, trunc = data.draw(st.sampled_from(((1, 10),) + SHAPES))
        kind = data.draw(st.sampled_from(("exact", "qqi", "float", "mixed")))
        f = data.draw(ring_series(dim, trunc, kind))
        g = data.draw(ring_series(dim, data.draw(st.integers(trunc - 2, trunc)), kind))
        if data.draw(st.booleans()):  # cancellation: float noise that every operation keeps
            near = st.sampled_from(NEAR_MINUS_ONE)
            g = TS(dim, g.trunc, {**g.terms, **{e: smul(c, data.draw(near))
                                                for e, c in f.terms.items()}})
        c = data.draw(st.sampled_from(SCALARS))
        i = data.draw(st.integers(0, dim - 1))
        t = data.draw(st.integers(-3, trunc + 2))
        low = min(f.trunc, g.trunc)

        def added(a, b):
            raw = dict(a)
            for e, v in b.items():
                raw[e] = sadd(raw[e], v) if e in raw else v
            return raw

        negated = {e: sneg(v) for e, v in g.terms.items()}
        same_series(f + g, TS(dim, low, added(f.terms, g.terms)))
        same_series(f - g, TS(dim, low, added(f.terms, negated)))
        same_series(-g, TS(dim, g.trunc, negated))
        same_series(c * f, TS(dim, f.trunc, {e: smul(v, c) for e, v in f.terms.items()}))
        same_series(f * c, c * f)
        same_series(f.differentiate(i), TS(dim, max(trunc - 1, -1), {
            e[:i] + (e[i] - 1,) + e[i + 1:]: smul(v, e[i]) for e, v in f.terms.items() if e[i]}))
        same_series(f.with_trunc(t), TS(dim, t, f.terms))

    def test_kernel_output_is_pruned_again(self):
        # the product keeps the 1 at x2 beside (2^64 - 1)(1 + i) at x1, as it keeps every
        # nonzero term; the ring operations and the constructor, which prune again, keep it too
        big = mpmath.mpc(2 ** 64 - 1, 2 ** 64 - 1)
        h = S(2, 4, {(1, 0): big, (0, 0): mpmath.mpc(1)}) * S(2, 4, {(0, 0): 1, (0, 1): 1})
        assert (0, 1) in h.terms
        same_series(h, TS(2, 4, h.terms))
        zero = S(2, 4, {})
        for got, raw in ((-h, {e: sneg(v) for e, v in h.terms.items()}), (h + zero, h.terms),
                         (h * 1, h.terms), (h.with_trunc(4), h.terms)):
            same_series(got, TS(2, 4, raw))
            assert (0, 1) in got.terms
        assert h + zero == h and h * 1 == h and -(-h) == h and h.with_trunc(h.trunc) == h

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_json_input_matches_the_constructor(self, data):
        dim, trunc = data.draw(st.sampled_from(((1, 10),) + SHAPES))
        kind = data.draw(st.sampled_from(("exact", "qqi", "float")))
        f = data.draw(ring_series(dim, trunc, kind))
        obj = series_to_json(f)
        obj["trunc"] = data.draw(st.integers(-3, trunc))
        same_series(series_from_json(obj), TS(dim, max(obj["trunc"], -1), {
            tuple(item["exp"]): scalar_from_json(item["coeff"]) for item in obj["terms"]}))

    def test_degree_table_matches_bisection(self):
        rng = random.Random(5)
        cases = [(1, 200, 1), (2, 200, 1), (3, 200, 1)]
        cases += [(rng.randint(1, 3), rng.randint(0, 40), rng.randint(0, 60)) for _ in range(200)]
        for dim, trunc, n in cases:
            packing = _Packing(dim, trunc)
            pairs = []
            for _ in range(n):
                e = [0] * dim
                for _ in range(rng.randint(0, trunc)):
                    e[rng.randrange(dim)] += 1
                pairs.append((packing.pack(e), rng.randint(-9, 9)))
            pairs = list(dict(pairs).items())
            sorted_pairs, table = _operand(pairs, trunc, packing.top)
            keys = [k for k, _ in sorted_pairs]
            assert sorted_pairs == sorted(pairs)
            assert table == [bisect_left(keys, (r + 1) << packing.top) for r in range(trunc + 1)]


class TestJson:
    def test_round_trip_exact(self):
        f = S(2, 6, {(1, 2): Fraction(-3, 7), (0, 0): QQi(1, Fraction(1, 2))})
        assert series_from_json(json.loads(json.dumps(series_to_json(f)))) == f
        # a JSON integer coefficient is read as an exact Fraction, like its string
        g = series_from_json({"dim": 2, "trunc": 6, "terms": [{"exp": [1, 2], "coeff": -3}]})
        assert type(g.terms[(1, 2)]) is Fraction and g == S(2, 6, {(1, 2): -3})

    def test_round_trip_float(self):
        f = S(2, 6, {(1, 1): mpmath.mpc("0.125", "-2.5")})
        g = series_from_json(json.loads(json.dumps(series_to_json(f))))
        assert g.terms[(1, 1)] == mpmath.mpc("0.125", "-2.5")

    def test_sorted_exponents_byte_stable(self):
        f = S(2, 6, {(2, 0): 1, (0, 1): 2, (1, 1): 3})
        blob1 = json.dumps(series_to_json(f))
        g = TS(2, 6, dict(reversed(list(f.terms.items()))))
        assert json.dumps(series_to_json(g)) == blob1

    def test_equal_series_serialize_equally(self):
        f = S(2, 6, {(1, 0): QQi(1, 1)}) + S(2, 6, {(1, 0): QQi(0, -1)})
        assert f == S(2, 6, {(1, 0): 1})
        assert series_to_json(f) == series_to_json(S(2, 6, {(1, 0): 1}))

    def test_malformed(self):
        with pytest.raises(ValueError):
            series_from_json({"dim": 2, "terms": []})
        with pytest.raises(ValueError):
            series_from_json({"dim": 2, "trunc": 4, "terms": [{"exp": [1], "coeff": "?"}]})

    @pytest.mark.parametrize("field, value", [
        ("dim", 2.9), ("trunc", 4.7), ("trunc", "4"), ("dim", True), ("exp", [1.5, 0]),
        ("exp", [1.0, 0]), ("exp", ["1", 0])])
    def test_non_integer_fields_refused(self, field, value):
        obj = {"dim": 2, "trunc": 4, "terms": [{"exp": [1, 0], "coeff": "1"}]}
        if field == "exp":
            obj["terms"][0]["exp"] = value
        else:
            obj[field] = value
        with pytest.raises(ValueError, match="expected an integer"):
            series_from_json(obj)

    @pytest.mark.parametrize("exps, match", [
        ([[1, 0], [0, 1], [1, 0]], r"terms\[2\]: repeated exponent \[1, 0\]"),
        ([[1, 0], [0, 1, 0]], r"terms\[1\]: exponent \[0, 1, 0\] has length 3")])
    def test_malformed_terms_refused(self, exps, match):
        obj = {"dim": 2, "trunc": 4, "terms": [{"exp": e, "coeff": "1"} for e in exps]}
        with pytest.raises(ValueError, match=match):
            series_from_json(obj)

    def test_no_information_trunc_round_trips(self):
        f = S(2, -1, {})
        g = series_from_json(json.loads(json.dumps(series_to_json(f))))
        assert g.trunc == -1 and g.is_zero


class TestCalculus:
    def test_differentiate(self):
        f = S(2, 6, {(3, 1): 2, (0, 2): 1})
        assert f.differentiate(0).terms == {(2, 1): 6}
        assert f.differentiate(0).trunc == 5
        assert f.differentiate(1).terms == {(3, 0): 2, (0, 1): 2}

    def test_eval_exact(self):
        f = S(2, 6, {(2, 1): Fraction(1, 2), (0, 0): 3})
        assert f.eval_at((Fraction(2), Fraction(3))) == Fraction(9)

    def test_eval_complex(self):
        f = S(2, 6, {(1, 1): 1})
        v = f.eval_at((mpmath.mpc(0, 1), mpmath.mpc(2)))
        assert v == mpmath.mpc(0, 2)

    def test_eval_point_length_checked(self):
        f = S(2, 6, {(1, 1): 1})
        for point in ((1,), (1, 2, 3)):
            with pytest.raises(DimensionMismatchError):
                f.eval_at(point)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_eval_matches_reference(self, data):
        """int, Fraction and QQi data and points: equal to the term-by-term sum."""
        dim, trunc = data.draw(st.sampled_from(SHAPES))
        qqi = data.draw(st.booleans())
        f = data.draw(exact_series(dim, trunc, qqi=qqi))
        x = data.draw(points(dim, qqi=qqi))
        assert f.eval_at(x) == ref_eval(f.terms, x)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_eval_float_matches_funnel_reference(self, data):
        """mpc data and points: within 2^(16 - prec) max|c| of the term-by-term sum
        on the s* funnel, and exact exactly when it is."""
        dim, trunc = data.draw(st.sampled_from(SHAPES))
        f = data.draw(mixed(data.draw(exact_series(dim, trunc, qqi=True))))
        x = data.draw(points(dim, qqi=True, floats=True))
        v, ref = f.eval_at(x), ref_eval(f.terms, x, sadd, smul)
        if is_exact(ref):
            assert is_exact(v) and v == ref
        else:
            scale = max((sabs(c) for c in f.terms.values()), default=0)
            assert sabs(sadd(v, sneg(ref))) <= scale * mpmath.mpf(2) ** (16 - working_prec())

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_pow(self, data):
        """f**n for n = 0..6 on int/Fraction, QQi, float and mixed data: exact data equal
        to the repeated product f*...*f (the int 1 for n = 0) in terms, types and trunc;
        float data within 2^(8 - prec) max|c| of that product on the s* funnel at 4
        times the working precision, and exact exactly where it is."""
        p = S(2, 12, {(0, 2): 1, (3, 0): -1})
        assert p ** 3 == p * p * p and p ** 0 == TS.one(2, 12)
        dim, trunc = data.draw(st.sampled_from(((1, 10),) + SHAPES))
        kind = data.draw(st.sampled_from(("exact", "qqi", "float", "mixed")))
        f = data.draw(ring_series(dim, trunc, kind))
        n = data.draw(st.integers(0, 6))
        out = f ** n
        if kind in ("exact", "qqi"):
            ref = TS.one(dim, trunc)
            for _ in range(n):
                ref = ref * f
            assert (out.dim, out.trunc) == (ref.dim, ref.trunc)
            assert ({e: (type(c), c) for e, c in out.terms.items()}
                    == {e: (type(c), c) for e, c in ref.terms.items()})
        else:
            ref = {(0,) * dim: 1}
            with mpmath.mp.workprec(4 * working_prec()):
                for _ in range(n):
                    ref = ref_mul(ref, f.terms, trunc, sadd, smul)
            assert_near_reference([out], [TS(dim, trunc, ref)], margin=8)

    @pytest.mark.parametrize("n", [-1, 1.5, Fraction(2)])
    def test_pow_exponent_checked(self, n):
        with pytest.raises(ValueError, match="nonnegative integer exponents"):
            S(2, 5, {(1, 1): 1}) ** n

    def test_pow_exponent_read_as_integer(self):
        # the exponent is read by operator.index, as every integer argument is: a numpy
        # integer is one, a float or a Fraction is not, whatever its value
        f = S(2, 5, {(1, 1): 1, (1, 0): Fraction(1, 3)})
        assert f ** numpy.int64(2) == f * f
        for n in (2.0, Fraction(2)):
            with pytest.raises(ValueError, match=re.escape(f"exponent {n!r} is not an integer")):
                f ** n
        with pytest.raises(ValueError, match=re.escape("exponent -2 is negative")):
            f ** numpy.int64(-2)

    def test_variable_index_checked(self):
        # a variable and a derivative take the same indices 0 .. dim - 1
        assert TS.variable(1, 3, 4).terms == {(0, 1, 0): 1}
        f = S(3, 4, {(1, 1, 1): 1})
        for i in (-1, -3, 3, 7):
            for refused in (lambda: TS.variable(i, 3, 4), lambda: f.differentiate(i)):
                with pytest.raises(ValueError, match=f"variable index {i} out of range"):
                    refused()
        # an index is an integer, never read from a float, a Fraction or a string
        for i in (1.0, Fraction(1), "1"):
            for refused in (lambda: TS.variable(i, 3, 4), lambda: f.differentiate(i)):
                with pytest.raises(ValueError,
                                   match=re.escape(f"variable index {i!r} is not an integer")):
                    refused()
        with pytest.raises(ValueError, match=re.escape("dimension 2.5 is not an integer")):
            TS.variable(0, 2.5, 4)
