import math
from fractions import Fraction

import mpmath
import pytest

from germsum.gevrey import NormSequence, fit_gevrey, norm_sequence
from germsum.harness import gen_example
from germsum.scalars import QQi
from germsum.series import MonomialOrder, TruncatedSeries
from germsum.transforms import INFINITY, blowup
from germsum.weierstrass import Germ, p_expand

TS = TruncatedSeries


def ns_from(norms, rho=0.5):
    return NormSequence(rho, tuple(norms))


def remark_triple(trunc=212):
    ex = gen_example("remark79", trunc)
    direct = p_expand(ex.f, Germ(ex.p, ex.order), 41)
    germ0 = Germ(blowup(ex.p, 0), MonomialOrder((1, 1)))
    b0 = p_expand(blowup(ex.f, 0), germ0, 61)
    binf = p_expand(blowup(ex.f, INFINITY), germ0, 41)
    return direct, b0, binf


class TestNormSequence:
    def test_factorial_coefficients(self):
        direct, _, _ = remark_triple(84)
        ns = norm_sequence(direct, Fraction(1, 2))
        for n in range(12):
            assert ns.norms[n] == pytest.approx(math.factorial(n) / 4 ** n)

    def test_all_ones(self):
        germ = Germ(TS(2, 10, {(1, 1): 1}), MonomialOrder((1, 1)))
        coeffs = [TS.one(2, 10) for _ in range(5)]
        from germsum.weierstrass import PExpansion
        ns = norm_sequence(PExpansion(germ, coeffs, 10), 0.5)
        assert all(x == 1.0 for x in ns.norms)

    def test_zero_mask(self):
        _, b0, _ = remark_triple(100)
        # the chart-0 expansion has a zero coefficient at n = 1, which the fit skips
        ns = norm_sequence(b0, 0.5)
        assert ns.norms[1] == 0.0 and ns.norms[2] != 0.0

    @pytest.mark.parametrize("rho", [QQi(1, 1), mpmath.mpc(1, 1)])
    def test_complex_radius_refused(self, rho):
        # ValueError naming the radius, with or without coefficients to norm
        from germsum.weierstrass import PExpansion
        germ = Germ(TS(2, 10, {(1, 1): 1}), MonomialOrder((1, 1)))
        for depth in (0, 3):
            expansion = PExpansion(germ, [TS.one(2, 10)] * depth, 10)
            with pytest.raises(ValueError, match="radius"):
                norm_sequence(expansion, rho)


class TestFitGevrey:
    def test_exact_gamma_model(self):
        norms = [math.gamma(n + 1) for n in range(41)]
        est = fit_gevrey(ns_from(norms), 5)
        assert est.s == pytest.approx(1.0, abs=1e-8)
        assert est.rms_residual < 1e-10
        assert est.logA == pytest.approx(0.0, abs=1e-8)

    def test_blowup_zero_chart_half(self):
        _, b0, _ = remark_triple()
        est = fit_gevrey(norm_sequence(b0, Fraction(1, 2)), 5)
        assert 0.4 <= est.s <= 0.6

    def test_blowup_infinity_chart_one(self):
        _, _, binf = remark_triple()
        est = fit_gevrey(norm_sequence(binf, Fraction(1, 2)), 5)
        assert 0.9 <= est.s <= 1.1

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="need at least 4 nonzero norms with index >= 5, have 1"):
            fit_gevrey(ns_from([1.0] * 6), 5)

    def test_non_integer_n_min_refused(self):
        # n_min = 4.5 fitted from n = 5
        with pytest.raises(ValueError, match="n_min 4.5 is not an integer"):
            fit_gevrey(ns_from([float(math.factorial(n)) for n in range(20)]), 4.5)

    def test_convergent_clamped(self):
        # entire-function decay fits a negative order: clamp to 0 and flag
        norms = [1.0 / math.gamma(n + 1) for n in range(30)]
        est = fit_gevrey(ns_from(norms), 5)
        assert est.s == 0.0 and est.convergent_type

    def test_rho_invariance_of_order(self):
        direct, _, _ = remark_triple()
        e1 = fit_gevrey(norm_sequence(direct, Fraction(1, 2)), 5)
        e2 = fit_gevrey(norm_sequence(direct, Fraction(1, 4)), 5)
        assert abs(e1.s - e2.s) < 0.05
        assert e2.logA < e1.logA  # only the geometric factor moves

    def test_sparse_original_index(self):
        # norms on even indices only, gamma(n/2+1)-type growth: order 1/2
        norms = [math.gamma(n / 2 + 1) * 0.5 ** (n / 2) if n % 2 == 0 else 0.0
                 for n in range(61)]
        est = fit_gevrey(ns_from(norms), 5)
        assert 0.4 <= est.s <= 0.6


class TestEstimateJson:
    def test_fields(self):
        est = fit_gevrey(ns_from([math.gamma(n + 1) for n in range(30)]), 5)
        blob = est.to_json()
        assert set(blob) >= {"s", "logK", "logA", "rms_residual", "n_range",
                             "convergent_type"}
        assert est.k == pytest.approx(1.0, abs=1e-6)
