"""The promotion rule of germsum.scalars against a reference on (re, im) pairs.

Exact operands (int, Fraction, QQi) must give the exact result, and a QQi
whenever an operand is one; an mpc operand must give the result of mpmath
at working precision on the other operand rounded once to that precision.
"""
import math
import re
from fractions import Fraction

import mpmath
import numpy
import pytest
from hypothesis import given, strategies as st
from mpmath import mp

from germsum.scalars import (QQi, bit_mag, gi_below, gi_div, gi_from_mpc, gi_horner, gi_lift, gi_mul,
                             gi_sub, gi_submul, gi_to_mpc, is_exact, is_zero, parse_scalar, sadd,
                             scalar_eq, scalar_from_json, sdiv, smul, sneg, to_mpc, working_prec)

ints = st.integers(-60, 60)
fractions = st.fractions(min_value=-60, max_value=60, max_denominator=40)
qqis = st.builds(QQi, fractions, st.one_of(st.just(Fraction(0)), fractions))
exact = st.one_of(ints, fractions, qqis)


def pair(x):
    if isinstance(x, QQi):
        return (x.re, x.im)
    return (Fraction(x), Fraction(0))


def ref_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def ref_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def ref_div(a, b):
    n2 = b[0] * b[0] + b[1] * b[1]
    return ref_mul(a, (b[0] / n2, -b[1] / n2))


def wp_mpc(x):
    """x rounded once per part to the working precision."""
    re, im = pair(x)
    with mp.workprec(working_prec()):
        return mpmath.mpc(mpmath.mpf(re.numerator) / re.denominator,
                          mpmath.mpf(im.numerator) / im.denominator)


def check_exact(result, ref, *operands):
    assert is_exact(result)
    assert isinstance(result, QQi) == any(isinstance(x, QQi) for x in operands)
    assert pair(result) == ref


class TestExactOperands:
    @given(exact, exact)
    def test_add_mul(self, a, b):
        check_exact(sadd(a, b), ref_add(pair(a), pair(b)), a, b)
        check_exact(smul(a, b), ref_mul(pair(a), pair(b)), a, b)

    @given(exact, exact)
    def test_div(self, a, b):
        if pair(b) == (0, 0):
            with pytest.raises(ZeroDivisionError):
                sdiv(a, b)
        else:
            check_exact(sdiv(a, b), ref_div(pair(a), pair(b)), a, b)

    @given(exact)
    def test_neg(self, a):
        check_exact(sneg(a), (-pair(a)[0], -pair(a)[1]), a)

    @given(exact, exact)
    def test_eq_and_zero(self, a, b):
        assert scalar_eq(a, b) == (pair(a) == pair(b))
        assert is_zero(a) == (pair(a) == (0, 0))
        assert bool(a) == (pair(a) != (0, 0))

    @given(qqis, st.one_of(ints, fractions))
    def test_sub_both_ways(self, q, x):
        check_exact(q - x, (q.re - x, q.im), q, x)
        check_exact(x - q, (x - q.re, -q.im), q, x)

    @given(st.one_of(ints, fractions))
    def test_hash_matches_real_part(self, x):
        assert hash(QQi(x)) == hash(x)

    @pytest.mark.parametrize("num", [QQi(1, 2), 3, Fraction(1, 3)])
    def test_division_by_zero_qqi(self, num):
        with pytest.raises(ZeroDivisionError):
            num / QQi(0)


def long_mpc(re, im):
    """An mpc with mantissas longer than the working precision."""
    with mp.workprec(2 * working_prec()):
        return mpmath.mpc(re.numerator, im.numerator) / (3 * re.denominator * im.denominator)


mpcs = st.builds(long_mpc, fractions, fractions)


class TestFloatOperand:
    @given(mpcs, exact)
    def test_ops_round_at_working_precision(self, z, x):
        zx = wp_mpc(x)
        with mp.workprec(working_prec()):
            want_add, want_mul, want_neg = z + zx, z * zx, -z
            want_div = z / zx if zx != 0 else None
            want_rdiv = zx / z if z != 0 else None
        for got, want in ((sadd(z, x), want_add), (sadd(x, z), want_add),
                          (smul(z, x), want_mul), (smul(x, z), want_mul),
                          (sneg(z), want_neg)):
            assert isinstance(got, mpmath.mpc) and got._mpc_ == want._mpc_
        if want_div is not None:
            assert sdiv(z, x)._mpc_ == want_div._mpc_
        if want_rdiv is not None:
            assert sdiv(x, z)._mpc_ == want_rdiv._mpc_
        assert scalar_eq(z, x) == (z == zx)
        assert scalar_eq(zx, x)
        assert is_zero(z) == (z == 0)

    @given(mpcs, qqis)
    def test_qqi_operators_promote_floats(self, z, q):
        # plain +, - and * on a QQi and an mpc follow the promotion rule, also
        # under a lower ambient precision
        qz = wp_mpc(q)
        with mp.workprec(working_prec()):
            wants = (qz + z, qz * z, qz - z, z - qz)
        with mp.workprec(53):
            for got, want in ((q + z, wants[0]), (z + q, wants[0]), (q * z, wants[1]),
                              (z * q, wants[1]), (q - z, wants[2]), (z - q, wants[3])):
                assert isinstance(got, mpmath.mpc) and got._mpc_ == want._mpc_

    def test_exact_converts_at_working_precision_under_low_ambient(self):
        with mp.workprec(53):
            for x in (Fraction(1, 3), QQi(Fraction(1, 3), Fraction(1, 7))):
                z = to_mpc(x)
                assert z._mpc_ == wp_mpc(x)._mpc_
                assert z.real._mpf_[3] > 53


@pytest.mark.parametrize("text", ["nan", "NaN", "inf", "-inf", "+inf", "nan+1j", "1-infj"])
def test_parse_scalar_refuses_non_finite(text):
    with pytest.raises(ValueError, match="non-finite"):
        parse_scalar(text)


@pytest.mark.parametrize("obj", [float("nan"), float("inf"), -float("inf"),
                                 {"re": float("nan"), "im": 0.0}, {"re": 1.0, "im": float("-inf")}])
def test_scalar_from_json_refuses_non_finite(obj):
    with pytest.raises(ValueError, match="non-finite"):
        scalar_from_json(obj)


@pytest.mark.parametrize("obj", [True, False, {}, {"re": True}, {"re": "1", "im": False},
                                 {"re": 1.0, "im": True}])
def test_scalar_from_json_refuses_booleans_and_empty_objects(obj):
    # never read as 1, 0 or 1.0: the error names the coefficient
    with pytest.raises(ValueError, match=re.escape(repr(obj))):
        scalar_from_json(obj)


@pytest.mark.parametrize("obj", [{"re": "1/3", "im": 0.1}, {"re": 1e300, "im": "0"},
                                 {"re": 0.5, "im": "1"}])
def test_scalar_from_json_refuses_a_string_part_beside_a_float_part(obj):
    # the float was read through its decimal repr as an exact rational
    with pytest.raises(ValueError, match=re.escape(repr(obj))):
        scalar_from_json(obj)
    # a string beside an integer stays exact, numbers beside numbers stay float
    assert scalar_from_json({"re": "1/3", "im": 2}) == QQi(Fraction(1, 3), 2)
    assert scalar_from_json({"re": 0, "im": 0.1}) == mpmath.mpc(0, 0.1)


# Gaussian-integer kernel: each helper against mpmath at 600 bits, within
# 2^(4 - w) of the result (of the larger operand for a difference)
KERNEL_W = 138
mantissas = st.integers(-(2 ** 80), 2 ** 80)
kernel_values = st.builds(lambda re, im, e: mpmath.mpc(mpmath.ldexp(re, e), mpmath.ldexp(im, e)),
                          mantissas, mantissas, st.integers(-700, 700))


def kernel(z):
    with mp.workprec(600):
        return gi_from_mpc(z, KERNEL_W)


def close(got, want, size):
    with mp.workprec(600):
        return abs(gi_to_mpc(got) - want) <= size * mpmath.ldexp(1, 4 - KERNEL_W)


@given(a=kernel_values, b=kernel_values, c=kernel_values)
def test_kernel_ops_match_mpmath(a, b, c):
    ka, kb, kc = kernel(a), kernel(b), kernel(c)
    with mp.workprec(600):
        assert close(gi_mul(ka, kb, KERNEL_W), a * b, abs(a * b))
        assert close(gi_sub(ka, kb, KERNEL_W), a - b, max(abs(a), abs(b)))
        # a - a (1 + 2^-40): the cancellation is exact up to the inputs
        near = a * (1 + mpmath.ldexp(1, -40))
        assert close(gi_sub(ka, kernel(near), KERNEL_W), a - near, abs(a))
        assert close(gi_submul(kc, ka, kb, KERNEL_W), c - a * b, max(abs(c), abs(a * b)))
        assert close(gi_horner([ka, kb, kc], kc, KERNEL_W), (a * c + b) * c + c,
                     (abs(a * c) + abs(b)) * abs(c) + abs(c))
        if b:
            assert close(gi_div(ka, kb, KERNEL_W), a / b, abs(a / b))


def test_kernel_conversion():
    # exact both ways when both parts fit the width under one exponent; a
    # part far below the other is cut; inf and nan have no mantissa
    z = mpmath.mpc(mpmath.ldexp(3, -100), -5)
    assert gi_to_mpc(gi_from_mpc(z, KERNEL_W)) == z
    far = mpmath.mpc(mpmath.ldexp(3, -900), -5)
    assert gi_to_mpc(gi_from_mpc(far, KERNEL_W)) == -5j
    assert gi_from_mpc(Fraction(-3, 4), KERNEL_W) == (-3, 0, -2)
    for bad in (mpmath.inf, mpmath.nan):
        with pytest.raises(ValueError):
            gi_from_mpc(mpmath.mpc(1, bad), KERNEL_W)
    with pytest.raises(ZeroDivisionError):
        gi_div((1, 0, 0), (0, 0, 5), KERNEL_W)


@given(re=st.integers(-2 ** 70, 2 ** 70), im=st.integers(-2 ** 70, 2 ** 70),
       e=st.integers(-3000, 3000), r=st.integers(0, 2 ** 40), k=st.integers(-3000, 3000))
def test_below_is_exact(re, im, e, r, k):
    # |a| < r 2^k on the mantissas, beyond the float range too, and on the
    # boundary |a| = r 2^k itself
    norm = Fraction(re * re + im * im) * Fraction(2) ** (2 * e)
    assert gi_below((re, im, e), r, k) == (norm < Fraction(r * r) * Fraction(2) ** (2 * k))
    assert not gi_below((r, 0, k), r, k) and not gi_below((0, -r, k), r, k)
    assert gi_below((3, 4, e), 5, e) is False and gi_below((3, 4, e), 41, e - 3) is True


BINARY_FLOATS = [0.0, -0.0, 1.0, -2.5, 0.1, 5e-324, -2.2250738585072014e-308 / 3,
                 2.0 ** 1000 * 1.5, -(2.0 ** 1023) * 1.999, 2.0 ** -1000 * 1.25, 3.0 * 2.0 ** -1070]


@pytest.mark.parametrize("bits", [53, 160, 2200])
def test_float_lift_reads_the_mantissa(bits):
    # a binary float lifts as its exact mpc lifts: Python's and numpy's, real and complex
    values = BINARY_FLOATS + [complex(a, b) for a in BINARY_FLOATS for b in BINARY_FLOATS[::3]]
    values += [numpy.float64(x) for x in BINARY_FLOATS]
    values += [numpy.complex128(complex(x, -x / 7)) for x in BINARY_FLOATS]
    with mp.workprec(60):  # any precision of 53 bits or more holds a double exactly
        exact = [mpmath.mpc(x) for x in values]
    for one, ref in zip(values, exact):
        assert gi_lift([one], bits) == gi_lift([ref], bits)
        if one:
            assert bit_mag(one) == bit_mag(ref)
    assert gi_lift(values, bits) == gi_lift(exact, bits)
    for bad in (math.inf, -math.nan, complex(1, math.inf), numpy.float64("nan")):
        with pytest.raises(ValueError, match="non-finite"):
            gi_lift([1.0, bad], bits)
