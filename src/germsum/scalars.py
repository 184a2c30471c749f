"""Coefficient domains for truncated series.

Three kinds of scalars circulate in this package:

* exact rationals (``fractions.Fraction``, plain ``int``),
* exact complex rationals (:class:`QQi`),
* arbitrary-precision complex floats (``mpmath.mpf`` / ``mpmath.mpc``).

Exact scalars support equality tests; floats carry their precision in the
mpmath representation.  One promotion rule: exact stays exact, and anything
touching a float becomes an ``mpc`` at :func:`working_prec`.  :class:`QQi`'s
operators carry it: they promote ``int`` and ``Fraction`` operands to
``QQi`` and an mpmath operand the other way, so plain ``+`` and ``*`` follow
the rule on every pair the series kernel meets (``int`` and ``Fraction``
meet mpmath through mpmath itself, which the kernel runs at the working
precision).  The ``s*`` helpers below apply the rule to any two scalars,
each call at the working precision.
"""
from __future__ import annotations

import os
from fractions import Fraction

import mpmath
from mpmath import mp

DEFAULT_PREC_BITS = int(os.environ.get("GERMSUM_PREC_BITS", "128"))


def working_prec(prec=None):
    """The precision in bits to compute at: ``prec`` when given, else the
    ambient ``mp.prec`` floored at :data:`DEFAULT_PREC_BITS`."""
    return int(prec) if prec else max(mp.prec, DEFAULT_PREC_BITS)


def _wp():
    """Float scalar ops run at :func:`working_prec`."""
    return mp.workprec(working_prec())

_EXACT_REAL = (int, Fraction)
_FLOAT = (mpmath.mpf, mpmath.mpc)


class QQi:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, *a):
        raise AttributeError("QQi is immutable")

    def __add__(self, other):
        if isinstance(other, QQi):
            return QQi(self.re + other.re, self.im + other.im)
        if isinstance(other, _EXACT_REAL):
            return QQi(self.re + other, self.im)
        if isinstance(other, _FLOAT):
            with _wp():
                return to_mpc(self) + other
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re or self.im)

    def __sub__(self, other):
        if isinstance(other, _FLOAT):
            with _wp():
                return to_mpc(self) - other
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, QQi):
            return QQi(self.re * other.re - self.im * other.im,
                       self.re * other.im + self.im * other.re)
        if isinstance(other, _EXACT_REAL):
            return QQi(self.re * other, self.im * other)
        if isinstance(other, _FLOAT):
            with _wp():
                return to_mpc(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _EXACT_REAL):
            return QQi(self.re / other, self.im / other)
        if isinstance(other, QQi):
            n2 = other.re * other.re + other.im * other.im
            if n2 == 0:
                raise ZeroDivisionError("division by zero QQi")
            return self * QQi(other.re / n2, -other.im / n2)
        return NotImplemented

    def __rtruediv__(self, other):
        n2 = self.re * self.re + self.im * self.im
        if n2 == 0:
            raise ZeroDivisionError("division by zero QQi")
        return QQi(other) * QQi(self.re / n2, -self.im / n2)

    def __eq__(self, other):
        if isinstance(other, QQi):
            return self.re == other.re and self.im == other.im
        if isinstance(other, _EXACT_REAL):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        if self.im == 0:
            return f"QQi({self.re})"
        return f"QQi({self.re}, {self.im})"


def is_exact(x):
    return isinstance(x, (int, Fraction, QQi))


def to_mpc(x):
    """Any supported scalar -> mpc; float values pass through unrounded, an
    exact rational part is rounded to the working precision."""
    if isinstance(x, mpmath.mpc):
        return x
    if isinstance(x, mpmath.mpf):
        return mp.make_mpc((x._mpf_, mpmath.libmp.fzero))
    with _wp():
        if isinstance(x, QQi):
            return mpmath.mpc(mpmath.mpf(x.re.numerator) / x.re.denominator,
                              mpmath.mpf(x.im.numerator) / x.im.denominator)
        if isinstance(x, Fraction):
            return mpmath.mpc(mpmath.mpf(x.numerator) / x.denominator)
        if isinstance(x, (int, float, complex)):
            return mpmath.mpc(x)
    raise TypeError(f"cannot convert {x!r} to a complex float")


def sadd(a, b):
    if is_exact(a) and is_exact(b):
        return a + b
    with _wp():
        return to_mpc(a) + to_mpc(b)


def smul(a, b):
    if is_exact(a) and is_exact(b):
        return a * b
    with _wp():
        return to_mpc(a) * to_mpc(b)


def sdiv(a, b):
    if is_exact(a) and is_exact(b):
        # int / int would give a float: start from Fraction
        return (Fraction(a) if isinstance(a, int) else a) / b
    with _wp():
        return to_mpc(a) / to_mpc(b)


def sneg(a):
    if is_exact(a):
        return -a
    with _wp():
        return -to_mpc(a)


def is_zero(x):
    return x == 0


def scalar_eq(a, b):
    """Equality across scalar kinds; float scalars compare exactly."""
    if is_exact(a) and is_exact(b):
        return a == b
    return to_mpc(a) == to_mpc(b)


def sabs(x):
    """|x| as an mpf (exact inputs are converted at the working precision)."""
    if is_zero(x):
        return mpmath.mpf(0)
    with _wp():
        return abs(to_mpc(x))


def sabs_float(x):
    try:
        return float(sabs(x))
    except OverflowError:
        return float("inf")


def scalar_to_json(c):
    if isinstance(c, (int, Fraction)):
        f = Fraction(c)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    if isinstance(c, QQi):
        if c.im == 0:
            return scalar_to_json(c.re)
        return {"re": scalar_to_json(c.re), "im": scalar_to_json(c.im)}
    z = to_mpc(c)
    return {"re": float(z.real), "im": float(z.imag)}


def _finite(x, source):
    """x itself, or ValueError when the float scalar x is a NaN or an infinity."""
    if not mpmath.isfinite(x):
        raise ValueError(f"non-finite scalar {source!r}")
    return x


def scalar_from_json(obj):
    if isinstance(obj, str):
        return Fraction(obj)
    if isinstance(obj, (int, float)):
        if isinstance(obj, int):
            return Fraction(obj)
        return _finite(mpmath.mpf(obj), obj)
    if isinstance(obj, dict) and set(obj) <= {"re", "im"}:
        re, im = obj.get("re", 0), obj.get("im", 0)
        if isinstance(re, str) or isinstance(im, str):
            q = QQi(Fraction(str(re)), Fraction(str(im)))
            return q.re if q.im == 0 else q
        return _finite(mpmath.mpc(re, im), obj)
    raise ValueError(f"unrecognized coefficient encoding: {obj!r}")


def parse_scalar(text):
    """Parse a user-facing scalar: '3/4', '-2', '0.5', '1/2+1/3j', '0.1-0.2j'.

    A NaN or an infinity raises ``ValueError``."""
    s = text.strip().replace(" ", "")
    try:
        return Fraction(s)
    except ValueError:
        pass
    if s.endswith(("j", "J", "i", "I")):
        body = s[:-1]
        # split mantissa into re/im on the last +/- that is not an exponent sign
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "eE":
                re_part, im_part = body[:pos], body[pos:]
                break
        else:
            re_part, im_part = "0", body
        if im_part in ("", "+", "-"):
            im_part += "1"
        try:
            return QQi(Fraction(re_part), Fraction(im_part))
        except ValueError:
            return _finite(mpmath.mpc(mpmath.mpf(re_part), mpmath.mpf(im_part)), text)
    try:
        value = mpmath.mpf(s)
    except ValueError:
        raise ValueError(f"cannot parse scalar {text!r}") from None
    return _finite(value, text)
