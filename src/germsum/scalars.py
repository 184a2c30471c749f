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
the rule on any pair of these scalars (``int`` and ``Fraction`` meet mpmath
through mpmath itself, at mpmath's precision).  The ``s*`` helpers below
apply the rule to any two scalars, each call at the working precision; the
series kernel applies it to whole operands (see :mod:`germsum.series`).

The ``gi_*`` helpers at the end are a small Gaussian-integer kernel for
numerical loops: a complex number ``(re, im, exp)`` is two int mantissas
with a shared binary exponent, and every operation truncates the result to
a width of ``w`` bits, so the loops run on Python ints and not on mpmath
objects.  :func:`gi_lift` puts many scalars on one such exponent, the float
lift of the series kernel.

Every module that returns a result record imports this one, so it also
holds :class:`Record`, the base of those records.
"""
from __future__ import annotations

import math
import operator
import os
from fractions import Fraction

import mpmath
from mpmath import mp
from mpmath.libmp import from_float, from_man_exp, round_nearest

DEFAULT_PREC_BITS = int(os.environ.get("GERMSUM_PREC_BITS", "128"))


# Bits between the accuracy of float data and the smallest size, relative to
# the data it came from, that still counts as nonzero: a value at most
# 2^(NOISE_MARGIN - d) of its data's size, for data accurate to d bits, cannot
# be told from zero (the rank cut of the Pade layer, the noise cut of the
# float elimination by a germ).
NOISE_MARGIN = 16


def working_prec(prec=None):
    """The precision in bits to compute at: ``prec`` when given, else the
    ambient ``mp.prec`` floored at :data:`DEFAULT_PREC_BITS`."""
    return int(prec) if prec else max(mp.prec, DEFAULT_PREC_BITS)


def integer_arg(value, name):
    """An integer argument (a depth, a count, a truncation) as an int, by
    ``operator.index``: a float or a Fraction raises ``ValueError`` naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} {value!r} is not an integer") from None


class Record:
    """Base of the package's immutable values (the germ, its order, the
    expansion, the Pade approximant, the result records ``SumResult``,
    ``GevreyEstimate``, ...), written out so that importing them loads
    neither ``dataclasses`` nor ``inspect`` and generates no code.

    A subclass's fields are the names it annotates, in order.  A class
    attribute of the same name is the field's default; a default that is a
    class (``dict``) is called for a fresh value per instance.  A record is
    built from its fields by position or keyword, compares and hashes as the
    tuple of its fields (only with a record of its own class), prints as
    ``Name(field=value, ...)`` and raises ``AttributeError`` on assignment
    and on deletion.  Its instance ``__dict__`` holds the fields, and a
    ``cached_property``'s value once read (derived data and memos).  The
    values built in the kernel's loops (``QQi``, ``TruncatedSeries``) keep
    ``__slots__``, their own constructors, equality, hash and repr, and take
    only the guard.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        cls, names = type(self), self._fields
        values = dict(zip(names, args))
        for name in names[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in vars(cls):
                default = vars(cls)[name]
                values[name] = default() if isinstance(default, type) else default
        if len(args) > len(names) or kwargs or len(values) < len(names):
            raise TypeError(f"{cls.__name__} takes each of the fields {', '.join(names)} once, "
                            f"and all those without a default")
        self.__dict__.update(values)

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


def _wp():
    """Float scalar ops run at :func:`working_prec`."""
    return mp.workprec(working_prec())

_EXACT_REAL = (int, Fraction)
_FLOAT = (mpmath.mpf, mpmath.mpc)


class QQi(Record):
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

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


_EXACT = _EXACT_REAL + (QQi,)


def is_exact(x):
    return isinstance(x, _EXACT)


def to_mpc(x):
    """Any supported scalar -> mpc; float values pass through unrounded (a binary
    ``float`` or ``complex``, numpy's float64 and complex128 too, is read exactly
    from its mantissa), an exact rational part is rounded to the working precision."""
    if isinstance(x, mpmath.mpc):
        return x
    if isinstance(x, mpmath.mpf):
        return mp.make_mpc((x._mpf_, mpmath.libmp.fzero))
    if isinstance(x, (float, complex)):
        return mp.make_mpc((from_float(x.real), from_float(x.imag)))
    with _wp():
        if isinstance(x, QQi):
            return mpmath.mpc(mpmath.mpf(x.re.numerator) / x.re.denominator,
                              mpmath.mpf(x.im.numerator) / x.im.denominator)
        if isinstance(x, Fraction):
            return mpmath.mpc(mpmath.mpf(x.numerator) / x.denominator)
        if isinstance(x, int):
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
    """|x| as a float: exactly rounded for an int or a Fraction, else through
    :func:`sabs`; inf beyond the float range."""
    try:
        if isinstance(x, _EXACT_REAL):
            return abs(x.numerator) / x.denominator
        return float(sabs(x))
    except OverflowError:
        return float("inf")


def ldexp_inf(x, e):
    """x 2^e for a float x >= 0, inf above the float range."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.inf


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
    """A JSON coefficient: a string or an integer is an exact rational, a float an
    mpf, and an object with "re" and/or "im" an exact complex rational (a string
    part, beside a string or an integer) or an mpc (numbers only).  ``ValueError``,
    naming the coefficient, for a NaN, an infinity, a zero denominator, a boolean
    (the coefficient or one of its parts), a string part beside a float part and
    an object with neither part."""
    if any(isinstance(x, bool) for x in (obj.values() if isinstance(obj, dict) else (obj,))):
        raise ValueError(f"a JSON boolean is not a coefficient: {obj!r}")
    try:
        if isinstance(obj, (str, int)):
            return Fraction(obj)
        if isinstance(obj, float):
            return _finite(mpmath.mpf(obj), obj)
        if isinstance(obj, dict) and obj and set(obj) <= {"re", "im"}:
            re, im = obj.get("re", 0), obj.get("im", 0)
            if isinstance(re, str) or isinstance(im, str):
                if isinstance(re, float) or isinstance(im, float):
                    raise ValueError(f"a JSON coefficient mixes a string and a float part: {obj!r}")
                q = QQi(Fraction(str(re)), Fraction(str(im)))
                return q.re if q.im == 0 else q
            return _finite(mpmath.mpc(re, im), obj)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {obj!r}") from None
    raise ValueError(f"unrecognized coefficient encoding: {obj!r}")


def parse_scalar(text):
    """Parse a user-facing scalar exactly: '3/4', '-2', '0.5' (1/2), '1/2+1/3j',
    '0.1-0.2j', as a ``Fraction``, or a ``QQi`` when the imaginary part is not zero.

    A NaN, an infinity, a zero denominator or any other text raises ``ValueError``."""
    s = text.strip().replace(" ", "")
    re_part, im_part = s, "0"
    if s.endswith(("j", "J", "i", "I")):
        body = s[:-1]
        # split mantissa into re/im on the last +/- that is not an exponent sign
        pos = next((i for i in range(len(body) - 1, 0, -1)
                    if body[i] in "+-" and body[i - 1] not in "eE"), 0)
        re_part, im_part = body[:pos] or "0", body[pos:]
        if im_part in ("", "+", "-"):
            im_part += "1"
    try:
        q = QQi(re_part, im_part)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {text!r}") from None
    except ValueError:
        if any(part.lstrip("+-").lower() in ("inf", "infinity", "nan")
               for part in (re_part, im_part)):
            raise ValueError(f"non-finite scalar {text!r}") from None
        raise ValueError(f"cannot parse scalar {text!r}") from None
    return q.re if q.im == 0 else q


# -- Gaussian-integer kernel -------------------------------------------------
#
# A kernel number (re, im, exp) is (re + i im) 2^exp with int mantissas of at
# most w bits.  Each helper truncates its result to w bits: its error is
# below 2^(2 - w) of the result's larger component plus, for a sum,
# 2^-(w + 1) of the larger operand.  Zero is (0, 0, e) for any e.

GI_ONE = (1, 0, 0)


def gi_width(prec):
    """The kernel width of the Pade layer: twice the working precision plus
    10 guard bits, the width ``mpmath.lu_solve`` ran its 2*prec solve at."""
    return 2 * prec + 10


def _gi_norm(re, im, e, w):
    n = re.bit_length()
    k = im.bit_length()
    if k > n:
        n = k
    n -= w
    if n > 0:
        return re >> n, im >> n, e + n
    return re, im, e


def _gi_add(ar, ai, ae, br, bi, be, w):
    """a + b for mantissas of any width, truncated to w bits."""
    # exponents at most w apart: align exactly on the lower one
    d = ae - be
    if 0 <= d <= w:
        return _gi_norm((ar << d) + br, (ai << d) + bi, be, w)
    if -w <= d < 0:
        return _gi_norm(ar + (br << -d), ai + (bi << -d), ae, w)
    if not (br or bi):
        return _gi_norm(ar, ai, ae, w)
    if not (ar or ai):
        return _gi_norm(br, bi, be, w)
    # else align on the lower exponent, but no lower than w + 3 bits below
    # the top bit of the larger operand: what is cut off there is below
    # 2^-(w + 1) of that operand
    ta = ar.bit_length()
    k = ai.bit_length()
    if k > ta:
        ta = k
    tb = br.bit_length()
    k = bi.bit_length()
    if k > tb:
        tb = k
    top = ta + ae if ta + ae > tb + be else tb + be
    e = ae if ae < be else be
    if e < top - w - 3:
        e = top - w - 3
    if ae >= e:
        ar, ai = ar << (ae - e), ai << (ae - e)
    else:
        ar, ai = ar >> (e - ae), ai >> (e - ae)
    if be >= e:
        br, bi = br << (be - e), bi << (be - e)
    else:
        br, bi = br >> (e - be), bi >> (e - be)
    return _gi_norm(ar + br, ai + bi, e, w)


def gi_round(a, w):
    """The kernel number a truncated to w bits."""
    return _gi_norm(*a, w)


def gi_from_mpc(z, w):
    """An mpmath number (or any scalar :func:`to_mpc` takes) as a kernel
    number of at most w bits; ``ValueError`` on an inf or a nan."""
    (rs, rm, re_, rbc), (is_, im, ie, ibc) = to_mpc(z)._mpc_
    if rbc < 0 or ibc < 0:
        raise ValueError(f"non-finite scalar {z!r} has no integer mantissa")
    return _gi_add(-rm if rs else rm, 0, re_, 0, -im if is_ else im, ie, w)


def gi_to_mpc(a, prec=None):
    """A kernel number as an mpc: exactly, or rounded to nearest at ``prec`` bits."""
    re, im, e = a
    return mp.make_mpc((from_man_exp(re, e, prec, round_nearest),
                        from_man_exp(im, e, prec, round_nearest)))


def _parts(x):
    """The real and imaginary parts of a scalar, each as (n, d, k) for n 2^k / d.

    An exact scalar is read from its numerators and denominators, any other from
    the mantissas and exponents of its :func:`to_mpc` image, which a binary float
    (Python's or numpy's) takes exactly."""
    if not isinstance(x, mpmath.mpc):
        if isinstance(x, _EXACT_REAL):
            return (x.numerator, x.denominator, 0), (0, 1, 0)
        if isinstance(x, QQi):
            return (x.re.numerator, x.re.denominator, 0), (x.im.numerator, x.im.denominator, 0)
        x = to_mpc(x)
    (rs, rm, re_, rbc), (is_, im, ie, ibc) = x._mpc_
    if rbc < 0 or ibc < 0:
        raise ValueError(f"non-finite scalar {x!r} has no integer mantissa")
    return (-rm if rs else rm, 1, re_), (-im if is_ else im, 1, ie)


def _part_mag(part):
    # n 2^k / d >= 2^(m - 1) for m = bitlen(n) + k - bitlen(d - 1)
    return max(n.bit_length() + k - (d - 1).bit_length() for n, d, k in part if n)


def gi_lift(values, bits):
    """Scalars as Gaussian mantissas on one exponent: a list of pairs (re, im)
    and e, each value being (re + i im) 2^e truncated toward -inf componentwise.

    e puts the smallest nonzero value (by its larger component) at ``bits``
    bits or more, so a float with at most that many bits is lifted exactly;
    ``ValueError`` on an inf or a nan.  A binary float (Python's or numpy's)
    enters through :func:`to_mpc`, exactly, as it enters every pass of the
    series kernel.
    """
    parts = [_parts(x) for x in values]
    mags = [_part_mag(part) for part in parts if part[0][0] or part[1][0]]
    e = min(mags) - bits if mags else 0
    return [tuple((n << k - e) // d if k >= e else n // (d << e - k) for n, d, k in part)
            for part in parts], e


def gi_mag(a):
    """Bit-length magnitude m: the larger component of a lies in
    [2^(m-1), 2^m), so 2^(m-1) <= |a| < 2^(m+1/2); -inf for zero."""
    re, im, e = a
    n = max(re.bit_length(), im.bit_length())
    return n + e if n else -math.inf


def gi_below(a, r, k=0):
    """|a| < r 2^k for a kernel number a and ints r >= 0 and k, decided
    exactly on a's mantissas (so also beyond the float range)."""
    re, im, e = a
    n, s = re * re + im * im, 2 * (k - e)
    return n < r * r << s if s >= 0 else n << -s < r * r


def gi_abs(a, e=0):
    """|a| 2^-e as a float (0.0 below the float range)."""
    re, im, ae = _gi_norm(*a, 53)
    return math.hypot(math.ldexp(re, ae - e), math.ldexp(im, ae - e))


def gi_add(a, b, w):
    """a + b, truncated to w bits."""
    return _gi_add(*a, *b, w)


def gi_sub(a, b, w):
    """a - b, truncated to w bits."""
    br, bi, be = b
    return _gi_add(*a, -br, -bi, be, w)


def gi_mul(a, b, w):
    """a * b, truncated to w bits."""
    ar, ai, ae = a
    br, bi, be = b
    return _gi_norm(ar * br - ai * bi, ar * bi + ai * br, ae + be, w)


def gi_submul(c, a, b, w):
    """c - a * b, truncated to w bits once (the product is exact)."""
    ar, ai, ae = a
    br, bi, be = b
    return _gi_add(*c, ai * bi - ar * br, -(ar * bi + ai * br), ae + be, w)


def gi_div(a, b, w):
    """a / b, truncated to w bits; ``ZeroDivisionError`` when b is zero."""
    ar, ai, ae = a
    br, bi, be = b
    d = br * br + bi * bi
    if not d:
        raise ZeroDivisionError("division by a zero kernel number")
    nr = ar * br + ai * bi
    ni = ai * br - ar * bi
    # shift the numerator so that the quotient keeps w + 2 bits
    s = max(0, w + 2 + d.bit_length() - max(nr.bit_length(), ni.bit_length()))
    return _gi_norm((nr << s) // d, (ni << s) // d, ae - be - s, w)


def gi_horner(coeffs, z, w):
    """The polynomial with kernel coefficients ``coeffs`` (highest degree
    first) at the kernel number z, by Horner's rule at w bits; zero for no
    coefficients."""
    zr, zi, ze = z
    ar, ai, ae = coeffs[0] if coeffs else (0, 0, 0)
    for cr, ci, ce in coeffs[1:]:
        ar, ai, ae = _gi_add(ar * zr - ai * zi, ar * zi + ai * zr, ae + ze, cr, ci, ce, w)
    return ar, ai, ae
