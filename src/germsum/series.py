"""Truncated multivariate power series and monomial orders.

A :class:`TruncatedSeries` is a finite exponent->coefficient map together
with a total-degree truncation order ``trunc``: terms of total degree
greater than ``trunc`` are unrepresented (unknown, not zero).  Arithmetic
never claims accuracy beyond what the operands certify:

* ``+``/``*`` keep ``min`` of the operand truncations,
* ``substitute`` derives the output truncation from the valuations of the
  substituted images (a term of the unknown tail of ``f``, of degree
  ``trunc+1`` or more, contributes only at degree
  ``>= (trunc+1) * min_i val(images[i])``),
* callers that knowingly treat the stored terms as exact polynomial data
  (a "representative") may override via ``out_trunc`` / ``with_trunc``.

The constructor's checks (integral dimension and truncation, exponents that
are tuples of nonnegative integers of the right length) are for caller
input.  Ring operations and the kernel build each result once from operands
that already hold them: they only prune it (zeros, out-of-window terms, the
float relative cut) and wrap it, as does JSON input, whose terms
:func:`series_from_json` has checked.

Coefficients are exact rationals, exact complex rationals or mpmath
complex floats; see :mod:`germsum.scalars`.  A product f*g is a
substitution, of (f, g) into u*v, and substitutions run on one series
kernel (below) for every coefficient domain; the domain
picks only the denominator: integer numerators over one denominator per
operand when every coefficient is an ``int`` or a ``Fraction``,
Gaussian-integer mantissas over a power of two for floats, and the
coefficients themselves, over 1, for complex rationals and mixed data, at
32 bits above the working precision; each float output coefficient is
rounded to the working precision once.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm, prod

from mpmath import mp

from .errors import (DimensionMismatchError, InsufficientTruncationError,
                     ZeroSeriesError)
from . import scalars
from .scalars import (_EXACT, _EXACT_REAL, Record, gi_lift, gi_to_mpc, integer_arg, is_zero,
                      sabs_float, sadd, scalar_eq, scalar_from_json, scalar_to_json, smul,
                      sneg, to_mpc, working_prec)


class MonomialOrder(Record):
    """Positive rational weights plus a deterministic total-order tie-break.

    The induced order on exponents compares the weighted degree first, the
    total degree second, and finally a lexicographic rule: ``"lex"`` makes
    x1 the smallest variable (larger x1-exponent wins a tie), ``"revlex"``
    makes xd the smallest.  The result is a total order on N^d compatible
    with addition, refining the weight comparison.  Keys compare the weights
    scaled to integers (``int_weights``), which induces the same order.
    """
    weights: tuple
    tiebreak: str

    def __init__(self, weights, tiebreak="lex"):
        ws = tuple(Fraction(w) for w in weights)
        if not ws or any(w <= 0 for w in ws):
            raise ValueError("monomial order needs a nonempty positive weight vector")
        if tiebreak not in ("lex", "revlex"):
            raise ValueError(f"unknown tiebreak {tiebreak!r}")
        super().__init__(ws, tiebreak)

    @cached_property
    def int_weights(self):
        scale = lcm(*(w.denominator for w in self.weights))
        return tuple(w.numerator * (scale // w.denominator) for w in self.weights)

    @property
    def dim(self):
        return len(self.weights)

    def weight(self, e):
        return sum(w * k for w, k in zip(self.weights, e))

    def key(self, e):
        """Sort key realizing the total order (smaller key = smaller monomial)."""
        if self.tiebreak == "lex":
            tie = tuple(-k for k in e)
        else:
            tie = tuple(-k for k in reversed(e))
        return (sum(w * k for w, k in zip(self.int_weights, e)), sum(e), tie)

    def __repr__(self):
        ws = ",".join(str(w) for w in self.weights)
        return f"MonomialOrder({ws}:{self.tiebreak})"

    def to_json(self):
        return {"weights": [scalar_to_json(w) for w in self.weights],
                "tiebreak": self.tiebreak}

    @classmethod
    def from_json(cls, obj):
        return cls([Fraction(str(w)) for w in obj["weights"]],
                   obj.get("tiebreak", "lex"))


def _truncation(trunc):
    """A truncation order as an int, floored at -1; ``ValueError`` unless it is integral."""
    return max(integer_arg(trunc, "truncation order"), -1)


def _dimension(dim):
    """A number of variables as an int; ``ValueError`` unless it is an integer >= 1."""
    dim = integer_arg(dim, "dimension")
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    return dim


def _prune_terms(terms, trunc):
    """Drop out-of-window, zero and (relatively) negligible float coefficients in place
    (:func:`_noise_floors`)."""
    kill = [e for e, c in terms.items() if sum(e) > trunc or is_zero(c)]
    for e in kill:
        del terms[e]
    if all(isinstance(c, _EXACT) for c in terms.values()):
        return terms  # the relative cut applies to floats only
    mag = {e: scalars.bit_mag(c) for e, c in terms.items()}
    floors = _noise_floors((sum(e), m) for e, m in mag.items())
    for e, m in mag.items():
        if m < floors.get(sum(e), m) and not scalars.is_exact(terms[e]):
            del terms[e]
    return terms


def _noise_floors(degree_mags):
    """The float noise floor of each degree, from (degree, bit magnitude) pairs of the
    nonzero terms (``scalars.bit_mag``, ``gi_mag``): a float term whose magnitude lies
    below its degree's floor, 2^-(prec/2) of the largest term there, is dropped.  A
    term alone in its degree is never negligible, so such a degree has no floor."""
    count, best = {}, {}
    for d, m in degree_mags:
        count[d] = count.get(d, 0) + 1
        best[d] = max(best.get(d, m), m)
    cut = working_prec() // 2
    return {d: best[d] - cut for d, n in count.items() if n > 1}


class TruncatedSeries(Record):
    """Element of C[[x1..xd]] known modulo terms of total degree > trunc."""

    __slots__ = ("dim", "trunc", "terms")

    def __init__(self, dim, trunc, terms=None):
        dim = _dimension(dim)
        trunc = _truncation(trunc)
        clean = {}
        for e, c in (terms or {}).items():
            try:
                e = tuple(map(operator.index, e))
            except TypeError:
                raise ValueError(f"exponent {e!r} is not a tuple of integers") from None
            if len(e) != dim:
                raise DimensionMismatchError(
                    f"exponent {e} has length {len(e)}, expected {dim}")
            if min(e) < 0:
                raise ValueError(f"negative exponent in {e}")
            clean[e] = c
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "terms", _prune_terms(clean, trunc))

    @classmethod
    def _clean(cls, dim, trunc, terms):
        """Wrap terms that already hold the invariants (int exponent tuples of degree
        <= trunc, nonzero pruned coefficients), so nothing is left to check."""
        f = object.__new__(cls)
        object.__setattr__(f, "dim", dim)
        object.__setattr__(f, "trunc", trunc)
        object.__setattr__(f, "terms", terms)
        return f

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, dim, trunc):
        return cls(dim, trunc, {})

    @classmethod
    def constant(cls, value, dim, trunc):
        return cls(dim, trunc, {(0,) * dim: value})

    @classmethod
    def one(cls, dim, trunc):
        return cls.constant(1, dim, trunc)

    @classmethod
    def monomial(cls, exp, coeff, trunc):
        return cls(len(tuple(exp)), trunc, {tuple(exp): coeff})

    @classmethod
    def variable(cls, i, dim, trunc):
        e = [0] * dim
        e[i] = 1
        return cls(dim, trunc, {tuple(e): 1})

    # -- queries -----------------------------------------------------------
    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_exact(self):
        """True when every coefficient is an exact rational scalar."""
        return all(scalars.is_exact(c) for c in self.terms.values())

    def coeff(self, exp):
        return self.terms.get(tuple(exp), 0)

    def valuation(self):
        """Minimal total degree of a stored term, or None for the zero series."""
        if not self.terms:
            return None
        return min(sum(e) for e in self.terms)

    def degree(self):
        """Maximal total degree of a stored term, or None for the zero series."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.dim != other.dim or self.trunc != other.trunc:
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(scalar_eq(c, other.terms[e]) for e, c in self.terms.items())

    def agrees_with(self, other, upto=None):
        """Termwise equality up to min(self.trunc, other.trunc, upto)."""
        if self.dim != other.dim:
            return False
        bound = min(self.trunc, other.trunc)
        if upto is not None:
            bound = min(bound, upto)
        for e in set(self.terms) | set(other.terms):
            if sum(e) <= bound and not scalar_eq(self.terms.get(e, 0),
                                                 other.terms.get(e, 0)):
                return False
        return True

    def __repr__(self):
        items = self.sorted_terms()
        shown = " + ".join(_fmt_term(e, c) for e, c in items[:6])
        if len(items) > 6:
            shown += f" + ... ({len(items)} terms)"
        return f"<series d={self.dim} trunc={self.trunc}: {shown or '0'}>"

    # -- ring operations ---------------------------------------------------
    def _check_dim(self, other):
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_dim(other)
        trunc = min(self.trunc, other.trunc)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = sadd(terms[e], c) if e in terms else c
        return _pruned(self.dim, trunc, terms)

    def __neg__(self):
        return _pruned(self.dim, self.trunc, {e: sneg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        self._check_dim(other)
        # u*v at (f, g); the kernel loops over the second image outside, so the
        # factor with fewer terms (self on a tie) goes second
        images = [self, other] if len(self.terms) > len(other.terms) else [other, self]
        return substitute(_PRODUCT, images, out_trunc=min(self.trunc, other.trunc))

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        """Multiply every coefficient by the scalar c."""
        return _pruned(self.dim, self.trunc, {e: smul(v, c) for e, v in self.terms.items()})

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("series powers take nonnegative integer exponents")
        result = TruncatedSeries.one(self.dim, self.trunc)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def differentiate(self, i):
        """Partial derivative in variable i; certifies one order less."""
        if not 0 <= i < self.dim:
            raise ValueError(f"variable index {i} out of range")
        terms = {}
        for e, c in self.terms.items():
            if e[i] > 0:
                e2 = e[:i] + (e[i] - 1,) + e[i + 1:]
                terms[e2] = smul(c, e[i])
        return _pruned(self.dim, max(self.trunc - 1, -1), terms)

    def with_trunc(self, new_trunc):
        """Reinterpret the stored terms with a caller-asserted truncation.

        Used where an operation is known to be exact on the stored
        representative (e.g. shifting a blown-up polynomial); the generic
        bookkeeping would be more pessimistic.
        """
        return _pruned(self.dim, _truncation(new_trunc), dict(self.terms))

    def eval_at(self, point):
        """The stored polynomial at a point (exact for exact data), by substituting constants."""
        return substitute(self, _constant_images(point, self.dim), out_trunc=0).coeff((0,))


# u*v: a product f*g is this series at (f, g)
_PRODUCT = TruncatedSeries._clean(2, 2, {(1, 1): 1})


def _pruned(dim, trunc, terms):
    """The series of a terms dict whose exponents are valid for dim, pruned in place
    (zeros, out-of-window terms, the float relative cut) and wrapped unchecked."""
    return TruncatedSeries._clean(dim, trunc, _prune_terms(terms, trunc))


def _constant_images(point, dim):
    """The ``dim`` coordinates as constant one-variable series, a zero one empty, unpruned."""
    if len(point) != dim:
        raise DimensionMismatchError(f"point has {len(point)} coordinates, expected {dim}")
    return [TruncatedSeries._clean(1, 0, {} if is_zero(x) else {(0,): x}) for x in point]


def _fmt_term(e, c):
    mono = "*".join(f"x{i + 1}" + (f"^{k}" if k > 1 else "")
                    for i, k in enumerate(e) if k)
    return f"({c})" + (f"*{mono}" if mono else "")


# -- the series kernel -------------------------------------------------------------
#
# Substitutions (products among them) and divisions run on the loops below for
# every coefficient domain, with exponents packed into ints.  int and Fraction data
# are lifted once to integer numerators over one denominator per operand.  Where
# every piece of a substitution has no exact term, floats are lifted to
# Gaussian-integer mantissas (re, im) over one power of two per operand, the
# smallest nonzero keeping working_prec() + _GUARD bits (scalars.gi_lift); products
# inside a loop are exact, and a result is truncated to that rule again only where
# it comes back as an operand (_truncate).  Other data (QQi, or exact and float
# coefficients mixed) keep their own scalars, over 1, and run the same loops once
# inside mp.workprec(working_prec() + _GUARD), each operation following the
# promotion rule of germsum.scalars.  _finish prunes float terms on bit lengths and
# rounds each to the working precision once (the float elimination by a germ prunes
# by mass instead: germsum.weierstrass._reduce_float).

# bits beyond the working precision that the float lift and the generic pass keep
_GUARD = 32


def _exact_real(terms):
    """True when every coefficient is an int or a Fraction (the integer lift's domain)."""
    return all(isinstance(c, _EXACT_REAL) for c in terms.values())


def _has_exact(terms):
    return any(scalars.is_exact(c) for c in terms.values())


def _lift(terms, exact):
    """The coefficients of ``terms`` for an exact or generic pass, and their common
    denominator: integer numerators over the lcm of the denominators for exact real
    data, else the coefficients themselves, over 1."""
    if not exact:
        return terms, 1
    den = lcm(*{c.denominator for c in terms.values()})
    return {e: c.numerator * (den // c.denominator) for e, c in terms.items()}, den


def _float_bits():
    return working_prec() + _GUARD


class _Packing:
    """Exponents of total degree <= trunc packed into ints.

    Each variable gets a bit field, with one spare bit so that the sum of two
    in-window exponents never carries into the next field, and the total
    degree sits in the top field: adding keys multiplies monomials, and
    sorting keys sorts by total degree first.
    """

    __slots__ = ("width", "shifts", "top", "mask")

    def __init__(self, dim, trunc):
        self.width = width = max(trunc, 1).bit_length() + 1
        self.shifts = tuple(range(0, dim * width, width))
        self.top = dim * width
        self.mask = (1 << width) - 1

    def pack(self, e):
        key = sum(e) << self.top
        for k, shift in zip(e, self.shifts):
            key |= k << shift
        return key

    def unpack(self, key):
        mask = self.mask
        return tuple((key >> shift) & mask for shift in self.shifts)

    def finish(self, trunc, numerators, den):
        """The series of packed integer numerators over den, each a normalised Fraction."""
        unpack = self.unpack
        return TruncatedSeries._clean(len(self.shifts), trunc, {
            unpack(k): Fraction(n, den) for k, n in numerators.items() if n})


def _finish(dim, trunc, top, unpack, values, floats=False):
    """The series of the generic pass's scalars, or of the float lift's kernel numbers
    (re, im, e) with ``floats``, by packed key; ``key >> top`` is the degree of a
    key, up to a constant.  A zero is dropped, and so is a float term below its
    degree's noise floor, as in :func:`_prune_terms` (:func:`_noise_floors`); each
    kept float is rounded to the working precision once."""
    if floats:  # gi_mag, inline
        mag = {k: max(r.bit_length(), i.bit_length()) + e
               for k, (r, i, e) in values.items() if r or i}
    else:
        mag = {k: scalars.bit_mag(c) for k, c in values.items() if c}
    floors = _noise_floors((k >> top, m) for k, m in mag.items())
    prec = working_prec()
    terms = {}
    with mp.workprec(prec):
        for k, m in mag.items():
            c = values[k]
            if floats or not scalars.is_exact(c):
                if m < floors.get(k >> top, m):
                    continue
                c = gi_to_mpc(c, prec) if floats else to_mpc(+c)
            terms[unpack(k)] = c
    return TruncatedSeries._clean(dim, trunc, terms)


def _operand(pairs, trunc, top):
    """(key, numerator) pairs of degree <= trunc sorted by key, and for each degree
    r <= trunc the number of pairs of degree <= r: the right operand of :func:`_imul`."""
    pairs = sorted(pairs)
    count = [0] * (trunc + 1)
    for k, _ in pairs:
        count[k >> top] += 1
    return pairs, list(accumulate(count))


def _pack_terms(terms, packing, trunc, exact):
    """The lift of terms for an exact or generic pass (:func:`_lift`): an
    :func:`_operand` of the terms of degree <= trunc, and their denominator."""
    num, den = _lift(terms, exact)
    pack = packing.pack
    return _operand([(pack(e), n) for e, n in num.items() if sum(e) <= trunc],
                    trunc, packing.top), den


def _pack_float(terms, packing, trunc):
    """The float pass's lift of terms: an :func:`_operand` of the mantissa pairs
    of the terms of degree <= trunc, and the exponent of their grid."""
    items = [(x, c) for x, c in terms.items() if sum(x) <= trunc]
    mants, e = gi_lift([c for _, c in items], _float_bits())
    pack = packing.pack
    return _operand([(pack(x), m) for (x, _), m in zip(items, mants)], trunc, packing.top), e


def _imul(a, b, trunc, top):
    """Product of packed polynomials without terms of degree > trunc.

    ``a`` is any iterable of (key, numerator) pairs of degree <= trunc and
    ``b`` an :func:`_operand`: the partners of a term of degree k are a prefix
    of its pairs.
    """
    pairs, upto = b
    if len(pairs) == 1:  # a monomial moves each key
        (kb, nb), = pairs
        cap = (trunc + 1 - (kb >> top)) << top
        return {ka + kb: na * nb for ka, na in a if ka < cap}
    out = {}
    get = out.get
    for ka, na in a:
        for kb, nb in pairs[:upto[trunc - (ka >> top)]]:
            k = ka + kb
            out[k] = get(k, 0) + na * nb
    return out


def _gimul(a, b, trunc, top):
    """:func:`_imul` on Gaussian mantissa pairs (re, im), exactly."""
    pairs, upto = b
    if len(pairs) == 1:
        (kb, (br, bi)), = pairs
        cap = (trunc + 1 - (kb >> top)) << top
        return {ka + kb: (ar * br - ai * bi, ar * bi + ai * br) for ka, (ar, ai) in a if ka < cap}
    out = {}
    get = out.get
    for ka, (ar, ai) in a:
        for kb, (br, bi) in pairs[:upto[trunc - (ka >> top)]]:
            k = ka + kb
            t = get(k)
            if t is None:
                out[k] = (ar * br - ai * bi, ar * bi + ai * br)
            else:
                out[k] = (t[0] + ar * br - ai * bi, t[1] + ar * bi + ai * br)
    return out


def _on_exponent(pairs, e):
    """Mantissa pairs over 2^e (a dict by key) as kernel numbers (re, im, e)."""
    return {k: (r, i, e) for k, (r, i) in pairs.items()}


def _truncate(products, e, bits):
    """Mantissa pairs over 2^e (a dict by key), zeros dropped, on the float lift's
    rule again: the smallest nonzero keeps ``bits`` bits."""
    products = {k: m for k, m in products.items() if m[0] or m[1]}
    low = min((max(r.bit_length(), i.bit_length()) for r, i in products.values()), default=bits)
    s = low - bits
    if s <= 0:
        return products, e
    return {k: (r >> s, i >> s) for k, (r, i) in products.items()}, e + s


def _horner(coeffs, power, lows, trunc, combine, times):
    """The pieces of a substitution, one at a time: Horner's rule in the last variable.

    ``coeffs`` pairs each exponent of f with the domain's coefficient,
    ``power(i, n)`` is image i to the n, and ``lows[i]`` is the lowest degree
    of image i (above ``trunc`` for a zero image).  The terms of f that share
    their other exponents (a prefix) are combined first, ``combine(parts,
    cap)`` of pairs of a coefficient and its power of the last image, on the
    terms of degree <= cap that the prefix's powers can leave within
    ``trunc``; that sum is multiplied by the prefix's powers of the other
    images (``times``), one piece per prefix.  Every pass of
    :func:`substitute` walks these same products.
    """
    groups = {}
    for x, c in coeffs:
        groups.setdefault(x[:-1], []).append((c, power(len(x) - 1, x[-1])))
    for prefix, parts in groups.items():
        cap = trunc - sum(k * low for k, low in zip(prefix, lows))
        if cap < 0:
            continue
        piece = combine(parts, cap)
        for i, k in enumerate(prefix):
            if k:
                piece = times(piece, power(i, k))
        yield piece


def _substitute(f, images, packing, out_trunc, exact):
    """The exact or generic pass of :func:`substitute` (see :func:`_lift`): packed
    numerators and their denominator, every piece brought to one denominator.

    With ``den_i`` the denominator of image i and ``top_i`` the largest
    exponent of x_i in f, a term of f with exponent e is scaled by
    ``prod_i den_i**(top_i - e_i)``, so that all pieces share the denominator
    ``den_f * prod_i den_i**top_i`` (1 for data that is not exact real).
    """
    top = packing.top
    lifted = [_pack_terms(g.terms, packing, out_trunc, exact) for g in images]
    tops = [max(e[i] for e in f.terms) for i in range(f.dim)]
    scales = [[den ** (t - k) for k in range(t + 1)]
              for (_, den), t in zip(lifted, tops)]
    one = _operand([(0, 1)], out_trunc, top)
    powers = [[one, image] for image, _ in lifted]  # powers[i][n]: image_i^n over den_i^n

    def power(i, n):
        cache = powers[i]
        while len(cache) <= n:
            product = _imul(cache[-1][0], lifted[i][0], out_trunc, top)
            cache.append(_operand(product.items(), out_trunc, top))
        return cache[n]

    def combine(parts, cap):
        acc = {}
        get = acc.get
        for c, (pairs, upto) in parts:
            for key, b in pairs[:upto[cap]]:
                acc[key] = get(key, 0) + c * b
        return acc

    num, den = _lift(f.terms, exact)
    coeffs = []
    for e, n in num.items():
        scale = prod(scales[i][k] for i, k in enumerate(e))
        coeffs.append((e, n * scale if scale != 1 else n))
    pieces = _horner(coeffs, power, _lows(lifted, out_trunc, top), out_trunc, combine,
                     lambda piece, b: _imul(piece.items(), b, out_trunc, top))
    # combine and _imul build each piece as a fresh dict: the first is the running sum
    acc = next(pieces, {})
    get = acc.get
    for piece in pieces:
        for key, c in piece.items():
            acc[key] = get(key, 0) + c
    for (_, d), t in zip(lifted, tops):
        den *= d ** t
    return acc, den


def _substitute_float(f, images, packing, out_trunc):
    """The float pass of :func:`substitute`: kernel numbers (re, im, e) by key.

    Image powers and the sums that meet a further product are truncated where
    they come back as operands (:func:`_truncate`); the other sums are exact.
    """
    top = packing.top
    bits = _float_bits()
    lifted = [_pack_float(g.terms, packing, out_trunc) for g in images]
    one = (_operand([(0, (1, 0))], out_trunc, top), 0)
    powers = [[one, image] for image in lifted]  # powers[i][n]: image_i^n and its exponent

    def power(i, n):
        cache = powers[i]
        while len(cache) <= n:
            ((prev, _), ep), (image, ei) = cache[-1], lifted[i]
            product, e = _truncate(_gimul(prev, image, out_trunc, top), ep + ei, bits)
            cache.append((_operand(product.items(), out_trunc, top), e))
        return cache[n]

    def times(piece, b):
        piece, e = _truncate(*piece, bits)
        (b, eb) = b
        return _gimul(piece.items(), b, out_trunc, top), e + eb

    def combine(parts, cap):
        return _combine([(m, pairs[:upto[cap]], ef + e) for m, ((pairs, upto), e) in parts])

    mants, ef = gi_lift(f.terms.values(), bits)
    pieces = list(_horner(zip(f.terms, mants), power, _lows(lifted, out_trunc, top), out_trunc,
                          combine, times))
    if not pieces:
        return {}
    return _on_exponent(*_combine([((1, 0), piece.items(), e) for piece, e in pieces]))


def _lows(lifted, trunc, top):
    """The lowest degree of each lifted image, trunc + 1 for a zero one."""
    return [pairs[0][0] >> top if pairs else trunc + 1 for ((pairs, _), _) in lifted]


def _combine(parts):
    """The sum of the products m*c over ``parts`` (m, [(key, c)], e), mantissa
    pairs over 2^e, exactly on the finest of their grids: (pairs by key, exponent)."""
    low = min(e for _, _, e in parts)
    acc = {}
    get = acc.get
    for (mr, mi), items, e in parts:
        s = e - low
        for k, (r, i) in items:
            re = (mr * r - mi * i) << s
            im = (mr * i + mi * r) << s
            t = get(k)
            acc[k] = (re, im) if t is None else (t[0] + re, t[1] + im)
    return acc, low


def substitute(f, images, out_trunc=None):
    """Compose f with the given image series, one per variable of f.

    Each image must either vanish at the origin or have an exact, finite
    constant term (affine substitutions).  The output truncation is
    ``min(min_i images[i].trunc, (f.trunc+1)*min_i val(images[i]) - 1)``
    unless overridden; when some image is a unit and the derived truncation
    is empty, an :class:`InsufficientTruncationError` is raised.
    """
    if len(images) != f.dim:
        raise DimensionMismatchError(
            f"need {f.dim} images, got {len(images)}")
    d2 = images[0].dim
    for g in images:
        if g.dim != d2:
            raise DimensionMismatchError("images live in different dimensions")
    if out_trunc is None:
        vals = [(g.valuation() if g.valuation() is not None else g.trunc + 1)
                for g in images]
        tail = (f.trunc + 1) * min(vals) - 1
        out_trunc = min(min(g.trunc for g in images), tail)
        if out_trunc < 0:
            raise InsufficientTruncationError(
                "substitution with unit images cannot certify any output "
                "coefficient; pass out_trunc to assert polynomial inputs")

    if not f.terms or out_trunc < 0:
        return TruncatedSeries._clean(d2, max(out_trunc, -1), {})
    packing = _Packing(d2, out_trunc)
    if _exact_real(f.terms) and all(_exact_real(g.terms) for g in images):
        return packing.finish(out_trunc, *_substitute(f, images, packing, out_trunc, True))
    # a piece is all float unless its coefficient and every image it takes have exact terms
    some_exact = [_has_exact(g.terms) for g in images]
    if any(scalars.is_exact(c) and all(some_exact[i] for i, k in enumerate(e) if k)
           for e, c in f.terms.items()):
        with mp.workprec(_float_bits()):
            values, _ = _substitute(f, images, packing, out_trunc, False)
        return _finish(d2, out_trunc, packing.top, packing.unpack, values)
    return _finish(d2, out_trunc, packing.top, packing.unpack,
                   _substitute_float(f, images, packing, out_trunc), True)


def v_ell(f, order):
    """Order-minimal exponent of a nonzero truncated series."""
    if order.dim != f.dim:
        raise DimensionMismatchError(
            f"order has {order.dim} weights, series has {f.dim} variables")
    if f.is_zero:
        raise ZeroSeriesError("zero series has no valuation")
    return min(f.terms, key=order.key)


def majorant_radius(rho):
    """The polydisk radius rho as a float; ``ValueError``, naming rho, unless
    it is a positive real number (a complex radius included)."""
    try:
        r = float(rho)
    except TypeError:
        r = float("nan")
    if not r > 0:
        raise ValueError(f"majorant radius must be positive and real, not {rho!r}")
    return r


def majorant_norm(f, rho):
    """Sum of |c_e| * rho^deg(e) over stored terms.

    Upper-bounds the sup of |f| on the closed polydisk of radius rho, for
    the stored polynomial part; rho passes :func:`majorant_radius`.
    """
    r = majorant_radius(rho)
    total = 0.0
    for e, c in f.terms.items():
        total += sabs_float(c) * r ** sum(e)
    return total


# -- JSON interchange --------------------------------------------------------

def series_to_json(f):
    """Canonical JSON object; exponents sorted lexicographically."""
    return {
        "dim": f.dim,
        "trunc": f.trunc,
        "terms": [{"exp": list(e), "coeff": scalar_to_json(c)}
                  for e, c in f.sorted_terms()],
    }


def _json_int(v):
    """A JSON integer as an int; any other value (a float, a string, a bool) is refused."""
    if type(v) is not int:
        raise ValueError(f"expected an integer, got {v!r}")
    return v


def series_from_json(obj):
    try:
        dim = _json_int(obj["dim"])
        trunc = _json_int(obj["trunc"])
        raw = obj["terms"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"series JSON missing/invalid field: {exc}") from exc
    terms = {}
    for i, item in enumerate(raw):
        try:
            e = tuple(_json_int(k) for k in item["exp"])
            if len(e) != dim:
                raise ValueError(f"exponent {list(e)} has length {len(e)}, expected {dim}")
            if any(k < 0 for k in e):
                raise ValueError(f"negative exponent in {list(e)}")
            if e in terms:
                raise ValueError(f"repeated exponent {list(e)}")
            c = scalar_from_json(item["coeff"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"series JSON terms[{i}]: {exc}") from exc
        terms[e] = c
    # every term is checked above; the window is all the constructor would add
    return _pruned(_dimension(dim), _truncation(trunc), terms)
