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
that already hold them: they only prune it (zeros and out-of-window terms) and
wrap it, as does JSON input, whose terms :func:`series_from_json` has checked.
A float series keeps every other term however small beside the rest, so input is
never dropped and neither is the residue a cancellation leaves: only the float
elimination by a germ judges round-off, by masses
(:func:`germsum.weierstrass._reduce_float`), and the Pade layer by its rank cut.

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
from math import lcm
from operator import itemgetter, mul

from mpmath import mp

from .errors import (DimensionMismatchError, InsufficientTruncationError,
                     ZeroSeriesError)
from . import scalars
from .scalars import (_EXACT_REAL, Record, gi_lift, gi_to_mpc, integer_arg, is_zero,
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
    """Drop out-of-window and zero coefficients in place."""
    kill = [e for e, c in terms.items() if sum(e) > trunc or is_zero(c)]
    for e in kill:
        del terms[e]
    return terms


def _variable_index(i, dim):
    """A variable index as an int; ``ValueError``, naming i, unless it is an
    integer with 0 <= i < dim."""
    i = integer_arg(i, "variable index")
    if not 0 <= i < dim:
        raise ValueError(f"variable index {i} out of range")
    return i


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
        """x_(i+1) in dim variables; ``ValueError`` naming dim unless it is an integer
        >= 1, and naming i unless it is an integer with 0 <= i < dim."""
        dim = _dimension(dim)
        i = _variable_index(i, dim)
        return cls(dim, trunc, {tuple(int(k == i) for k in range(dim)): 1})

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
        # u*v at (f, g): Horner's rule takes the first image outermost, so the
        # kernel multiplies the second factor by the first, looping over the
        # second's terms outside; the factor with fewer terms (self on a tie) goes second
        images = [self, other] if len(self.terms) > len(other.terms) else [other, self]
        return substitute(_PRODUCT, images, out_trunc=min(self.trunc, other.trunc))

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        """Multiply every coefficient by the scalar c."""
        return _pruned(self.dim, self.trunc, {e: smul(v, c) for e, v in self.terms.items()})

    def __pow__(self, n):
        """f**n: :meth:`one` (the int 1) for n = 0, else one substitution of f into u^n,
        as a product f*g is one of (f, g) into u*v."""
        rule = "series powers take nonnegative integer exponents: exponent"
        n = integer_arg(n, rule)
        if n < 0:
            raise ValueError(f"{rule} {n} is negative")
        if not n:
            return TruncatedSeries.one(self.dim, self.trunc)
        return substitute(TruncatedSeries._clean(1, n, {(n,): 1}), [self], out_trunc=self.trunc)

    def differentiate(self, i):
        """Partial derivative in variable i; certifies one order less."""
        i = _variable_index(i, self.dim)
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
    (zeros and out-of-window terms) and wrapped unchecked."""
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
# every coefficient domain, with exponents packed into ints.  A substitution is one
# traversal, _horner: Horner's rule over each image of more than one term, and a
# key shift times a coefficient power for each other image.  Its exact, generic
# and float passes differ only in three closures: multiply a running sum by an
# image at a degree cap, weigh a term of f by its monomial images' powers, add.
# int and Fraction data are lifted once to integer numerators over one denominator
# per operand.  Where no term of f has an exact coefficient and exact terms in
# every image it takes, floats are lifted to Gaussian-integer mantissas (re, im)
# over one power of two per operand, the smallest nonzero keeping
# working_prec() + _GUARD bits (scalars.gi_lift); products inside a loop are exact,
# and a result is truncated to that rule again only where it comes back as an
# operand (_truncate).  Other data (QQi, or exact and float coefficients mixed)
# keep their own scalars, over 1, and run the same loops once inside
# mp.workprec(working_prec() + _GUARD), each operation following the promotion
# rule of germsum.scalars.  Every pass drops zeros, keeps every other term and
# rounds each float output to the working precision once.

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


def _finish(dim, trunc, unpack, values):
    """The series of the generic pass's scalars by packed key: a zero is dropped and
    every other term kept, each float rounded to the working precision once."""
    with mp.workprec(working_prec()):
        return TruncatedSeries._clean(dim, trunc, {
            unpack(k): c if scalars.is_exact(c) else to_mpc(+c) for k, c in values.items() if c})


def _operand(pairs, trunc, top):
    """(key, numerator) pairs of degree <= trunc sorted by key, and for each degree
    r <= trunc the number of pairs of degree <= r: the right operand of :func:`_imul`."""
    pairs = sorted(pairs)
    count = [0] * (trunc + 1)
    for k, _ in pairs:
        count[k >> top] += 1
    return pairs, list(accumulate(count))


def _shapes(images, packing, trunc):
    """Per image: its terms of degree <= trunc by packed key; the packed key a term
    of f gains per power of it, its one term's key if it is a monomial, else its
    lowest degree alone, in the degree field; and that lowest degree, trunc + 1
    for a zero image, which so moves a term out of the window."""
    pack, top = packing.pack, packing.top
    shapes = []
    for g in images:
        terms = {pack(e): c for e, c in g.terms.items() if sum(e) <= trunc}
        low = min(terms, default=(trunc + 1) << top) >> top
        shapes.append((terms, next(iter(terms)) if len(terms) == 1 else low << top, low))
    return shapes


def _top(f, i, low, trunc):
    """The largest exponent of x_i that a term of f takes, at most trunc // low."""
    t = max(map(itemgetter(i), f.terms))
    return min(t, trunc // low) if low else t


def _imul(a, b, trunc, top):
    """Product of packed polynomials without terms of degree > trunc.

    ``a`` is any iterable of (key, numerator) pairs of degree <= trunc and
    ``b`` an :func:`_operand`: the partners of a term of degree k are a prefix
    of its pairs.
    """
    pairs, upto = b
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


def _truncate(products, e, bits):
    """Mantissa pairs over 2^e (a dict by key), zeros dropped, on the float lift's
    rule again: the smallest nonzero keeps ``bits`` bits."""
    products = {k: m for k, m in products.items() if m[0] or m[1]}
    low = min((max(r.bit_length(), i.bit_length()) for r, i in products.values()), default=bits)
    s = low - bits
    if s <= 0:
        return products, e
    return {k: (r >> s, i >> s) for k, (r, i) in products.items()}, e + s


def _horner(terms, shapes, trunc, top, grid, times, weigh, add):
    """f at the images, as a pass's running sum: Horner's rule over each image of
    more than one term, the first outermost, and the other images term by term.

    ``terms`` are f's (exponent, coefficient as the pass holds it) and ``shapes``
    the images' :func:`_shapes`.  A term's key sum_i e_i step_i has the degree
    sum_i e_i low_i; above trunc, the term could only land above trunc and is
    dropped, as is every term that takes a zero image.  Each other term is
    moved by its monomial images: its key is sum_i e_i key_i and ``weigh(e, c)``
    multiplies their coefficient powers into c, giving a value over 2^grid.
    Then, for the outermost image x_i of more terms left and f_n the terms of
    exponent n in it, each taken to the images further in,
    ``acc <- times(acc, i, cap - n low_i) + f_n`` for n from the top down (Knuth,
    *TAOCP* vol. 2, 4.6.4, variable by variable), level n kept to degree
    cap - n low_i: a term dropped there still meets n factors of degree >= low_i.
    A running sum is a pair (values by packed key, e), its values over 2^e, or
    None while empty; ``add(acc, pairs, e)`` adds (key, value) pairs over 2^e.
    """
    _, steps, lows = zip(*shapes)
    multi = [i for i, (image, _, _) in enumerate(shapes) if len(image) > 1]
    limit = (trunc + 1) << top
    if not multi:
        return add(None, [(k, weigh(e, c)) for e, c in terms
                          if (k := sum(map(mul, e, steps))) < limit], grid)
    *outer, last = multi
    root = {}
    for e, c in terms:
        key = sum(map(mul, e, steps))
        if key < limit:
            node = root
            for i in outer:
                node = node.setdefault(e[i], {})
                key -= e[i] * steps[i]
            n = e[last]
            node.setdefault(n, []).append((key - n * steps[last], weigh(e, c)))

    def level(node, j, cap):
        i = multi[j]
        acc = None
        for n in range(max(node), -1, -1):
            cap_n = cap - n * lows[i]
            if acc is not None:
                acc = times(acc, i, cap_n)
            part = node.get(n)
            if part is None:
                continue
            if i == last:  # the group's terms go straight into acc
                acc = add(acc, part, grid)
            else:
                sub = level(part, j + 1, cap_n)
                acc = sub if acc is None else add(acc, sub[0].items(), sub[1])
        return acc

    return level(root, 0, trunc) if root else None


def _substitute(f, images, packing, out_trunc, exact):
    """The exact or generic pass of :func:`substitute` (see :func:`_lift`): packed
    numerators and their denominator, by :func:`_horner`.

    With ``den_i`` the denominator of image i and ``top_i`` the largest
    exponent of x_i that a term of f takes (:func:`_top`), a term of f with
    exponent e is weighed by ``den_i**(top_i - e_i)`` and, for a monomial image
    c_i y^k, by ``c_i**e_i``, so that all terms and products share the
    denominator ``den_f * prod_i den_i**top_i`` (1 for data that is not exact
    real).  An image whose factors are all the int 1 weighs nothing.
    """
    top = packing.top
    shapes = _shapes(images, packing, out_trunc)
    num, den = _lift(f.terms, exact)
    ops, scaled = {}, []
    for i, (image, _, low) in enumerate(shapes):
        image, d = _lift(image, exact)
        if not image:
            continue
        if len(image) > 1:
            ops[i] = _operand(image.items(), out_trunc, top)
        c = 1 if len(image) > 1 else next(iter(image.values()))
        if type(c) is int and c == 1 and d == 1:
            continue
        t = _top(f, i, low, out_trunc)
        scaled.append((i, [x * d ** (t - k) for k, x in enumerate(accumulate([1] + [c] * t, mul))]))
        den *= d ** t

    def weigh(e, c):
        for i, w in scaled:
            c *= w[e[i]]
        return c

    def add(acc, pairs, _):
        out = {} if acc is None else acc[0]
        get = out.get
        for k, c in pairs:
            out[k] = get(k, 0) + c
        return out, 0

    acc = _horner(num.items(), shapes, out_trunc, top, 0,
                  lambda acc, i, cap: (_imul(acc[0].items(), ops[i], cap, top), 0), weigh, add)
    return (acc[0] if acc else {}), den


def _substitute_float(f, images, packing, out_trunc):
    """The float pass of :func:`substitute`: mantissa pairs by key over 2^e, (pairs, e).

    Each image is lifted onto its own grid (``scalars.gi_lift``).  The powers of
    a monomial image other than 1 are formed once, each product truncated
    (:func:`_truncate`), and put on the grid of the finest, so that every term
    of f times its powers lies on one grid.  A running sum is truncated where it
    meets a further product; every other sum and product is exact.
    """
    top = packing.top
    bits = _float_bits()
    shapes = _shapes(images, packing, out_trunc)
    mants, grid = gi_lift(f.terms.values(), bits)
    ops, exps, scaled = {}, {}, []
    for i, (image, _, low) in enumerate(shapes):
        if len(image) > 1:
            lifted, exps[i] = gi_lift(image.values(), bits)
            ops[i] = _operand(zip(image, lifted), out_trunc, top)
            continue
        if not image or next(iter(image.values())) == 1:
            continue
        ((mr, mi),), e = gi_lift(image.values(), bits)
        t = _top(f, i, low, out_trunc)
        powers = [((1, 0), 0), ((mr, mi), e)][:t + 1]
        while len(powers) <= t:
            (r, im), x = powers[-1]
            z, x = _truncate({0: (r * mr - im * mi, r * mi + im * mr)}, x + e, bits)
            powers.append((z[0], x))
        low = min(x for _, x in powers)
        scaled.append((i, [(r << x - low, im << x - low) for (r, im), x in powers]))
        grid += low

    def weigh(e, m):
        r, i = m
        for j, w in scaled:
            wr, wi = w[e[j]]
            r, i = r * wr - i * wi, r * wi + i * wr
        return r, i

    def times(acc, i, cap):
        pairs, e = _truncate(*acc, bits)
        return _gimul(pairs.items(), ops[i], cap, top), e + exps[i]

    def add(acc, pairs, e):
        out, low = ({}, e) if acc is None else acc
        if low > e:
            out = {k: (r << low - e, i << low - e) for k, (r, i) in out.items()}
            low = e
        s = e - low
        get = out.get
        for k, (r, i) in pairs:
            r, i = r << s, i << s
            t = get(k)
            out[k] = (r, i) if t is None else (t[0] + r, t[1] + i)
        return out, low

    return _horner(zip(f.terms, mants), shapes, out_trunc, top, grid, times, weigh, add) or ({}, 0)


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
    if all(_exact_real(g.terms) for g in images) and _exact_real(f.terms):
        return packing.finish(out_trunc, *_substitute(f, images, packing, out_trunc, True))
    # a term of f meets only floats unless its coefficient and every image it takes
    # have exact terms: with no exact image, only f's constant term can be such a term
    some_exact = [_has_exact(g.terms) for g in images]
    zero = (0,) * f.dim
    terms = f.terms.items() if any(some_exact) else [(zero, f.terms.get(zero))]
    if any(scalars.is_exact(c) and all(some_exact[i] for i, k in enumerate(e) if k)
           for e, c in terms):
        with mp.workprec(_float_bits()):
            values, _ = _substitute(f, images, packing, out_trunc, False)
        return _finish(d2, out_trunc, packing.unpack, values)
    pairs, e = _substitute_float(f, images, packing, out_trunc)
    prec = working_prec()
    return TruncatedSeries._clean(d2, out_trunc, {packing.unpack(k): gi_to_mpc((r, i, e), prec)
                                                 for k, (r, i) in pairs.items() if r or i})


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
