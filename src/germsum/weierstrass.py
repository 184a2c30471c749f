"""Division by an analytic germ and germ-power expansions of series.

Given a germ P (vanishing at the origin, nonzero) and a monomial order,
every series g splits uniquely as ``g = q*P + r`` where no exponent of r
lies in the cone ``lead_exp(P) + N^d``.  The expansion ``g = sum_n g_n * P^n``
with every g_n off the cone is the same split by ``P - t``, for a new
variable t: one elimination gives ``sum_n g_n(x) t^n``, its level n being
the coefficient of t^n, and a depth-1 elimination gives r (level 0) and q
(level 1).  Substituting P for t inverts the expansion.

Division is performed by deterministic term elimination in increasing
monomial order, with all products truncated at the input's order.  The
output is exact for the stored polynomial representative on every exponent
of weight below ``(trunc+1) * min(weights)``; in terms of plain degrees,
level n certifies ``g.trunc - n*deg(lead_exp)`` orders.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatchError, ZeroGermError
from .scalars import is_zero, sdiv
from .series import (MonomialOrder, TruncatedSeries, _constant_images, _exact_real,
                     _kernel_prec, _lift, _Packing, series_from_json, series_to_json,
                     substitute, v_ell)


class Germ:
    """A divisor germ: nonzero series with zero constant term, plus its order data."""

    __slots__ = ("p", "order", "lead_exp", "lead_coeff")

    def __init__(self, p, order):
        if not isinstance(order, MonomialOrder):
            order = MonomialOrder(order)
        if order.dim != p.dim:
            raise DimensionMismatchError(
                f"order has {order.dim} weights, germ has {p.dim} variables")
        if p.is_zero:
            raise ZeroGermError("germ must be nonzero (up to truncation)")
        if not is_zero(p.coeff((0,) * p.dim)):
            raise ZeroGermError("germ must vanish at the origin")
        lead = v_ell(p, order)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "lead_exp", lead)
        object.__setattr__(self, "lead_coeff", p.terms[lead])

    def __setattr__(self, *a):
        raise AttributeError("Germ is immutable")

    @property
    def dim(self):
        return self.p.dim

    @property
    def lead_degree(self):
        return sum(self.lead_exp)

    def __repr__(self):
        return f"Germ({self.p!r}, lead={self.lead_exp}, order={self.order!r})"


@dataclass(frozen=True)
class DivisionResult:
    q: TruncatedSeries
    r: TruncatedSeries


def delta_member(e, germ):
    """True iff the monomial x^e avoids the cone lead_exp + N^d."""
    e = tuple(e)
    if len(e) != germ.dim:
        raise DimensionMismatchError(
            f"exponent length {len(e)}, expected {germ.dim}")
    return any(ei < li for ei, li in zip(e, germ.lead_exp))


def wdivide(g, germ):
    """Divide g by the germ: g = q*P + r with r supported off the cone.

    The elimination by P - t to depth 1 (see :func:`_reduce`): r is level 0,
    at ``g.trunc``, and q is level 1, at ``g.trunc - deg(lead_exp)``.
    """
    r, q = _eliminate(g, germ, 1)
    return DivisionResult(q, r)


def _eliminate(g, germ, depth):
    """Levels 0..depth of g modulo P - t, by :func:`_reduce`."""
    if g.dim != germ.dim:
        raise DimensionMismatchError(
            f"series has {g.dim} variables, germ has {germ.dim}")
    exact = _exact_real(g.terms) and _exact_real(germ.p.terms)
    with _kernel_prec(exact):
        return _reduce(g.terms, germ, g.trunc, depth, exact)


def _reduce(terms, germ, trunc, depth, exact):
    """Divide by ``P - t`` on packed numerators (sparse division with a heap).

    A term's level, its power of t, is one more packed exponent field, and t
    has degree ``deg(lead_exp)`` in the degree field, so the truncation test
    drops at level n what the n-th iterated division by P dropped.  A step
    cancels the order-minimal in-cone term ``c x^(m+lead)`` at level n with
    ``(c/lc) x^m (P - t)``.  t ranks above every monomial of degree <= trunc,
    so a step adds only larger terms, of which finitely many fit under the
    truncation, and the levels are reduced one after another, in the term
    order of the iterated divisions; level ``depth``, the quotient, is not
    reduced.  rem never holds a zero, as cancelled entries are deleted.

    For exact real data P is scaled to integer coefficients with lead L.  A
    term is a pair ``(n, j)`` standing for ``n / (den_g * L**j)``: cancelling
    it adds terms of generation ``j + 1``, and two generations meeting on one
    exponent are aligned by a power of L.  Other data divide P's tail by its
    lead coefficient once, so L = 1 and ``n`` is the coefficient itself.
    Heap entries are ints: the order key (linear in the exponent) above the
    packed exponent.
    """
    lead = germ.lead_exp
    d = len(lead)
    ell = germ.lead_degree
    # wide enough for lead's exponents too, which the cone test subtracts field by field
    packing = _Packing(d + 1, max(trunc, ell))
    top = packing.top
    pack = packing.pack
    # the top bit of each x-exponent field: (p | guard) - plead keeps it in every
    # field where p's exponent is >= lead's, i.e. p lies in the cone
    guard = sum(1 << (shift + packing.width - 1) for shift in packing.shifts[:d])
    level_shift = packing.shifts[d]
    level_mask, quotient_level = packing.mask << level_shift, depth << level_shift
    # key = weight * R**(d+1) + degree * R**d + tiebreak digits in base R = trunc + 1,
    # the tiebreak digit of x_i being -e_i; this orders in-window exponents as
    # MonomialOrder.key does
    radix = trunc + 1
    order = germ.order
    place = range(d - 1, -1, -1) if order.tiebreak == "lex" else range(d)
    alpha = [w * radix ** (d + 1) + radix ** d - radix ** pos
             for w, pos in zip(order.int_weights, place)]

    def okey(e):
        return sum(a * k for a, k in zip(alpha, e))

    key_bits = top + packing.width
    key_mask = (1 << key_bits) - 1
    if exact:
        p_num, p_den = _lift(germ.p.terms, exact)
        big_l = p_num[lead]
        tail = {e: -c for e, c in p_num.items()}
        t_coeff = p_den
    else:
        big_l = 1
        tail = {e: -sdiv(c, germ.lead_coeff) for e, c in germ.p.terms.items()}
        t_coeff = sdiv(1, germ.lead_coeff)
    plead, klead = pack(lead + (0,)), okey(lead)
    tail = [(pack(e + (0,)), okey(e) - klead, b) for e, b in tail.items()
            if e != lead and sum(e) <= trunc]
    # t: one level and deg(lead) degrees up, keyed above okey(e) for all sum(e) <= trunc
    tail.append(((1 << level_shift) + (ell << top), radix * max(alpha) - klead, t_coeff))
    # with L = 1 every generation has the same denominator: all terms stay at j = 0
    step = int(big_l != 1)
    g_num, g_den = _lift(terms, exact)
    rem = {}
    heap = []
    for e, n in g_num.items():
        p = pack(e + (0,))
        rem[p] = (n, 0)
        if ((p | guard) - plead) & guard == guard:
            heap.append((okey(e) << key_bits) | p)
    heapq.heapify(heap)
    while heap:
        entry = heapq.heappop(heap)
        p = entry & key_mask
        if p & level_mask == quotient_level:
            break  # every level below is reduced
        t = rem.pop(p, None)
        if t is None:
            continue
        n, j = t
        m = p - plead
        k = entry >> key_bits
        j1 = j + step
        for pt, dk, b in tail:
            p2 = m + pt
            if p2 >> top > trunc:
                continue
            delta = n * b
            t2 = rem.get(p2)
            if t2 is None:
                rem[p2] = (delta, j1)
                if ((p2 | guard) - plead) & guard == guard:
                    heapq.heappush(heap, ((k + dk) << key_bits) | p2)
                continue
            n2, j2 = t2
            if j2 < j1:
                n2 = n2 * big_l ** (j1 - j2) + delta
                j2 = j1
            elif j2 > j1:
                n2 += delta * big_l ** (j2 - j1)
            else:
                n2 += delta
            if n2:
                rem[p2] = (n2, j2)
            else:
                del rem[p2]
    levels = [{} for _ in range(depth + 1)]
    for p, t in rem.items():
        e = packing.unpack(p)
        levels[e[d]][e[:d]] = t
    truncs = [max(trunc - n * ell, -1) for n in range(depth + 1)]
    if not exact:
        return [TruncatedSeries(d, tr, {e: n for e, (n, _) in level.items()})
                for tr, level in zip(truncs, levels)]
    dens = [g_den]  # dens[j]: den_g * L**j
    for _ in range(max((j for _, j in rem.values()), default=0)):
        dens.append(dens[-1] * big_l)
    return [TruncatedSeries._clean(d, tr, {e: Fraction(n, dens[j]) for e, (n, j) in level.items()})
            for tr, level in zip(truncs, levels)]


class PExpansion:
    """Coefficients g_0..g_{M-1} of f = sum g_n * P^n, each off the cone.

    The same data read as ``sum_n g_n(x) t^n`` is the germ-relative
    transform of f; ``t_substitute`` puts P back in place of t.  The n-th
    coefficient certifies ``trunc - n*deg(lead_exp)`` orders
    (:meth:`reliable_order`); its stored terms beyond that are exact for
    the polynomial representative of f.
    """

    __slots__ = ("germ", "coeffs", "depth", "trunc")

    def __init__(self, germ, coeffs, trunc):
        object.__setattr__(self, "germ", germ)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "depth", len(coeffs))
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, *a):
        raise AttributeError("PExpansion is immutable")

    def reliable_order(self, n):
        return self.trunc - n * self.germ.lead_degree

    def specialize(self, point):
        """Evaluate every coefficient at a point: a_n = g_n(point) is the coefficient
        of t^n in one substitution of ``(point, t)`` into G (:func:`_t_series`)."""
        images = _constant_images(point, self.germ.dim) + [TruncatedSeries.variable(0, 1, 1)]
        a = substitute(_t_series(self), images, out_trunc=self.depth - 1)
        return [a.coeff((n,)) for n in range(self.depth)]

    def __repr__(self):
        nz = sum(1 for g in self.coeffs if not g.is_zero)
        return (f"<PExpansion depth={self.depth} trunc={self.trunc} "
                f"nonzero={nz} lead={self.germ.lead_exp}>")

    def to_json(self):
        return {
            "germ": series_to_json(self.germ.p),
            "order": self.germ.order.to_json(),
            "depth": self.depth,
            "trunc": self.trunc,
            "coeffs": [series_to_json(g) for g in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj):
        germ = Germ(series_from_json(obj["germ"]),
                    MonomialOrder.from_json(obj["order"]))
        coeffs = [series_from_json(g) for g in obj["coeffs"]]
        return cls(germ, coeffs, int(obj.get("trunc", germ.p.trunc)))


def p_expand(f, germ, depth):
    """Expand f in powers of the germ: levels 0..depth-1 of f modulo P - t."""
    return PExpansion(germ, _eliminate(f, germ, depth)[:depth], f.trunc)


def t_substitute(expansion):
    """Replace t by P: evaluate sum g_n * P^n modulo the expansion's truncation.

    One substitution of ``(x_1, ..., x_d, P)`` into ``G(x, t) = sum g_n(x) t^n``,
    formed at the expansion's stated truncation, so this is the exact
    left-inverse of :func:`p_expand` there (provided the depth exhausted the
    quotient).
    """
    germ = expansion.germ
    trunc = min(expansion.trunc, germ.p.trunc)
    xs = [TruncatedSeries.variable(i, germ.dim, trunc) for i in range(germ.dim)]
    return substitute(_t_series(expansion), xs + [germ.p], out_trunc=trunc)


def _t_series(expansion):
    """``G(x, t) = sum g_n(x) t^n``, t the last variable.  It wraps the terms of
    valid series, so nothing is left to check; t^n adds n to a degree."""
    g_top = max((g.trunc + n for n, g in enumerate(expansion.coeffs)), default=-1)
    return TruncatedSeries._clean(expansion.germ.dim + 1, g_top, {
        e + (n,): c for n, g in enumerate(expansion.coeffs) for e, c in g.terms.items()})
