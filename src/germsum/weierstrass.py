"""Division by an analytic germ and germ-power expansions of series.

Given a germ P (vanishing at the origin, nonzero) and a monomial order,
every series g splits uniquely as ``g = q*P + r`` where no exponent of r
lies in the cone ``lead_exp(P) + N^d``.  Iterating on the quotient writes
any series as ``sum_n g_n * P^n`` with cone-avoiding coefficients; read as
a one-variable series in a new variable t, that coefficient list is the
germ-relative transform of the series, inverted by re-substituting P for t.

Division is performed by deterministic term elimination in increasing
monomial order, with all products truncated at the input's order.  The
output is exact for the stored polynomial representative on every exponent
of weight below ``(trunc+1) * min(weights)``; in terms of plain degrees,
the quotient certifies ``g.trunc - deg(lead_exp)`` orders and the
remainder is reported at ``g.trunc``.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import DimensionMismatchError, ZeroGermError
from .scalars import is_zero, sadd, sdiv, smul, sneg
from .series import MonomialOrder, TruncatedSeries, series_from_json, series_to_json, v_ell


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

    Deterministic: repeatedly cancels the order-minimal in-cone term of the
    running remainder against ``(term / lead monomial) * P``.  Every
    cancellation replaces the minimal in-cone term by strictly larger ones,
    and only finitely many exponents fit under the truncation, so the loop
    terminates.  Truncation: q at ``g.trunc - deg(lead_exp)``, r at
    ``g.trunc``.
    """
    if g.dim != germ.dim:
        raise DimensionMismatchError(
            f"series has {g.dim} variables, germ has {germ.dim}")
    lead = germ.lead_exp
    lc = germ.lead_coeff
    key = germ.order.key
    trunc = g.trunc

    def in_cone(e):
        return all(ei >= li for ei, li in zip(e, lead))

    # the non-leading terms of -P, negated once per call.  A step adds only
    # terms larger than the one it cancels, so each quotient exponent is set
    # once; rem never holds a zero, as cancelled entries are deleted.
    neg_tail = {e: sneg(c) for e, c in germ.p.terms.items() if e != lead}
    rem = dict(g.terms)
    quot = {}
    heap = [(key(e), e) for e in rem if in_cone(e)]
    heapq.heapify(heap)
    while heap:
        _, e = heapq.heappop(heap)
        c = rem.pop(e, None)
        if c is None:
            continue
        m = tuple(ei - li for ei, li in zip(e, lead))
        factor = quot[m] = sdiv(c, lc)
        for be, bc in neg_tail.items():
            e2 = tuple(mi + bi for mi, bi in zip(m, be))
            if sum(e2) > trunc:
                continue
            delta = smul(factor, bc)
            if e2 in rem:
                c2 = sadd(rem[e2], delta)
                if is_zero(c2):
                    del rem[e2]
                else:
                    rem[e2] = c2
            else:
                rem[e2] = delta
                if in_cone(e2):
                    heapq.heappush(heap, (key(e2), e2))
    q = TruncatedSeries(g.dim, max(trunc - germ.lead_degree, -1), quot)
    r = TruncatedSeries(g.dim, trunc, rem)
    return DivisionResult(q, r)


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
        """Evaluate every coefficient at a point: the list a_n = g_n(point)."""
        return [g.eval_at(point) for g in self.coeffs]

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
    """Expand f in powers of the germ: g_0 = remainder, recurse on the quotient."""
    if f.dim != germ.dim:
        raise DimensionMismatchError(
            f"series has {f.dim} variables, germ has {germ.dim}")
    coeffs = []
    cur = f
    for _ in range(depth):
        division = wdivide(cur, germ)
        coeffs.append(division.r)
        cur = division.q
    return PExpansion(germ, coeffs, f.trunc)


def t_substitute(expansion):
    """Replace t by P: evaluate sum g_n * P^n modulo the expansion's truncation.

    All products are formed at the expansion's stated truncation, so this
    is the exact left-inverse of :func:`p_expand` there (provided the depth
    exhausted the quotient).
    """
    germ = expansion.germ
    trunc = min(expansion.trunc, germ.p.trunc)
    p_work = germ.p.with_trunc(trunc)
    acc = TruncatedSeries.zero(germ.dim, trunc)
    p_pow = TruncatedSeries.one(germ.dim, trunc)
    for n, g in enumerate(expansion.coeffs):
        if n:
            p_pow = p_pow * p_work
        if g.is_zero:
            continue
        acc = acc + g.with_trunc(trunc) * p_pow
    return acc
