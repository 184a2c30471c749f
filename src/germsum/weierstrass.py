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
from fractions import Fraction

from .errors import DimensionMismatchError, ZeroGermError
from .scalars import is_zero, sdiv
from .series import (MonomialOrder, TruncatedSeries, _exact_real, _kernel_prec, _lift,
                     _Packing, series_from_json, series_to_json, v_ell)


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
    if germ.lead_degree > g.trunc:
        return DivisionResult(TruncatedSeries.zero(g.dim, -1), g)
    exact = _exact_real(g.terms) and _exact_real(germ.p.terms)
    with _kernel_prec(exact):
        return _wdivide(g.terms, germ, g.trunc, exact)


def _wdivide(terms, germ, trunc, exact):
    """The elimination on packed numerators (sparse division with a heap).

    For exact real data P is scaled to integer coefficients with lead L.  A
    remainder term is a pair ``(n, j)`` standing for ``n / (den_g * L**j)``:
    cancelling it against ``(term / lead monomial) * P`` adds terms of
    generation ``j + 1``, and two generations meeting on one exponent are
    aligned by a power of L.  Other data divide P's tail by its lead
    coefficient once, so L = 1 and ``n`` is the coefficient itself.  A step
    adds only terms larger than the one it cancels, so each quotient exponent
    is set once; rem never holds a zero, as cancelled entries are deleted.
    Heap entries are ints: the order key (linear in the exponent, valid up to
    degree trunc) above the packed exponent.
    """
    lead = germ.lead_exp
    d = len(lead)
    packing = _Packing(d, trunc)
    pack = packing.pack
    # the top bit of each exponent field: (p | guard) - plead keeps it in every
    # field where p's exponent is >= lead's, i.e. p lies in the cone
    guard = sum(1 << (shift + packing.width - 1) for shift in packing.shifts)
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

    key_bits = packing.top + packing.width
    key_mask = (1 << key_bits) - 1
    lc = germ.lead_coeff
    if exact:
        p_num, p_den = _lift(germ.p.terms, exact)
        big_l = p_num[lead]
        tail = {e: -c for e, c in p_num.items()}
    else:
        big_l = 1
        tail = {e: -sdiv(c, lc) for e, c in germ.p.terms.items()}
    plead, klead = pack(lead), okey(lead)
    tail = [(pack(e), okey(e) - klead, b) for e, b in tail.items()
            if e != lead and sum(e) <= trunc]
    # with L = 1 every generation has the same denominator: all terms stay at j = 0
    step = int(big_l != 1)
    top = packing.top
    g_num, g_den = _lift(terms, exact)
    rem = {}
    heap = []
    for e, n in g_num.items():
        p = pack(e)
        rem[p] = (n, 0)
        if ((p | guard) - plead) & guard == guard:
            heap.append((okey(e) << key_bits) | p)
    heapq.heapify(heap)
    quot = []
    while heap:
        entry = heapq.heappop(heap)
        p = entry & key_mask
        t = rem.pop(p, None)
        if t is None:
            continue
        n, j = t
        m = p - plead
        quot.append((m, n, j))
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
    unpack = packing.unpack
    q_trunc = trunc - germ.lead_degree
    if not exact:
        return DivisionResult(
            TruncatedSeries(d, q_trunc, {unpack(m): sdiv(n, lc) for m, n, _ in quot}),
            TruncatedSeries(d, trunc, {unpack(p): n for p, (n, _) in rem.items()}))
    dens = [g_den]  # dens[j]: den_g * L**j
    for j in range(1 + max((j for _, _, j in quot), default=0)):
        dens.append(dens[-1] * big_l)
    return DivisionResult(
        TruncatedSeries._clean(d, q_trunc, {unpack(m): Fraction(n * p_den, dens[j + 1])
                                            for m, n, j in quot}),
        TruncatedSeries._clean(d, trunc, {unpack(p): Fraction(n, dens[j])
                                          for p, (n, j) in rem.items()}))


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
