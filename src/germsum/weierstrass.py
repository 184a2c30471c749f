"""Division by an analytic germ and germ-power expansions of series.

Given a germ P (vanishing at the origin, nonzero) and a monomial order,
every series g splits uniquely as ``g = q*P + r`` where no exponent of r
lies in the cone ``lead_exp(P) + N^d``.  The expansion ``g = sum_n g_n * P^n``
with every g_n off the cone is the same split by ``P - t``, for a new
variable t: one elimination gives ``sum_n g_n(x) t^n``, its level n being
the coefficient of t^n, and a depth-1 elimination gives r (level 0) and q
(level 1).  Substituting P for t inverts the expansion.

Division is performed by deterministic term elimination in increasing
monomial order, with all products truncated at the input's order; on
int/Fraction data every term is an integer numerator over one shared
denominator, rescaled by a doubling power of P's integer lead when a
cancellation needs it (:func:`_reduce`).  The output is exact for the
stored polynomial representative on every exponent of weight below
``(trunc+1) * min(weights)``; in terms of plain degrees, level n certifies
``g.trunc - n*deg(lead_exp)`` orders.  On float data the round-off that
rounded data leave where they cancel is dropped, by the mass each term
carries (:func:`_reduce_float`).
"""
from __future__ import annotations

import heapq
from fractions import Fraction
from functools import cached_property
from math import frexp, inf

from mpmath import mp

from .errors import DimensionMismatchError, ZeroGermError
from .scalars import (NOISE_MARGIN, Record, gi_abs, gi_from_mpc, gi_lift, gi_to_mpc, integer_arg,
                      is_zero, ldexp_inf, sdiv, to_mpc, working_prec)
from .series import (MonomialOrder, TruncatedSeries, _constant_images, _exact_real, _float_bits,
                     _has_exact, _json_int, _lift, _Packing, _read, _rounded, series_from_json,
                     series_to_json, substitute, v_ell)


class Germ(Record):
    """A divisor germ: nonzero series with zero constant term, plus its order data."""
    p: TruncatedSeries
    order: MonomialOrder
    lead_exp: tuple
    lead_coeff: object

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
        super().__init__(p, order, lead, p.terms[lead])

    @property
    def dim(self):
        return self.p.dim

    @property
    def lead_degree(self):
        return sum(self.lead_exp)

    def __repr__(self):
        return f"Germ({self.p!r}, lead={self.lead_exp}, order={self.order!r})"


class DivisionResult(Record):
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
    """Levels 0..depth of g modulo P - t, by :func:`_reduce`, as series.

    Each pass's remainder is split by level and read out by :meth:`_Frame.read`
    through the series kernel's one readout (:func:`germsum.series._read`), each
    value once.  On int/Fraction data each term is read as ``Fraction(n, D)``, D
    the one denominator that all remainder terms share.  On float data each term carries its mass
    (:func:`_reduce_float`: |c| for an input term, the mass of n times |b| for a
    product n*b, masses adding where terms meet), and a term at most
    2^(16 - prec) of its mass is dropped as round-off; each kept term is rounded
    to the working precision once.  The generic pass, on g's coefficients as
    :func:`germsum.series._lift` reads them, keeps every nonzero term."""
    if g.dim != germ.dim:
        raise DimensionMismatchError(
            f"series has {g.dim} variables, germ has {germ.dim}")
    frame = _Frame(germ, g.trunc, depth)
    truncs = [max(g.trunc - n * germ.lead_degree, -1) for n in range(depth + 1)]
    if _exact_real(g.terms) and _exact_real(germ.p.terms):
        rem, den = _reduce(frame, g.terms, germ, True)
        return frame.read(rem, truncs, lambda n: Fraction(n, den))
    if _has_exact(g.terms):
        with mp.workprec(_float_bits()):
            rem, _ = _reduce(frame, g.terms, germ, False)
        return frame.read(rem, truncs, _rounded(working_prec()))
    prec = working_prec()
    return frame.read(_reduce_float(frame, g.terms, germ), truncs, lambda c: gi_to_mpc(c, prec))


class _Frame:
    """The packed keys of an elimination by ``P - t`` (see :func:`_reduce`).

    A term's level, its power of t, is one more packed exponent field, and t
    has degree ``deg(lead_exp)`` in the degree field.  Heap entries are ints:
    the order key (linear in the exponent) above the packed exponent.
    """

    def __init__(self, germ, trunc, depth):
        lead = germ.lead_exp
        d = len(lead)
        ell = germ.lead_degree
        self.trunc = trunc
        # wide enough for lead's exponents too, which the cone test subtracts field by field
        self.packing = packing = _Packing(d + 1, max(trunc, ell))
        # a key's x-exponent fields alone, at the same width: its exponent without its level
        self.exponent = _Packing(d, max(trunc, ell)).unpack
        self.top = top = packing.top
        pack = packing.pack
        # the top bit of each x-exponent field: (p | guard) - plead keeps it in every
        # field where p's exponent is >= lead's, i.e. p lies in the cone
        self.guard = sum(1 << (shift + packing.width - 1) for shift in packing.shifts[:d])
        self.level_shift = level_shift = packing.shifts[d]
        self.level_mask = packing.mask << level_shift
        self.quotient_level = depth << level_shift
        self.dim = d
        # key = weight * R**(d+1) + degree * R**d + tiebreak digits in base R = trunc + 1,
        # the tiebreak digit of x_i being -e_i; this orders in-window exponents as
        # MonomialOrder.key does
        radix = trunc + 1
        order = germ.order
        place = range(d - 1, -1, -1) if order.tiebreak == "lex" else range(d)
        self.alpha = alpha = [w * radix ** (d + 1) + radix ** d - radix ** pos
                              for w, pos in zip(order.int_weights, place)]
        self.key_bits = top + packing.width
        self.key_mask = (1 << self.key_bits) - 1
        self.plead, klead = pack(lead + (0,)), self.okey(lead)
        # P's exponents other than lead within the window, then t: one level and
        # deg(lead) degrees up, keyed above okey(e) for all sum(e) <= trunc
        self.tail_exps = [e for e in germ.p.terms if e != lead and sum(e) <= trunc]
        self.tail = [(pack(e + (0,)), self.okey(e) - klead) for e in self.tail_exps]
        self.tail.append(((1 << level_shift) + (ell << top), radix * max(alpha) - klead))

    def okey(self, e):
        return sum(a * k for a, k in zip(self.alpha, e))

    def start(self, values):
        """The packed remainder of ``values`` (exponent -> entry) and its heap."""
        pack, guard, plead = self.packing.pack, self.guard, self.plead
        rem = {}
        heap = []
        for e, v in values.items():
            p = pack(e + (0,))
            rem[p] = v
            if ((p | guard) - plead) & guard == guard:
                heap.append((self.okey(e) << self.key_bits) | p)
        heapq.heapify(heap)
        return rem, heap

    def read(self, rem, truncs, read):
        """``rem`` split by level, levels 0..depth, each read out by
        :func:`germsum.series._read` at its truncation in ``truncs``."""
        levels = [{} for _ in truncs]
        shift, mask = self.level_shift, self.packing.mask
        for p, v in rem.items():
            levels[(p >> shift) & mask][p] = v
        return [_read(self.dim, tr, self.exponent, level, read)
                for tr, level in zip(truncs, levels)]


def _reduce(frame, terms, germ, exact):
    """Divide by ``P - t`` on packed numerators (sparse division with a heap): the
    exact or generic pass, returning the remainder by packed key and its denominator.

    A step cancels the order-minimal in-cone term ``c x^(m+lead)`` at level n
    with ``(c/lc) x^m (P - t)``.  Since t has degree ``deg(lead_exp)``, the
    truncation test drops at level n what the n-th iterated division by P
    dropped.  t ranks above every monomial of degree <= trunc, so a step adds
    only larger terms, of which finitely many fit under the truncation, and the
    levels are reduced one after another, in the term order of the iterated
    divisions; level ``depth``, the quotient, is not reduced.  rem never holds
    a zero, as cancelled entries are deleted.

    For exact real data P is scaled to integer coefficients with lead L, and
    every term is an integer numerator over one denominator D = den_g * L**J
    that all terms share (Bareiss's integer-preserving idea, Math. Comp. 22,
    1968), so terms that meet add as they are.  Cancelling a term divides its
    numerator by L once; where L does not divide it, every numerator and D are
    multiplied by L**s first, and s doubles (1, 2, 4, ...), so J stays below
    twice the power of L the data need and there are O(log J) rescales.  Other data
    divide P's tail by its lead coefficient once, so L = 1 and a term is the
    coefficient itself, under the promotion rule of :mod:`germsum.scalars` at
    the caller's precision, never divided.
    """
    lead = germ.lead_exp
    if exact:
        p_num, p_den = _lift(germ.p.terms, exact)
        big_l = p_num[lead]
        coeffs = [-p_num[e] for e in frame.tail_exps] + [p_den]
    else:
        big_l = 1
        lc = germ.lead_coeff
        coeffs = [-sdiv(germ.p.terms[e], lc) for e in frame.tail_exps] + [sdiv(1, lc)]
    tail = [(pt, dk, b) for (pt, dk), b in zip(frame.tail, coeffs)]
    g_num, den = _lift(terms, exact)
    rem, heap = frame.start(g_num)
    grow = big_l  # the next rescale, L**s
    top, trunc, key_bits, key_mask = frame.top, frame.trunc, frame.key_bits, frame.key_mask
    guard, plead = frame.guard, frame.plead
    level_mask, quotient_level = frame.level_mask, frame.quotient_level
    while heap:
        entry = heapq.heappop(heap)
        p = entry & key_mask
        if p & level_mask == quotient_level:
            break  # every level below is reduced
        n = rem.pop(p, None)
        if n is None:
            continue
        if big_l != 1:
            q, r = divmod(n, big_l)
            if r:  # L does not divide n: rescale every numerator and den by L**s, then double s
                rem = {p2: v * grow for p2, v in rem.items()}
                den *= grow
                q = n * (grow // big_l)
                grow *= grow
            n = q
        m = p - plead
        k = entry >> key_bits
        for pt, dk, b in tail:
            p2 = m + pt
            if p2 >> top > trunc:
                continue
            delta = n * b
            t2 = rem.get(p2)
            if t2 is None:
                rem[p2] = delta
                if ((p2 | guard) - plead) & guard == guard:
                    heapq.heappush(heap, ((k + dk) << key_bits) | p2)
                continue
            t2 += delta
            if t2:
                rem[p2] = t2
            else:
                del rem[p2]
    return rem, den


def _mass(re, im, bits):
    """|re + i im| 2^-bits as a float, inf above the float range."""
    try:
        return gi_abs((re, im, 0), bits)
    except OverflowError:
        return inf


def _reduce_float(frame, terms, germ):
    """The float pass of :func:`_reduce`: the remainder as kernel numbers
    (re, im, e), standing for (re + i im) 2^e, by packed key, its noise dropped.

    g's coefficients are lifted exactly onto one grid 2^eg (``scalars.gi_lift``),
    and P's tail and t's coefficient, divided by the lead coefficient at
    prec + 32 bits, to kernel numbers of prec + 32 bits.  Each term carries its
    own exponent.  A term, when it is cancelled, and each product n*b are cut
    (toward -inf) below 2^eg or below prec + 32 bits under their own top,
    whichever bit is lower: a term as large as g's keeps every bit of g's grid,
    which the cancellation down to small levels needs, and a term far below g's
    smallest keeps its relative precision, as an mpc would.  Sums are exact, on
    the lower of the two exponents.

    The cut, the exponent and the mass factor of each product n*b depend only
    on n's exponent and width and on b, so each pop takes them from a plan, one
    entry per tail entry (the elimination by a heap of Monagan and Pearce, J.
    Symb. Comput. 46, 2011, with its per-term work hoisted out of the product
    loop).  A term on g's grid at least as wide as every cut, as nearly every
    term is, takes the plan built once before the loop, whose factors
    c = bm 2^(bits - s) give each product's mass as mn c, equal bit for bit to
    ``ldexp_inf(mn bm, bits - s)`` while c, mn bm and mn c are normal floats.
    Any other pop builds its own plan, holding each product's mass itself.

    Each term also carries its mass, a running bound on what it is made of
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 3.3):
    an input term's mass is |c|, a product n*b has the mass of n times |b|, and
    where terms meet their masses add.  The mass is a float m standing for
    m 2^(e + prec + 32) on the term's own exponent e, so it stays in range
    when the term does.  Float data accurate to prec bits cannot tell a term
    of magnitude at most 2^(16 - prec) of its mass (``scalars.NOISE_MARGIN``)
    from zero: such a term is round-off left where rounded data cancelled.  It
    is dropped when popped, so noise is never reduced, and when the remainder
    is read out.  An input term, or a sum in which nothing cancelled, is never
    dropped; nor is a term whose mass overflowed the float range (m = inf).
    """
    bits = _float_bits()
    # a term of wn bits is below 2^(wn + 1/2 + e), which is at most
    # 2^(NOISE_MARGIN - prec) m 2^(e + bits) once 2^(E - 1) <= m (E = frexp(m)[1])
    # is: when wn - E <= lag
    lag = bits - working_prec() + NOISE_MARGIN - 2
    lc = germ.lead_coeff
    with mp.workprec(bits):
        lc = to_mpc(lc)
        coeffs = [-to_mpc(germ.p.terms[e]) / lc for e in frame.tail_exps] + [1 / lc]
    tail = []
    for (pt, dk), b in zip(frame.tail, coeffs):
        br, bi, eb = gi_from_mpc(b, bits)
        s = bits - max(br.bit_length(), bi.bit_length())  # widen to exactly bits bits
        br, bi, eb = br << s, bi << s, eb - s
        # |b| = bm 2^(eb + bits), 1/2 <= bm < 2^(1/2)
        tail.append((pt, dk, br, bi, eb, gi_abs((br, bi, 0), bits)))
    mants, eg = gi_lift(terms.values(), bits)

    def plan(en, wn, shift, mn):
        """Per tail entry b, for a popped term n of exponent en and wn bits: the key
        step, the heap-key offset, b, the cut s of n*b, its exponent en + eb + s and its
        mass mn bm 2^(shift - s).  n*b has wn + bits bits (one more or less) from
        2^(en + eb) up, and is cut at 2^eg or wn bits up, whichever is lower."""
        steps = []
        for pt, dk, br, bi, eb, bm in tail:
            s = min(max(eg - en - eb, 0), wn)
            steps.append((pt, dk, br, bi, s, en + eb + s, ldexp_inf(mn * bm, shift - s)))
        return steps

    # a term on g's grid of at least cut bits takes the grid plan's cuts, whatever its
    # width; mn c (c = bm 2^(bits - s)) is ldexp_inf(mn bm, bits - s) bit for bit while
    # c, mn bm and mn c are normal floats, that is while lo <= mn < hi
    cut = max(max(-eb, 0) for *_, eb, _ in tail)
    grid = plan(eg, cut, bits, 1.0)
    cs = [c for *_, c in grid]
    lo = 2.0 ** -1021 / min(*cs, 1.0) if 2.0 ** -1022 <= min(cs) and max(cs) < inf else inf
    hi = 2.0 ** 1023
    rem, heap = frame.start({x: (r, i, eg, _mass(r, i, bits)) for x, (r, i) in zip(terms, mants)})
    top, key_bits, key_mask = frame.top, frame.key_bits, frame.key_mask
    limit = (frame.trunc + 1) << top  # p2 >= limit: p2 is above the truncation
    guard, plead = frame.guard, frame.plead
    level_mask, quotient_level = frame.level_mask, frame.quotient_level
    heappop, heappush = heapq.heappop, heapq.heappush
    while heap:
        entry = heappop(heap)
        p = entry & key_mask
        if p & level_mask == quotient_level:
            break  # every level below is reduced
        t = rem.pop(p, None)
        if t is None:
            continue
        nr, ni, en, mn = t
        wn = max(nr.bit_length(), ni.bit_length())
        if 0 < mn < inf and wn - frexp(mn)[1] <= lag:
            continue  # noise
        if en == eg and wn >= cut and lo <= mn < hi:
            steps, scale = grid, mn
        else:  # n is cut below 2^eg or bits bits under its top, whichever is lower
            s = max(min(wn - bits, eg - en), 0)
            nr, ni, en, wn = nr >> s, ni >> s, en + s, wn - s
            steps, scale = plan(en, wn, bits - s, mn), 1.0
        m = p - plead
        k = entry >> key_bits
        for pt, dk, br, bi, s, e2, c in steps:
            p2 = m + pt
            if p2 >= limit:
                continue
            dr = (nr * br - ni * bi) >> s
            di = (nr * bi + ni * br) >> s
            m2 = scale * c
            t2 = rem.get(p2)
            if t2 is None:
                rem[p2] = (dr, di, e2, m2)
                if ((p2 | guard) - plead) & guard == guard:
                    heappush(heap, ((k + dk) << key_bits) | p2)
                continue
            tr, ti, et, mt = t2
            if et == e2:
                dr += tr
                di += ti
                m2 += mt
            elif et < e2:
                s, e2 = e2 - et, et
                dr, di = (dr << s) + tr, (di << s) + ti
                m2 = ldexp_inf(m2, s) + mt
            else:
                dr, di = dr + (tr << et - e2), di + (ti << et - e2)
                m2 += ldexp_inf(mt, et - e2)
            if dr or di:
                rem[p2] = (dr, di, e2, m2)
            else:
                del rem[p2]
    return {p: (r, i, e) for p, (r, i, e, m) in rem.items()
            if not (0 < m < inf and max(r.bit_length(), i.bit_length()) - frexp(m)[1] <= lag)}


class PExpansion(Record):
    """Coefficients g_0..g_{M-1} of f = sum g_n * P^n, each off the cone.

    The same data read as ``sum_n g_n(x) t^n`` is the germ-relative
    transform of f; ``t_substitute`` puts P back in place of t.  The n-th
    coefficient certifies ``trunc - n*deg(lead_exp)`` orders
    (:meth:`reliable_order`); its stored terms beyond that are exact for
    the polynomial representative of f.

    ``_borel`` holds, per (k, prec), the coefficients of the last
    specialization that :func:`germsum.borel.p_k_sum` summed and the
    ``BorelSeries`` built from them, so that points whose coefficients are
    equal share one continuation.
    """
    germ: Germ
    coeffs: tuple
    depth: int
    trunc: int

    def __init__(self, germ, coeffs, trunc):
        coeffs = tuple(coeffs)
        super().__init__(germ, coeffs, len(coeffs), trunc)

    @cached_property
    def _borel(self):
        return {}

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
        """The expansion of :meth:`to_json`; ``ValueError``, naming the field,
        when one is missing or of the wrong type."""
        def field(name, parse):
            try:
                return parse(obj[name])
            except (KeyError, TypeError) as exc:
                raise ValueError(f"expansion JSON field {name!r} missing or invalid: {exc!r}") from exc

        germ = Germ(series_from_json(field("germ", dict)), field("order", MonomialOrder.from_json))
        coeffs = [series_from_json(g) for g in field("coeffs", list)]
        if _json_int(obj.get("depth", len(coeffs))) != len(coeffs):
            raise ValueError(f"expansion JSON depth {obj['depth']} is not its {len(coeffs)} coeffs")
        if any(g.dim != germ.dim for g in coeffs):
            raise ValueError(f"expansion JSON has a coefficient not of dimension {germ.dim}")
        return cls(germ, coeffs, _json_int(obj.get("trunc", germ.p.trunc)))


def p_expand(f, germ, depth):
    """Expand f in powers of the germ: levels 0..depth-1 of f modulo P - t.

    On float data a term whose magnitude is at most 2^(16 - prec) of its
    mass, the running bound on what it is made of (|c| for an input term,
    the mass of n times |b| for a product n*b, masses adding where terms
    meet), is round-off left where rounded data cancelled, and is dropped
    (:func:`_reduce_float`): where f = sum g_n P^n exactly with constant g_n,
    the expansion of its rounded image has one term per coefficient.  A
    negative ``depth``, or one that is not an integer, raises ``ValueError``.
    """
    depth = integer_arg(depth, "expansion depth")
    if depth < 0:
        raise ValueError(f"expansion depth {depth} is negative")
    return PExpansion(germ, _eliminate(f, germ, depth)[:depth], f.trunc)


def t_substitute(expansion):
    """Replace t by P: evaluate sum g_n * P^n modulo the expansion's truncation.

    With T = min(expansion.trunc, P.trunc): one substitution of
    ``(x_1, ..., x_d, P)`` into ``G(x, t) = sum g_n(x) t^n`` (:func:`_t_series`)
    at T, on every coefficient domain, so this is the exact left-inverse of
    :func:`p_expand` there (provided the depth exhausted the quotient).  For
    P of more than one term the kernel runs it as Horner's rule in P
    (:func:`germsum.series._horner`): the x_i are monomial images, so each g_n
    is added term by term to ``acc * P``, level n kept to degree T - n*val(P).
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
