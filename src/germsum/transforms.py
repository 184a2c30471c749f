"""Blow-up charts, ramification, rotation averaging and dominant-term data.

The quadratic blow-up of the (x1, x2)-plane is covered by charts indexed
by a point xi of the projective line: in the chart at finite xi the map is
``(x1, x2, rest) = (v2, (xi+v1)*v2, rest)`` and in the chart at infinity
``(v1*v2, v2, rest)``.  Overlapping charts differ by the shift
``v1 -> v1 + (zeta - xi)``.  The ramification of order k substitutes
``x1 = t1^k``; series invariant under the induced rotation descend by
dividing the first exponent by k.

``dominant_data`` extracts, for a germ P, the bivariate leading form H
(degree h) whose projective zeros are exactly the charts where the blown-up
germ fails to start with the monomial ``v2^h * rest^a``; off those charts
the completed weight order makes ``(0, h) ++ a`` the minimal exponent of
the blown-up germ.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction

from mpmath import mp

from .errors import DimensionMismatchError, ZeroGermError
from . import scalars
from .scalars import (Record, gi_below, gi_div, gi_from_mpc, gi_horner, gi_mag, gi_mul,
                      gi_round, gi_sub, gi_to_mpc, gi_width, is_zero, sadd, scalar_to_json,
                      to_mpc, working_prec)
from .series import MonomialOrder, TruncatedSeries, substitute


class _Infinity(Record):
    def __repr__(self):
        return "inf"


#: Chart marker for the point at infinity of the exceptional line.
INFINITY = _Infinity()


def _resolve_chart(chart):
    """The centre a chart argument names: a string is the chart at infinity when it
    reads ``"inf"`` or ``"infinity"`` (any case), else a scalar
    (:func:`scalars.parse_scalar`); any other argument is the centre itself."""
    if isinstance(chart, str):
        return INFINITY if chart.lower() in ("inf", "infinity") else scalars.parse_scalar(chart)
    return chart


def blowup(f, chart):
    """Compose f with the blow-up chart at xi (or at infinity), xi a scalar,
    :data:`INFINITY` or a string (``"inf"``, ``"1/2"``).

    Each input term of total degree m lands at v-degree >= m, so the
    output keeps f's truncation order.  Non-exact xi promotes the affected
    coefficients to floats.
    """
    xi = _resolve_chart(chart)
    if f.dim < 2:
        raise DimensionMismatchError("blow-up needs at least two variables")
    d, n = f.dim, f.trunc
    v2 = TruncatedSeries.variable(1, d, n)
    rest = [TruncatedSeries.variable(j, d, n) for j in range(2, d)]
    if xi is INFINITY:
        v1v2 = TruncatedSeries.monomial((1, 1) + (0,) * (d - 2), 1, n)
        images = [v1v2, v2, *rest]
    else:
        img2 = {(1, 1) + (0,) * (d - 2): 1}
        if not is_zero(xi):
            img2[(0, 1) + (0,) * (d - 2)] = xi
        images = [v2, TruncatedSeries(d, n, img2), *rest]
    return substitute(f, images)


def ramify(f, k):
    """Substitute x1 = t1^k (k >= 2); all first exponents become multiples of k.

    The substitution is exact on the stored terms and the truncation order
    scales to ``k * f.trunc``, so that descending through
    :func:`rotation_average` round-trips (on genuinely ramified data this
    scaled claim is the correct one; for other degree-(> f.trunc) tails it
    holds on the stored representative).
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError("ramification order must be an integer >= 2")
    trunc = k * f.trunc if f.trunc >= 0 else -1
    return TruncatedSeries(f.dim, trunc,
                           {(k * e[0],) + e[1:]: c for e, c in f.terms.items()})


def rotation_average(g, k, descend=False):
    """Project g onto terms whose first exponent is divisible by k.

    This equals the average of g over the order-k rotation of the first
    variable.  With ``descend=True`` the first exponent (and the stored
    truncation order) is divided by k, undoing :func:`ramify` on
    rotation-invariant data.
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError("rotation order must be an integer >= 2")
    kept = {e: c for e, c in g.terms.items() if e[0] % k == 0}
    if not descend:
        return TruncatedSeries(g.dim, g.trunc, kept)
    trunc = g.trunc // k if g.trunc >= 0 else -1
    return TruncatedSeries(g.dim, trunc,
                           {(e[0] // k,) + e[1:]: c for e, c in kept.items()})


def chart_shift(f_xi, xi, zeta):
    """Move chart data from center xi to center zeta: v1 -> v1 + (zeta - xi).

    Satisfies ``blowup(f, zeta) == chart_shift(blowup(f, xi), xi, zeta)``
    whenever the stored data is exact to its truncation (in particular for
    polynomial input); the output keeps the input truncation on that
    representative basis.
    """
    xi = _resolve_chart(xi)
    zeta = _resolve_chart(zeta)
    if xi is INFINITY or zeta is INFINITY:
        raise ValueError("chart shifts are defined between finite charts")
    delta = sadd(zeta, scalars.sneg(xi))
    if is_zero(delta):
        return f_xi
    d, n = f_xi.dim, f_xi.trunc
    img1 = TruncatedSeries(d, n, {(1,) + (0,) * (d - 1): 1,
                                  (0,) * d: delta})
    images = [img1] + [TruncatedSeries.variable(j, d, n) for j in range(1, d)]
    return substitute(f_xi, images, out_trunc=n)


class DominantData(Record):
    """Leading-form data of a germ under blow-up.

    h: degree of the bivariate leading form; H: the form itself (dim-2
    series); a: minimal exponent of the remaining variables; roots: zeros
    of H on the projective line with multiplicities, the charts where the
    blown-up germ is not dominated by ``v2^h * rest^a`` (mpc, except
    ``INFINITY`` and a root at 0 of a zero constant term, ``Fraction(0)``).
    """
    base_order: object
    completed_order: MonomialOrder
    h: int
    H: TruncatedSeries
    a: tuple
    roots: tuple

    def to_json(self):
        return {
            "h": self.h,
            "H": [[e[0], e[1], scalar_to_json(c)] for e, c in self.H.sorted_terms()],
            "a": list(self.a),
            "roots": [{"value": _root_str(v), "mult": m} for v, m in self.roots],
            "order": self.completed_order.to_json(),
        }


def _root_str(v):
    if v is INFINITY:
        return "inf"
    if scalars.is_exact(v):
        return scalar_to_json(v)
    z = to_mpc(v)
    if z.imag == 0:
        return repr(float(z.real))
    # without complex's parentheses, in parse_scalar's grammar: blowup --xi reads it back
    return repr(complex(float(z.real), float(z.imag))).strip("()")


def _float_seeds(poly):
    """``(seeds, k)``: float64 companion-matrix eigenvalues, one per root
    (about the root over 2^k), of a kernel polynomial (highest degree first,
    constant term nonzero) in the variable scaled by 2^k.

    2^k is about the geometric mean of the roots' moduli where the
    coefficients span more than 2^1000 (else 1: ten roots near 2^300 left
    seven seeds near 0), and the coefficients are scaled by one power of two
    so that the largest has magnitude about 1: every coefficient then fits
    float64 (one far below the largest underflows to 0).  When numpy returns
    fewer finite eigenvalues than the degree (a leading coefficient
    underflowed) or fails, the rest are Durand-Kerner's usual
    (0.4 + 0.9i)^n.  numpy is imported here, its one use in the module, so
    that a command that roots nothing does not pay for the import.
    """
    import numpy

    d = len(poly) - 1
    mags = [gi_mag(c) for c in poly if c[0] or c[1]]
    k = round((gi_mag(poly[-1]) - gi_mag(poly[0])) / d) if max(mags) - min(mags) > 1000 else 0
    poly = [(re, im, e + k * (d - i)) for i, (re, im, e) in enumerate(poly)]
    top = max(gi_mag(c) for c in poly)
    coeffs = []
    for c in poly:
        re, im, e = gi_round(c, 53)
        coeffs.append(complex(math.ldexp(re, e - top), math.ldexp(im, e - top)))
    try:
        with numpy.errstate(all="ignore"):
            found = numpy.roots(numpy.array(coeffs)).tolist()
    except numpy.linalg.LinAlgError:
        found = []
    found = [z for z in found if cmath.isfinite(z)]
    return found + [(0.4 + 0.9j) ** n for n in range(len(found), d)], k


# Durand-Kerner sweeps at most, at each width: near a multiple root the sweeps stall.
_DK_SWEEPS = 200
# The width of the first sweeps, which lift the float64 seeds.
_DK_NARROW = 64


def _snap(z, tol):
    """z with what lies below 2^tol set to zero: all of it, or one component
    (as ``mpmath.polyroots`` does), so that roots on an axis land on it."""
    re, im, e = z
    if gi_below(z, 1, tol):
        return 0, 0, e
    if im.bit_length() + e <= tol:
        return re, 0, e
    return (0 if re.bit_length() + e <= tol else re), im, e


def _taylor_hl(coeffs, j, w):
    """Kernel coefficients, highest degree first, of P^(j)/j! for the
    polynomial P with kernel coefficients ``coeffs`` (lowest first): its
    value at z is the j-th Taylor coefficient of P at z."""
    return [gi_mul(c, (math.comb(i, j), 0, 0), w) for i, c in enumerate(coeffs)][j:][::-1]


def _dk_sweep(roots, monic, s, sweep):
    """One Durand-Kerner sweep over the roots of the monic polynomial (lower
    coefficients ``monic``), int pairs on the exponent -s, updated in place:
    each root of index in ``sweep`` in turn moves by f(p)/prod(p - q) over
    the other roots q (all of them), a zero difference left out.  Returns
    the squared moduli of the moves, in the order of ``sweep``."""
    one, moves = 1 << s, []
    for i in sweep:
        pr, pi = roots[i]
        fr, fi = one, 0
        for cr, ci in monic:
            fr, fi = ((fr * pr - fi * pi) >> s) + cr, ((fr * pi + fi * pr) >> s) + ci
        dr, di = one, 0
        for j, (qr, qi) in enumerate(roots):
            if j != i and (pr != qr or pi != qi):
                qr, qi = pr - qr, pi - qi
                dr, di = (dr * qr - di * qi) >> s, (dr * qi + di * qr) >> s
        # f / prod; a product below 2^-s leaves the root where it is
        n = dr * dr + di * di or 1
        sr, si = ((fr * dr + fi * di) << s) // n, ((fi * dr - fr * di) << s) // n
        roots[i] = (pr - sr, pi - si)
        moves.append(sr * sr + si * si)
    return moves


def _durand_kerner(poly, prec):
    """All roots of a kernel polynomial (highest degree first).

    Runs on the monic polynomial from :func:`_float_seeds` in fixed point,
    so that a product costs one shift (:func:`_dk_sweep`): int pairs on one
    exponent, placed as ``gi_lift`` places it, so that the smallest seed
    (one at 0 counts at Fujiwara's lower bound on the roots) keeps the
    width's bits, and a bit lower per halving of a seed below 1 (the
    polynomial's values shrink with its roots).  The first sweeps run at
    the narrow width ``_DK_NARROW``: a root whose move falls below
    2^-(_DK_NARROW/2) max(1, |z|) is not swept again there (it stays in
    the others' products; MPSolve too stops iterating converged roots,
    Bini and Fiorentino, Numer. Algorithms 23, 2000), until no root is
    left, or a sweep shrinks neither the number of roots left nor the
    largest move (a stalled multiple root; before the iterates converge
    the largest move may grow while others settle): they lift the seeds'
    few bits at a fraction of the cost.  The sweeps then go on from those
    iterates at ``gi_width(prec)``, over every root, until each move of a
    sweep is below 2^(-31 - prec), or at most the root's move in the sweep
    before with move^2/that move below 2^(-31 - prec) (the tail of a
    contracting sequence, as where the iteration converges
    quadratically), each width for at most ``_DK_SWEEPS`` sweeps: the m
    iterates of an m-fold root stall about 2^(-w/m) from it.  Stalled, a
    sweep's noise at times kicks one of them several times further out,
    where it would not merge with the others, so when the wide sweeps run
    out the iterates are those after the sweep whose largest move was the
    smallest.  The iterates are then snapped (:func:`_snap`) there.  The 32 bits beyond
    the working precision are for close roots, whose partial-fraction
    residues, of order one over their spread, multiply any error of the
    roots: a snap at 2^(1 - prec) moved the simple roots -1 and
    -(1 + 1e-9) of a Pade denominator by their imaginary parts of 5e-46,
    and a k = 1 sum missed its reported error tenfold.
    """
    w, tol, d = gi_width(prec), -31 - prec, len(poly) - 1
    low = -2 - max((gi_mag(poly[d - j]) - gi_mag(poly[d]) + 2) // j for j in range(1, d + 1)
                   if poly[d - j][0] or poly[d - j][1])
    seeds, k = _float_seeds(poly)
    mags = [max(low, k + math.frexp(abs(z))[1]) if z else low for z in seeds]
    e, narrow = (min(0, min(mags) - width - sum(max(0, -m) for m in mags))
                 for width in (w, _DK_NARROW))
    roots = [tuple((n << k - narrow) // q for n, q in map(float.as_integer_ratio, (z.real, z.imag)))
             for z in seeds]
    monic = []
    for c in poly[1:]:
        re, im, ce = gi_div(c, poly[0], w)
        monic.append((re << ce - e, im << ce - e) if ce >= e else (re >> e - ce, im >> e - ce))
    # the narrow sweeps: |move|^2 2^_DK_NARROW below max(1, |z|^2), on the mantissas
    s, unit2, last = narrow - e, 1 << -2 * narrow, None
    narrow_monic = [(re >> s, im >> s) for re, im in monic]
    moving = range(d)
    for _ in range(_DK_SWEEPS):
        moves = _dk_sweep(roots, narrow_monic, -narrow, moving)
        # the roots whose move is above half the narrow width, and the largest move
        moving = [i for i, m in zip(moving, moves)
                  if m << _DK_NARROW >= max(unit2, roots[i][0] ** 2 + roots[i][1] ** 2)]
        if not moving or last and len(moving) >= last[0] and max(moves) >= last[1]:
            break
        last = len(moving), max(moves)
    roots = [(re << s, im << s) for re, im in roots]
    # each |move| < 2^tol, or at most the last move with move^2/last below
    # 2^tol (the tail of a contracting sequence), decided exactly on the
    # mantissas as in gi_below
    limit, last, calm = 1 << max(0, 2 * (tol - e)), None, None
    for _ in range(_DK_SWEEPS):
        moves = _dk_sweep(roots, monic, -e, range(d))
        if all(m < limit or last and m <= p and m * m < limit * p
               for m, p in zip(moves, last or moves)):
            break
        last = moves
        if calm is None or max(moves) < calm[0]:
            calm = max(moves), list(roots)
    else:
        # stalled: the iterates after the sweep of smallest largest move
        roots = calm[1]
    return [_snap((re, im, e), tol) for re, im in roots]


def _within(d, z, r):
    """|d| <= 2^-r |z| for kernel numbers d and z, decided exactly."""
    dr, di, de = d
    zr, zi, ze = z
    lhs, s = dr * dr + di * di, 2 * (de + r - ze)
    return (lhs << s if s >= 0 else lhs) <= zr * zr + zi * zi << max(0, -s)


def _refine_center(poly, values, prec, r):
    """The center of the merged roots ``values`` (kernel numbers on one
    exponent) of a kernel polynomial (highest degree first).

    From their mean, Newton steps on P^(m - 1), where an m-fold root is
    simple, run at the kernel width w until a step is below 2^(-31 - prec),
    or for w steps, and the center is snapped like a Durand-Kerner root.  A
    step that would leave the merge radius about the mean (2^-r |mean|) is
    not taken.
    """
    w, m, tol = gi_width(prec), len(values), -31 - prec
    num, den = (_taylor_hl(poly[::-1], j, w) for j in (m - 1, m))
    mean = z = gi_div((sum(v[0] for v in values), sum(v[1] for v in values), values[0][2]),
                      (m, 0, 0), w)
    for _ in range(w):
        d = gi_horner(den, z, w)
        if not (d[0] or d[1]):
            break
        step = gi_div(gi_horner(num, z, w), gi_mul(d, (m, 0, 0), w), w)
        moved = gi_sub(z, step, w)
        if not _within(gi_sub(moved, mean, w), mean, r):
            break
        z = moved
        if gi_below(step, 1, tol):
            break
    return _snap(z, tol)


def _poly_roots(coeffs_low_to_high, prec):
    """Roots, with multiplicities, of a polynomial with kernel coefficients,
    as kernel numbers, a zero root deflated exactly: the kernel zero.

    Durand-Kerner (:func:`_durand_kerner`) in fixed point, seeded by the
    float64 companion-matrix eigenvalues of ``numpy.roots`` (Edelman and
    Murakami, Math. Comp. 64, 1995) on the coefficients scaled by a power
    of two: first at a narrow width of ``_DK_NARROW`` bits, which lifts the
    seeds to about half that relative accuracy, then at the kernel width
    ``2 * prec + 10`` of :mod:`germsum.scalars` (the precision raised only
    as the iterates need it, as MPSolve does: Bini and Fiorentino, Numer.
    Algorithms 23, 2000).  It stops when every correction of a sweep is
    below 2^(-31 - prec), and the roots are kept at the kernel width.
    Where the iteration converges quadratically, the stopping sweep leaves
    a root accurate to about twice as many bits; near an m-fold root it
    stalls, and the m iterates spread about 2^(-(2 prec + 10)/m) around it.
    Roots are listed by modulus (the integer square root of |z|^2 on the
    mantissas, cut to prec bits, so that moduli equal to the working
    precision tie), then argument, and merged by single linkage within
    2^-(prec/4) |z| for the later root z, decided exactly on the mantissas,
    so an m-fold root merges while that spread stays below the radius
    (m <= 8 at 128 bits), and roots far below 1 merge only when they are
    that close relative to their size.  Each group is listed at its first
    member.  A merged group is
    one root with its multiplicity, centered by Newton steps on the
    (m - 1)-th derivative (:func:`_refine_center`); a single root is its
    iterate.
    """
    cs = list(coeffs_low_to_high)
    while cs and not (cs[-1][0] or cs[-1][1]):
        cs.pop()
    zeros = next((j for j, c in enumerate(cs) if c[0] or c[1]), 0)
    roots, cs = ([((0, 0, 0), zeros)] if zeros else []), cs[zeros:]
    if len(cs) <= 1:
        return roots
    w, r, poly = gi_width(prec), prec // 4, cs[::-1]

    def key(z):
        mod = math.isqrt(z[0] * z[0] + z[1] * z[1])
        fr, fi, _ = gi_round(z, 53)
        return mod.bit_length(), mod >> max(0, mod.bit_length() - prec), math.atan2(fi, fr)

    found = sorted(_durand_kerner(poly, prec), key=key)
    label = list(range(len(found)))  # each root's group, by its first root
    for i, z in enumerate(found):
        for j in range(i):
            if _within(gi_sub(z, found[j], w), z, r):
                lo, hi = sorted((label[i], label[j]))
                label = [lo if x == hi else x for x in label]
    for first in sorted(set(label)):
        group = [z for z, x in zip(found, label) if x == first]
        roots.append((_refine_center(poly, group, prec, r) if len(group) > 1 else group[0],
                      len(group)))
    return roots


def dominant_data(p, base, prec=None):
    """Compute (h, H, a, roots) and a completing weight order for a germ.

    ``p`` is the germ series.  ``base`` is the weight order on the
    variables beyond the first two (pass None when d == 2).  The completed
    order takes the base weights on those variables and fills in (w/2, w)
    on (x1, x2) with w chosen below the base order's smallest value gap, so
    that the dominant-term claim holds.
    """
    if p.is_zero:
        raise ZeroGermError("dominant data needs a nonzero germ")
    prec = working_prec(prec)
    d = p.dim
    if d == 2 and base is not None:
        raise DimensionMismatchError("base order must be None for two variables")
    if d != 2 and (not isinstance(base, MonomialOrder) or base.dim != d - 2):
        raise DimensionMismatchError(f"base order must cover {d - 2} variables")
    # the slices of p by its exponent on x3..xd: for d = 2 one, with no gap
    groups = {}
    for e, c in p.terms.items():
        groups.setdefault(e[2:], {})[e[:2]] = c
    a = min(groups, key=base.key) if base is not None else ()
    slice_terms = {e2 + a: c for e2, c in groups[a].items()}
    others = [base.weight(m) for m in groups if m != a]
    gap = (min(others) - base.weight(a)) if others else None
    h = min(sum(e[:2]) for e in slice_terms)
    H = TruncatedSeries(2, h, {e[:2]: c for e, c in slice_terms.items()
                               if sum(e[:2]) == h})

    if gap is not None and h > 0:
        w2 = min(Fraction(1), Fraction(gap) / (2 * h))
    else:
        w2 = Fraction(1)
    base_weights = base.weights if base is not None else ()
    tiebreak = base.tiebreak if base is not None else "lex"
    completed = MonomialOrder((w2 / 2, w2) + base_weights, tiebreak)

    # zeros of H on the projective line: H(1, xi) plus infinity if the
    # pure-x2 coefficient vanishes
    cs = [H.coeff((h - j, j)) for j in range(h + 1)]
    w = gi_width(prec)
    with mp.workprec(w):
        lifted = [gi_from_mpc(c, w) for c in cs]
    roots = [(gi_to_mpc(z), m) for z, m in _poly_roots(lifted, prec)]
    if is_zero(cs[0]):
        roots[0] = (Fraction(0), roots[0][1])  # deflated: chart 0 stays exact
    deg = h
    while deg > 0 and is_zero(cs[deg]):
        deg -= 1
    if h - deg > 0:
        roots.append((INFINITY, h - deg))
    return DominantData(base, completed, h, H, a, tuple(roots))
