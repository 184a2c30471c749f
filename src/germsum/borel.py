"""Numerical summation of divergent one-variable series along rays.

The pipeline: divide the coefficients a_n by Gamma(1 + n/k) (Borel
transform of order k), continue the resulting convergent series along a
ray by diagonal rational approximants, and Laplace-transform it back with
the kernel ``k t^{-k} exp(-(tau/t)^k) tau^{k-1}``.  Specializing the
coefficients of a germ-power expansion at a point and evaluating the germ
there reduces germ-relative summation to this one-variable machinery.

The rational continuation runs on the Gaussian-integer kernel of
:mod:`germsum.scalars` at ``2 * prec + 10`` bits: the Toeplitz solve of
each approximant (which stops at the numerical rank of the data, the
pivots above ||A||_1 2^(16 - d) for data accurate to d bits, and solves
at that degree), the Durand-Kerner rooting of its denominator (stopped
when every correction is below 2^(-31 - prec), or on a contracting tail
below it, roots kept at the kernel width, merged roots centered by Newton
steps) and its partial fractions.  One elimination, in bordered order,
solves the [m/m] system and the [m - 1/m - 1] system that is its block.
The Toeplitz elimination, its back substitution and the numerator run in
fixed point, each row of the system (and each numerator coefficient) as
int pairs on one exponent ``_ROW_GUARD`` bits below the kernel width of
its largest entry, so that an update costs four products and a shift;
Durand-Kerner sweeps at 64 bits, each root until it settles, until the
float64 seeds are lifted, and then at the kernel width.
A :class:`BorelSeries` keeps the approximants it has built.  From the
Toeplitz solve to the Laplace step the coefficients, roots and poles stay
kernel numbers: an mpc enters with the coefficients handed to
:func:`build_approximant`, each lifted once, and leaves only with a result
of the library (``RayContinuation.values``, ``SingularRayError.pole``,
``PoleCluster.center`` and ``.argument``).
Two steps run on mpmath, each converting at its call site: the split of a
merged pole (:func:`_cluster_fractions`) and, for k = a/b with b > 1, the
b-th roots of the poles.

The Laplace step is closed-form for every k = a/b: tau = s^b turns it
into the order-a step, and each approximant splits into partial fractions
Q(s) + sum r/(s - c)^j (confluent about a multiple root, or a cluster of
roots that the root finder merged).  For k = 1 the transform is
sum q_j j! t^j + sum r e^(-p/t) E1(-p/t)/t plus a 2 pi i residue term
for each pole between arg t and the ray; for integer a > 1 the E1 becomes
a sum of upper incomplete gammas, and a multiple pole sums through their
Taylor coefficients.

Its per-pole loops run on the same kernel, terms as kernel numbers and
their bounds as floats on integer exponents; mpmath remains for E1 far out
in the left half-plane, e^z and a > 1's incomplete gammas.  G(z) =
e^z E1(z) is the one special function of the k = 1 step, and
:func:`_exp_e1` computes every value of it, each with a bound on its error
that joins the sum's evaluation bound.  For |z| >= 12 with Re z >= 0 it
runs the Stieltjes continued fraction of G on Gaussian-integer mantissas,
stopped by the Henrici-Pfluger truncation bound; for |z| >= 128 with
Re z < 0 mpmath's E1, which sums its asymptotic series there; elsewhere
the power series of e^-z and Ein(z), both from one recurrence on
fixed-point Gaussian integers, at the width its proved bound asks for.
What a pole's sum needs at a point u and not the ray (x = c/u, G, their
sizes, e^(-x^a) once needed) is its start (:class:`_PoleStart`), and each
approximant keeps the starts of its last four points: the value and the
derivative at one t, and the two rays of a Stokes pair, compute G once per
pole.  A germ-power expansion keeps the Borel series of its last
specialization (:func:`_germ_borel`), so the points of a P-sector whose
specialized coefficients are equal (all of them when the coefficients are
constants) share one continuation, and only G and the closed-form sum are
computed per point.

Error reporting is split and mandatory: the continuation error is the
difference between two approximants fitted to different coefficient
windows (consecutive orders, or [nu/nu] and [nu + 1/nu] when the data's
rank nu cuts the upper one) propagated through the same Laplace step,
plus the Stokes jump of every pole of the upper approximant within
``RAY_POLE_MARGIN`` of the ray: which side of the ray such a pole lies on
is not certain, and the two sides' sums differ by that jump.  A jump above
the sum's ``eps`` refuses the sum with :class:`SingularRayError`, so a ray
is singular at a point t, not for every t at once.  The quadrature error
is the bound on rounding in evaluating the closed form.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

import mpmath
from mpmath import mp
from mpmath.libmp import from_man_exp, mpc_log, mpf_add, mpf_euler, repr_dps, to_fixed, to_str

from .errors import SectorError, SingularRayError
from .scalars import (GI_ONE, NOISE_MARGIN, Record, gi_abs, gi_add, gi_below, gi_div,
                      gi_from_mpc, gi_horner, gi_mag, gi_mul, gi_round, gi_sub, gi_submul,
                      gi_to_mpc, gi_width, is_exact, ldexp_inf, to_mpc, working_prec)
from .transforms import _poly_roots, _taylor_hl

TWO_PI = 2 * math.pi

# A numerator zero this close (relative) to a pole cancels it: a Froissart doublet.
FROISSART_REL = 1e-6
# Angle (rad) from the ray in tau within which a pole's Stokes jump is charged.
RAY_POLE_MARGIN = 0.15
# A direction report asserts an obstruction: the pole must recur at 3 orders ...
DIRECTION_ORDERS = 3
# ... each within this relative distance, tighter than on a ray.
DIRECTION_MATCH_REL = 0.1


def _angdiff(a, b):
    """Signed angular difference a - b wrapped to [-pi, pi).

    The wrap uses pi at the working precision: a float 2*pi would shift
    the result by ~2e-16 whenever a and b straddle the cut at +-pi.
    """
    d = mpmath.mpf(a) - mpmath.mpf(b)
    two_pi = 2 * mpmath.pi
    return d - two_pi * mpmath.floor((d + mpmath.pi) / two_pi)


class OneVarSeries(Record):
    """Plain coefficient list a_0..a_{M-1} of a (possibly divergent) series."""
    coeffs: tuple

    def __init__(self, coeffs):
        super().__init__(tuple(coeffs))

    def __len__(self):
        return len(self.coeffs)


class BorelSeries(Record):
    """Coefficients b_n = a_n / Gamma(1 + n/k).

    ``exact`` records that every a_n was exact (an int, Fraction or
    ``QQi``), so that the b_n are accurate to their rounding at twice the
    working precision; the b_n of rounded a_n are taken as accurate to the
    working precision.  ``approximant`` keeps each approximant under the
    order it resolves to: the rays of a Stokes pair and
    ``singular_directions`` share them.
    """
    k: float
    coeffs: tuple
    exact: bool = False

    @cached_property
    def _approximants(self):
        return {}

    def __len__(self):
        return len(self.coeffs)

    def approximant(self, m, prec, excess=0):
        """``build_approximant(self.coeffs, m, prec, self.exact, excess)``,
        built on first use and shared by every request that resolves to
        its order, and by a request for that order (the same full-rank solve).
        The ``lower`` approximant built with it is kept under its order."""
        # keyed both by the request (m, excess, prec) and by ((n, m), prec)
        request = (m, excess, prec)
        appr = self._approximants.get(request) or self._approximants.get(((m + excess, m), prec))
        if appr is None:
            appr = build_approximant(self.coeffs, m, prec, self.exact, excess)
            if appr.lower is not None:
                self._approximants.setdefault((appr.lower.order, prec), appr.lower)
            appr = self._approximants.setdefault((appr.order, prec), appr)
            self._approximants[request] = appr
        return appr


def borel_transform(series, k, prec=None):
    """Divide the n-th coefficient by Gamma(1 + n/k), at twice the working precision.

    Twice, because the rational continuation solves at that precision:
    coefficients rounded to the working precision would hand the fit a
    noise of 2^-prec, which a badly conditioned fit (poles close together)
    amplifies past every error the sum reports.  Whether every input
    coefficient is exact is recorded as ``BorelSeries.exact``: the fit
    counts exact data as accurate to 2 prec bits, rounded data to prec.
    k is taken as ``laplace_sum`` takes it (:func:`_rational_k`): a/b in
    lowest terms with b <= 12, so that ``Fraction(3, 2)`` and 1.5 give the
    same series, n/k being n b/a rounded once; any other k raises
    ``ValueError``, naming it.
    """
    a, b = _rational_k(k)
    coeffs = series.coeffs if isinstance(series, OneVarSeries) else tuple(series)
    prec = working_prec(prec)
    with mp.workprec(2 * prec):
        out = tuple(to_mpc(c) / mpmath.gamma(1 + mpmath.mpf(n * b) / a)
                    for n, c in enumerate(coeffs))
    return BorelSeries(a / b, out, all(is_exact(c) for c in coeffs))


# -- rational (Pade-type) continuation ---------------------------------------

class RationalApproximant(Record):
    """Ratio of two polynomials matching a Taylor series to order n+m.

    ``num`` and ``den`` hold the coefficients, lowest first, as kernel
    numbers of the width ``2 * prec + 10`` (``den[0]`` is ``GI_ONE``), and
    its poles are kernel numbers too: the approximant leaves the kernel
    only for a value (``__call__``, an mpc at the ambient precision, like
    an mpmath function's).  The
    denominator is rooted once: ``raw_poles`` caches its roots, and
    ``filtered_poles`` (cached too) and ``partial_fractions`` reuse them.
    The Laplace step's work per pole and point is kept too
    (``pole_starts``).  ``lower`` is the approximant of one order less on
    each side that :func:`build_approximant` solved with it, or None.
    Every ray and direction report of a Borel series shares its
    approximants, so none changes once built; only its memos fill.
    """
    num: tuple
    den: tuple
    prec: int
    lower: RationalApproximant

    def __init__(self, num, den, prec, lower=None):
        super().__init__(tuple(num), tuple(den), prec, lower)

    @property
    def order(self):
        return (len(self.num) - 1, len(self.den) - 1)

    def __call__(self, tau):
        w = gi_width(self.prec)
        z = gi_from_mpc(tau, w)
        return gi_to_mpc(gi_div(gi_horner(self.num[::-1], z, w),
                                gi_horner(self.den[::-1], z, w), w), mp.prec)

    def raw_poles(self):
        """Every root of the denominator, with multiplicities.

        Nothing is cut by size: a small top coefficient gives a far pole,
        which the Laplace step sums like any other (a pole near the ray is
        charged its Stokes jump there)."""
        return self._roots

    @cached_property
    def _roots(self):
        return tuple(_poly_roots(self.den, self.prec))

    def filtered_poles(self):
        """Poles with Froissart doublets (a numerator zero within FROISSART_REL) removed.

        The Newton step ``|N(p)/N'(p)|``, by kernel Horner at the kernel
        width, estimates the distance from p to the nearest zero of N
        without rooting N.  A fit at the data's rank has no doublets: on
        the benchmark's ray-sum inputs (seeds 1, 7, 1001 and 3031, 694
        poles) the step is >= 1e-3 max(1, |p|) at every pole.  Doublets
        remain where the data carry noise above their stated accuracy; when
        the fit ran past the rank, the same inputs had 474 doublets, each
        with a step <= 1e-36 max(1, |p|).
        """
        return self._filtered

    @cached_property
    def _filtered(self):
        w = gi_width(self.prec)
        num_hl, dnum_hl = self.num[::-1], _taylor_hl(self.num, 1, w)
        kept = []
        for p, mult in self.raw_poles():
            n = gi_horner(num_hl, p, w)
            if not (n[0] or n[1]):
                continue
            dn = gi_horner(dnum_hl, p, w)
            e = gi_mag(n)
            if gi_abs(n, e) > FROISSART_REL * max(1, gi_abs(p)) * gi_abs(dn, e):
                kept.append((p, mult))
        return tuple(kept)

    @cached_property
    def _fractions(self):
        return {}

    @cached_property
    def _starts(self):
        return {}

    def partial_fractions(self, b=1):
        """``(poly, fractions)`` with N(s^b)/D(s^b) = Q(s) + sum r_j/(s - c)^j,
        built once per b.

        ``poly`` holds the coefficients of Q, low to high, and ``fractions``
        one pair (c, (r_1, r_2, ...)) for each b-th root c of each pole p,
        all kernel numbers of the width ``2 * prec + 10``.  The poles are the
        cached roots of the whole denominator D (``raw_poles``, at that
        width), so nothing is rooted again; Q and the remainder R come
        from dividing N(s^b) by D(s^b) on the Gaussian-integer kernel.  A
        simple pole has r_1 = R(c)/D'(c), by kernel Horner.  A pole of
        multiplicity m stands for m roots of D(s^b) that ``_poly_roots``
        merged and centered, and :func:`_cluster_fractions` expands the m
        roots about the center (for b > 1 about its b-th roots), exactly
        coincident or not.  A non-finite coefficient, a pole at 0, or a
        cluster that does not stand apart from the other poles raises
        ``ValueError``.
        """
        if b in self._fractions:
            return self._fractions[b]
        w = gi_width(self.prec)
        den = _spread(self.den, b)
        while not (den[-1][0] or den[-1][1]):  # the division needs a leading coefficient
            den.pop()
        rem = _spread(self.num, b)
        d = len(den) - 1
        poly = [None] * max(0, len(rem) - d)
        for i in range(len(poly) - 1, -1, -1):
            c = poly[i] = gi_div(rem[i + d], den[d], w)
            for j, dj in enumerate(den):
                rem[i + j] = gi_submul(rem[i + j], c, dj, w)
        roots = self.raw_poles()
        if any(not (p[0] or p[1]) for p, _ in roots):
            raise ValueError("a pole at tau = 0 has no Laplace transform")
        with mp.workprec(w):
            centers = roots if b == 1 else [
                (gi_from_mpc(mpmath.root(gi_to_mpc(p), b, l), w), m)
                for p, m in roots for l in range(b)]
        # a cluster needs every Taylor coefficient of D(s^b) and R; a simple pole D' and R
        multiple = any(m > 1 for _, m in roots)
        den_hl = [den[::-1]] + [_taylor_hl(den, j, w) for j in range(1, d + 1 if multiple else 2)]
        rem_hl = [_taylor_hl(rem[:d], j, w) for j in range(d if multiple else 1)]
        fractions = []
        for z, m in centers:
            if m == 1:
                r = gi_div(gi_horner(rem_hl[0], z, w), gi_horner(den_hl[1], z, w), w)
                fractions.append((z, (r,)))
                continue
            dd = [gi_to_mpc(gi_horner(hl, z, w)) for hl in den_hl]
            rr = [gi_to_mpc(gi_horner(hl, z, w)) for hl in rem_hl]
            # an eighth of the distance to the nearest other pole, or to 0,
            # where the ray starts
            reach = min([gi_abs(z)] + [gi_abs(gi_sub(z, o, w)) for o, _ in centers
                                       if o is not z]) / 8
            fractions.append((z, tuple(gi_from_mpc(r, w) for r in
                                       _cluster_fractions(dd, rr, m, reach, w))))
        self._fractions[b] = tuple(poly), tuple(fractions)
        return self._fractions[b]

    def pole_starts(self, b, a, u, prec):
        """The :class:`_PoleStart` at the kernel number u of each pole of
        ``partial_fractions(b)``, for the order-a sum at ``prec`` bits.

        The starts hold G = e^z E1(z), the one special function of the
        k = 1 sum, and depend on the point only: the value, the derivative
        and the other ray of a Stokes pair at one t share them.  The
        approximant keeps those of its last ``_STORED_POINTS`` points.
        """
        key = (b, a, prec, u)
        starts = self._starts.pop(key, None)
        if starts is None:
            starts = tuple(_PoleStart(c, a, u, prec) for c, _ in self.partial_fractions(b)[1])
            if len(self._starts) >= _STORED_POINTS:
                del self._starts[next(iter(self._starts))]
        self._starts[key] = starts
        return starts


def _cluster_fractions(dd, rr, m, reach, w):
    """(r_1, r_2, ...) with sum_j r_j/(s - c)^j the principal part of R/D at
    m roots z_i of D within ``reach`` / 2 of c, from the Taylor coefficients
    ``dd`` of D and ``rr`` of R at c, at w bits.

    In v = s - c, D = F E with F(v) = v^m + f_(m-1) v^(m-1) + ... + f_0
    the monic factor of the m roots: the fixed point of E = D/F (exact
    division from the top) and f = the first m Taylor coefficients of D/E,
    from f = 0, where E is D's Taylor series from order m on.  Each step
    gains the factor rho/|other roots| on f, where rho bounds the
    |z_i - c|.  With phi = R/E and 1/F = v^-m sum_i h_i v^-i (h_i the
    complete symmetric polynomials of the z_i - c, from
    sum_i h_i x^i = 1/(1 + f_(m-1) x + ... + f_0 x^m)), the principal part
    of R/D = phi/F is r_j = sum_i phi_(i+m-j) h_i.  |h_i| is at most
    binom(i + m - 1, m - 1) rho^i, and the terms stop where that bound,
    relative to ``reach``^i, falls below 2^-w.  ``reach`` is below the
    distance to every other pole, which bounds the growth of phi's Taylor
    coefficients; those of the Laplace sum of 1/(s - c) grow with the
    inverse distance to the ray, and 2^-w, prec + 10 bits below the sum's
    accuracy, covers a ray up to sqrt(reach/rho) times nearer than
    ``reach``.  An exactly multiple root has f = 0 and r_j = phi_(m-j).
    A cluster with rho above ``reach`` / 2, or whose f does not settle,
    raises ``ValueError``.
    """
    with mp.workprec(w):
        top = len(dd) - 1 - m
        f = [mpmath.mpc(0)] * m
        for _ in range(w):
            e = [None] * (top + 1)
            for i in range(top, -1, -1):
                e[i] = dd[i + m] - mpmath.fsum(f[j] * e[i + m - j]
                                               for j in range(max(0, i + m - top), m))
            g = []
            for n in range(m):
                g.append((dd[n] - mpmath.fsum(g[j] * e[n - j]
                                              for j in range(max(0, n - top), n))) / e[0])
            rho = 2 * max(abs(x) ** (mpmath.mpf(1) / (m - j)) for j, x in enumerate(g))
            moved = max(abs(x - y) / rho ** (m - j)
                        for j, (x, y) in enumerate(zip(g, f))) if rho else 0
            f = g
            if moved <= mpmath.ldexp(1, 8 - w):
                break
        q = rho / reach
        if moved > mpmath.ldexp(1, 8 - w) or q > 0.5:
            raise ValueError(f"a cluster of {m} poles of radius {float(rho):.3g} does not "
                             f"stand apart from the other poles and the ray")
        extra = 0
        while q and math.comb(extra + m, m - 1) * q ** (extra + 1) > mpmath.ldexp(1, -w):
            extra += 1
        phi = []
        for n in range(m + extra):
            r = rr[n] if n < len(rr) else 0
            phi.append((r - mpmath.fsum(e[l] * phi[n - l]
                                        for l in range(1, min(n, top) + 1))) / e[0])
        h = [mpmath.mpc(1)]
        for i in range(1, extra + 1):
            h.append(-mpmath.fsum(f[m - l] * h[i - l] for l in range(1, min(i, m) + 1)))
        return tuple(mpmath.fsum(phi[i + m - j] * h[i] for i in range(max(0, j - m), extra + 1))
                     for j in range(1, m + extra + 1))


def _spread(coeffs, b):
    """Kernel coefficients (lowest first) of P(s^b) from those of P(tau)."""
    out = [(0, 0, 0)] * ((len(coeffs) - 1) * b + 1)
    out[::b] = coeffs
    return out


# Bits a row of the Toeplitz elimination keeps below its largest entry, over
# the kernel width: a row is shifted back to them when cancellation leaves it
# fewer than the width, or growth more than the width plus twice the guard.
_ROW_GUARD = 32


def _place(x, e):
    """The mantissas of the kernel number x on the exponent e (truncated)."""
    re, im, xe = x
    s = xe - e
    return (re << s, im << s) if s >= 0 else (re >> -s, im >> -s)


def _submul_at(acc, a, b, e):
    """acc - a b for the mantissa pair acc on the exponent e and kernel
    numbers a and b, the product truncated to that exponent."""
    ar, ai, ae = a
    br, bi, be = b
    pr, pi = _place((ar * br - ai * bi, ar * bi + ai * br, ae + be), e)
    return acc[0] - pr, acc[1] - pi


def _eliminate(rows, exps, mags, tol_lo, tol, top, w):
    """Gaussian elimination in place of the fixed-point rows of
    :func:`_toeplitz_solve`, column by column in their order; returns the
    number of pivots.

    The pivot of a column is that of ``mpmath.lu_solve``: the entry largest
    relative to the sum of its row, where a row sum or pivot at most the
    tolerance counts as zero.  With ``tol_lo`` (the bordered order) the
    first m - 1 columns take pivots from the first m - 1 rows at
    ``tol_lo``, the last column from the last row at ``tol``, and the first
    column without a pivot ends the elimination.  Else (the plain order)
    every column takes its pivot from every row left at ``tol``; a column
    without one depends on the columns before it (within the data's noise
    when the tolerance lies above it) and is skipped, and the elimination
    stops once every row left lies at or below the tolerance, where no
    later column has a pivot.
    """
    m = len(mags)
    width = w + _ROW_GUARD
    # ints that may pass the float range are divided by 2^cut (rounded
    # correctly) before their magnitudes are taken
    cut = max(0, width + 2 * _ROW_GUARD - 960)
    unit = 1 << cut
    rank, end, cur = (0, m - 1, tol_lo) if tol_lo is not None else (0, m, tol)
    for j in range(m):
        if j == m - 1:
            end, cur = m, tol
        best, piv, live = 0.0, None, False
        for k in range(rank, end):
            s = math.fsum(mags[k][j:end])
            if s > cur:
                live = True
                if mags[k][j] / s > best:
                    best, piv = mags[k][j] / s, k
        if piv is None or mags[piv][j] <= cur:
            if tol_lo is not None or not live:
                break
            continue
        for lst in (rows, exps, mags):
            lst[rank], lst[piv] = lst[piv], lst[rank]
        head = rows[rank][j + 1:]
        hr, hi = rows[rank][j]
        d = hr * hr + hi * hi
        # the quotient's fraction bits: its truncation moves no update of the
        # system being solved (up to column ``end``) by a unit
        frac = max(max(abs(x), abs(y)) for x, y in head[:end - j]).bit_length() + 2
        for k in range(rank + 1, m):
            row = rows[k]
            rr, ri = row[j]
            if not (rr or ri):
                continue
            qr, qi = ((rr * hr + ri * hi) << frac) // d, ((ri * hr - rr * hi) << frac) // d
            row[j + 1:] = [(x - ((qr * u - qi * v) >> frac), y - ((qr * v + qi * u) >> frac))
                           for (x, y), (u, v) in zip(row[j + 1:], head)]
            e, mag = exps[k], mags[k]
            if unit == 1:
                mag[j + 1:] = [math.ldexp(math.hypot(x, y), e - top) for x, y in row[j + 1:m]]
            else:
                mag[j + 1:] = [math.ldexp(math.hypot(x / unit, y / unit), e + cut - top)
                               for x, y in row[j + 1:m]]
            big = max(mag[j + 1:end], default=0.0)
            if big:
                s = math.frexp(big)[1] + top - e - width
                if s < -_ROW_GUARD or s > _ROW_GUARD:
                    row[j + 1:] = [_place((x, y, e), e + s) for x, y in row[j + 1:]]
                    exps[k] = e + s
        rank += 1
    return rank


def _back_substitute(rows, exps, size, w):
    """The solution, kernel numbers of w bits, of the first ``size``
    eliminated rows against their entry ``size``, accumulated on each row's
    exponent."""
    q = [None] * size
    for j in range(size - 1, -1, -1):
        row, e = rows[j], exps[j]
        acc = row[size]
        for k in range(j + 1, size):
            acc = _submul_at(acc, (*row[k], e), q[k], e)
        q[j] = gi_div((*acc, e), (*row[j], e), w)
    return q


def _toeplitz_solve(a, n, m, w, bits):
    """``(rank, x, x_lo)``: the numerical rank of the denominator system of
    the [n/m] Pade approximant and, when it is m, the solution x_i = -q_i
    (i = 1..m), else None; and the solution of the [n - 1/m - 1] system
    when that block of the same system has full rank, else None.

    The system is sum_i a[n + j + 1 - i] x_i = a[n + 1 + j] (j = 0..m-1,
    i = 1..m) for kernel coefficients ``a``.  Its rows 0..m-2 and the
    columns of x_2..x_m are the [n - 1/m - 1] system, whose right-hand side
    is the column of x_1 (Gragg, SIAM Review 14, 1972), and it is
    eliminated in that bordered order (:func:`_eliminate`): first the
    block's columns, with pivots from its rows at its tolerance
    ||A_lo||_1 2^bits, which is exactly the block's own elimination, then
    the column of x_1 over the last row at ||A||_1 2^bits.  The same rows
    back-substitute twice (:func:`_back_substitute`): against that column
    for x_lo, against the right-hand side for x.  When a column has no
    pivot there, the saved rows are eliminated again in the plain order,
    x_1 first, over all rows at ||A||_1 2^bits, which finds the rank as
    the system's own elimination always did: the number of pivots, a
    column without one skipped, stopping once every row left lies at or
    below the tolerance.  (Going on from the block's pivots would count
    another rank where the data's noise, amplified by the elimination,
    reaches the tolerance: 2 where the plain order counts 3 on two rounded
    poles near +-p.)  Magnitudes are floats relative to the block's largest
    coefficient.

    Each row is a list of (re, im) int pairs on one exponent, ``_ROW_GUARD``
    bits below the w bits of its largest block entry (of its largest
    entry, when its block entries vanish), so that a row update costs four
    products and a shift per entry; a row that cancellation leaves below w
    bits (or that grows past w + 2 ``_ROW_GUARD``) is shifted back.
    """
    if m == 0:
        return 0, [], None
    lo, block = m - 1, a[n + 1 - m:n + m - 2]
    top = max(map(gi_mag, block if any(x[0] or x[1] for x in block) else a[n + 1 - m:n + m]))
    if top == -math.inf:
        return 0, None, None
    # row j: the block's columns (x_2..x_m), the column of x_1, then a[n + 1 + j]
    entries = [[a[n + j - i] for i in range(1, m)] + [a[n + j], a[n + 1 + j]] for j in range(m)]
    # |a[n + 1 - m + k]| 2^-top, once per coefficient of the system
    size = [gi_abs(x, top) for x in a[n + 1 - m:n + m]]
    mags = [[size[j + m - 1 - i] for i in range(1, m)] + [size[j + m - 1]] for j in range(m)]
    tol_lo, tol = (math.ldexp(max((sum(col) for col in zip(*sub)), default=0.0), bits)
                   for sub in ([row[:lo] for row in mags[:lo]], mags))
    width = w + _ROW_GUARD
    rows, exps = [], []
    for row in entries:
        e = max(map(gi_mag, row[:lo] if any(x[0] or x[1] for x in row[:lo]) else row[:m]))
        e = e - width if e != -math.inf else 0
        rows.append([_place(x, e) for x in row])
        exps.append(e)
    plain = [[row[lo]] + row[:lo] + row[m:] for row in rows], exps[:], [[x] + g for *g, x in mags]
    rank = _eliminate(rows, exps, mags, tol_lo, tol, top, w)
    x_lo = _back_substitute(rows, exps, lo, w) if rank >= lo else None
    if rank == m:
        x = _back_substitute(rows, exps, m, w)
        return m, x[lo:] + x[:lo], x_lo
    rank = _eliminate(*plain, None, tol, top, w)
    return rank, _back_substitute(*plain[:2], m, w) if rank == m else None, x_lo


def _approximant(a, x, n, w, prec, lower=None):
    """The [n/m] approximant (m = len(x)) of the kernel coefficients ``a``
    from the solution x_i = -q_i of its denominator system, ``lower`` its
    lower approximant.

    The numerator p_i = a_i + sum_j q_j a_(i-j) is accumulated in fixed
    point, on one exponent ``_ROW_GUARD`` bits below the kernel width of its
    largest term, and rounded to the kernel width w.
    """
    num = []
    for i in range(n + 1):
        terms = [(x[j - 1], a[i - j]) for j in range(1, min(i, len(x)) + 1)]
        e = max([gi_mag(a[i])] + [gi_mag(u) + gi_mag(v) for u, v in terms])
        if e == -math.inf:
            num.append(a[i])
            continue
        e -= w + _ROW_GUARD
        acc = _place(a[i], e)
        for u, v in terms:
            acc = _submul_at(acc, u, v, e)
        num.append(gi_round((*acc, e), w))
    return RationalApproximant(num, [GI_ONE] + [(-re, -im, e) for re, im, e in x], prec, lower)


def build_approximant(coeffs, m=None, prec=None, exact=None, excess=0):
    """Pade approximant [nu + excess/nu] (``excess`` 0 or 1), nu <= m (default:
    the largest m the coefficients allow) the numerical rank of the data.

    The coefficients are rounded to twice the working precision, and the
    Toeplitz system of the denominator is solved at the kernel width
    ``2 * prec + 10`` of :mod:`germsum.scalars` (:func:`_toeplitz_solve`),
    by elimination with partial pivoting on fixed-point rows, and the
    numerator in fixed point too (:func:`_approximant`).  A
    pivot at most ||A||_1 2^(16 - d) (16 = ``scalars.NOISE_MARGIN``)
    counts as zero, d being the accuracy of the data: 2 prec bits when
    ``exact`` (the default when every coefficient is an int, Fraction or
    ``QQi``), else prec bits.  The approximant is solved at the rank nu of
    the order-m system (again at the rank of the order-nu system, until it
    has full rank): a rounded rational function of lower degree is fitted
    at its true degree, not with pole-zero doublets that fit the rounding.
    At nu = 0 the approximant is the polynomial a_0 + ... + a_excess (at
    twice the working precision, like every coefficient).  A non-finite
    coefficient raises ``ValueError``.

    The same elimination solves the [nu + excess - 1/nu - 1] system, a block
    of the [nu + excess/nu] one: when that block has full rank, the returned
    approximant carries its approximant as ``lower`` (else None), bit for
    bit the one the block's own elimination gives.
    """
    prec = working_prec(prec)
    top = (len(coeffs) - 1 - excess) // 2
    m = top if m is None else max(0, min(m, top))
    if exact is None:
        exact = all(is_exact(x) for x in coeffs)
    bits = NOISE_MARGIN - (2 * prec if exact else prec)
    w = gi_width(prec)
    with mp.workprec(2 * prec):
        a = [gi_from_mpc(x, w) for x in coeffs]
    while True:
        m, x, x_lo = _toeplitz_solve(a, m + excess, m, w, bits)
        if x is not None:
            break
    lower = _approximant(a, x_lo, m - 1 + excess, w, prec) if x_lo is not None else None
    return _approximant(a, x, m + excess, w, prec, lower)


class RayContinuation(Record):
    """The two approximants (orders m and m - 1, or [nu/nu] and [nu + 1/nu]
    when the data's rank nu cuts both) that ``laplace_sum`` transforms at
    ``k``, and their samples along the ray at the ``radii``: ``values``, the
    upper approximant's, and ``errors``, its distance to the lower one's,
    computed at ``prec`` bits when first read (no sum reads them)."""
    k: float
    direction: float
    radii: tuple
    prec: int
    _hi: object
    _lo: object

    @cached_property
    def values(self):
        with mp.workprec(self.prec):
            return tuple(self._hi(tau) for tau in self._taus())

    @cached_property
    def errors(self):
        with mp.workprec(self.prec):
            return tuple(float(abs(v - self._lo(tau)))
                         for v, tau in zip(self.values, self._taus()))

    def _taus(self):
        phase = mpmath.expjpi(mpmath.mpf(self.direction) / mpmath.pi)
        return [r * phase for r in self.radii]


def _stable_poles(approximants, rel):
    """Filtered poles of the first approximant reproduced by every other one.

    A pole p is reproduced when the nearest filtered pole of an approximant
    lies within ``rel * max(1, |p|)`` of it.  Returns, for each stable pole,
    the tuple of p and its nearest match at each further approximant.
    """
    w = gi_width(approximants[0].prec)
    pole_sets = [[p for p, _ in appr.filtered_poles()] for appr in approximants]
    stable = []
    for p in pole_sets[0]:
        matched = [p]
        for ps in pole_sets[1:]:
            if not ps:
                break
            q = min(ps, key=lambda x: gi_abs(gi_sub(x, p, w)))
            if gi_abs(gi_sub(q, p, w)) > rel * max(1, gi_abs(p)):
                break
            matched.append(q)
        if len(matched) == len(pole_sets):
            stable.append(tuple(matched))
    return stable


def continue_on_ray(b, theta, radii=(), method="pade", prec=None):
    """Continue the Borel series along arg tau = theta, sampling at the radii.

    Fits the diagonal rational approximant of the top order m*, and one of
    one lower order, which the same elimination solves when the data have
    full rank (:func:`build_approximant`); when the data's rank nu cuts the
    upper one to [nu/nu], the lower one is [nu + 1/nu]: the same denominator
    degree fitted to one more coefficient.  The upper one is sampled at
    each of the ``radii`` (none by default: ``laplace_sum`` reads the
    approximants, not the samples), with the difference against the lower
    one as the per-sample error estimate, when
    ``RayContinuation.values`` or ``.errors`` is first read; the radii are
    checked here.  A non-finite ``theta`` or
    radius, a radius <= 0 and radii that do not increase raise
    ``ValueError``.  No ray is refused here, whatever poles lie near it:
    whether a pole is too close depends on the point t, and
    ``laplace_sum`` decides it there, from the pole's Stokes jump at t.
    ``"pade"`` is the only continuation ``method``; any other value raises
    ``ValueError``.  Runs at ``working_prec(prec)``.
    """
    if method != "pade":
        raise ValueError(f"unknown continuation method {method!r}")
    if len(b) < 8:
        raise ValueError("need at least 8 Borel coefficients to continue")
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"ray direction {theta} is not finite")
    radii = tuple(float(r) for r in radii)
    if (not all(0 < r < math.inf for r in radii)
            or any(b2 <= a2 for a2, b2 in zip(radii, radii[1:]))):
        raise ValueError(f"radii {radii} must be finite, positive and strictly increasing")
    prec = working_prec(prec)
    with mp.workprec(prec):
        m_star = (len(b) - 1) // 2
        hi = b.approximant(m_star, prec)
        nu = hi.order[1]
        # a rank nu below m* cuts m* - 1 too: the lower fit is [nu + 1/nu]
        lo = b.approximant(nu, prec, excess=1) if nu < m_star else b.approximant(m_star - 1, prec)
    return RayContinuation(k=b.k, direction=theta, radii=radii, prec=prec, _hi=hi, _lo=lo)


# -- Laplace integral ---------------------------------------------------------

class SumResult(Record):
    """A numeric germ-k-sum (or plain k-sum) evaluation with split errors.

    ``prec`` is the working precision of ``value``.
    """
    t: object
    k: float
    theta: float
    value: object
    quadrature_error: float
    continuation_error: float
    prec: int

    @property
    def total_error(self):
        return self.quadrature_error + self.continuation_error

    def to_json(self):
        """JSON record; ``t`` and ``value`` as decimal strings that round-trip at ``prec``."""
        dps = repr_dps(self.prec)
        t, v = ({"re": to_str(z.real._mpf_, dps), "im": to_str(z.imag._mpf_, dps)}
                for z in (to_mpc(self.t), to_mpc(self.value)))
        return {
            "t": t,
            "k": self.k,
            "theta": self.theta,
            "value": v,
            "quadrature_error": self.quadrature_error,
            "continuation_error": self.continuation_error,
        }


def _rational_k(k):
    """The summability index k as (a, b), k = a/b in lowest terms with b <= 12.

    ``ValueError``, naming k, unless k is positive and such a fraction
    round-trips to ``float(k)``: the Laplace step sums order a/b as the
    integer order a after the substitution tau = s^b.  That costs b (a - 1)
    incomplete gamma values (and b values of G = e^z E1(z)) per pole of each
    approximant and point (the sums at one point share them), so a large
    a b is slow: a 10-pole approximant pair takes roughly 20 times as long
    at k = 11/12 as at k = 3.
    """
    try:
        x = float(k)
    except (TypeError, ValueError):
        x = math.nan
    if x > 0 and math.isfinite(x):
        f = Fraction(x).limit_denominator(12)
        if float(f) == x:
            return f.numerator, f.denominator
    raise ValueError(f"summability index k = {k} is not a positive fraction a/b "
                     f"with b <= 12")


# Guard bits over the working precision at which the closed-form terms are
# summed, and the constant C of their evaluation bound mass * 2^(C - prec):
# one bit for rounding the sum to prec, one for everything carried at the
# guard precision (the terms, their sum and the partial fractions).
_CLOSED_FORM_GUARD = 16
_CLOSED_FORM_C = 2
# Points whose pole starts an approximant keeps: a ray-sum task sums the
# value and the derivative at one t, and a Stokes pair adds the other ray.
_STORED_POINTS = 4


def _laplace_moment(n, a, w):
    """Gamma(1 + n/a), the order-a sum of s^n at 1, as a kernel number:
    exactly (n/a)! when a divides n, else of w bits."""
    with mp.workprec(w):
        return ((math.factorial(n // a), 0, 0) if n % a == 0
                else gi_from_mpc(mpmath.gamma(1 + mpmath.mpf(n) / a), w))


def _scale(k, a):
    """The kernel number a times the int k, exactly."""
    return k * a[0], k * a[1], a[2]


# G(z) = e^z E1(z) takes one of three routes (see _exp_e1): the continued
# fraction for Re z >= 0 and |z| >= _FRACTION_MIN_ABS, mpmath for Re z < 0
# and |z| >= _SERIES_MAX_ABS, and the power series everywhere else.
# On the 632 arguments of one seed-1 ray-sum and germ-sum cycle (145-159
# bits, minima of 15 runs), the fraction took 9.7 ms against the series'
# 10.9 ms on the 58 with 12 <= |z| < 16 and Re z >= 0, and the series took
# 32 ms against mpmath's 46 ms on the 252 below the crossover or with
# Re z < 0.  At 150 bits and arg z = 3 pi/4 mpmath's E1 switches to its
# asymptotic series at |z| = 134, 0.19 ms a value against the series'
# 0.85 ms; below that it took 1.7 ms.
_FRACTION_MIN_ABS = 12
_SERIES_MAX_ABS = 128
_LOG2E = 1 / math.log(2)


def _exp_e1(z, prec):
    """``(g, ulps)``: G(z) = e^z E1(z) (principal branch) at the kernel
    number z != 0, as a kernel number, and a float ulps <= 1 with
    |g - G(z)| <= ulps 2^-prec |g|.

    Every E1 of the Laplace step comes from here, by a route chosen from
    the sign of Re z and from |z|, both decided exactly on z's mantissas,
    so that a z beyond the float range is routed too:

    - Re z >= 0 and |z| >= ``_FRACTION_MIN_ABS``: the Stieltjes fraction of
      :func:`_exp_e1_fraction`, which converges the faster the larger |z| is;
    - Re z < 0 and |z| >= ``_SERIES_MAX_ABS``: mpmath, which sums E1's
      asymptotic series there, computing e^z E1(z) at p = prec + 6 bits,
      lifted once to the kernel: its E1 was measured within 2^(0.8 - p) of
      the value, relative (within 2^-p at 64-256 bits on |z| from 128 to
      2^2000 and |arg z| from pi/2 to pi - 10^-30), e^z and the product add
      a rounding each and the lift a truncation of 2^(2 - p), so the bound
      counts 2^(4 - p) |g|, a quarter ulp;
    - elsewhere the power series of :func:`_exp_e1_series`, at the width
      :func:`_series_bits` derives from its bound, and once more at prec
      more bits should that bound exceed one ulp.
    """
    if z[0] >= 0 and not gi_below(z, _FRACTION_MIN_ABS):
        return _exp_e1_fraction(z, prec)
    if z[0] < 0 and not gi_below(z, _SERIES_MAX_ABS):
        wp = prec + 6
        with mp.workprec(wp):
            z = gi_to_mpc(z)
            return gi_from_mpc(mpmath.exp(z) * mpmath.e1(z), wp), 0.25
    f = _series_bits(z, prec)
    g, ulps = _exp_e1_series(z, prec, f)
    while not ulps <= 1:
        f += prec
        g, ulps = _exp_e1_series(z, prec, f)
    return g, ulps


def _series_bits(z, prec):
    """The fraction bits f at which :func:`_exp_e1_series` meets one ulp at
    |z| < ``_SERIES_MAX_ABS``: f = b + 3 + bitlen(b + 4|z| + 22) with
    b = prec + log2(e^(|z| + Re z) (|z| + 2)), and at least z's own.

    Its bound is about 3 (N + 1) e^(|z| + Re z) (|z| + 2) 2^-f with
    |g| >= 1/(|z| + 1) (the least of |G(z)| (|z| + 1) on the cut plane was
    measured at 1.00004, near the positive axis): 3 (N + 1) takes
    bitlen(N + 1) + 2 bits and the last bit leaves half an ulp for the
    rest.  The loop runs at most 2|z| + 1 steps to pass 2|z|, then at most
    f + |z| log2 e + 2 that halve T_n, so N + 1 <= f + 4|z| + 4, which is
    at most b + 4|z| + 22 as f <= b + 18.
    """
    xr, _, xe = gi_round((z[0], 0, z[2]), 53)
    az = gi_abs(z)
    b = prec + math.ceil((az + math.ldexp(xr, xe)) * _LOG2E + math.log2(az + 2))
    return max(b + 3 + (b + 4 * math.ceil(az) + 22).bit_length(), -z[2])


def _exp_e1_series(z, prec, f):
    """``(g, ulps)`` as in :func:`_exp_e1`, with ulps not capped at 1, from
    the power series (NIST DLMF 6.6.2)

        G(z) = (Ein(z) - gamma - log z)/E,  Ein(z) = sum_(n>=1) (-1)^(n+1) t_n/n,

    E = e^-z = sum_(n>=0) (-1)^n t_n, both from one recurrence
    t_n = t_(n-1) z/n, t_0 = 1, in fixed point with f fraction bits (a unit
    is 2^-f), f at least the fraction bits of z, which is held exactly.
    With M = e^|z| >= sum |t_n|:

    - each step floors each component twice, in the shift and in the
      division by n, so the computed T_n = T_(n-1) z/n - d_n with
      |d_n| < 3 units; d_k carries into T_n times z^(n-k) k!/n!, at most
      |z|^(n-k)/(n-k)!, so |T_n - t_n| < 3M units, and the N terms summed
      carry less than 3NM units into E, and that and 2N more (the floors
      of T_n/n) into Ein;
    - the loop stops at the first n = N > 2|z| whose T_n has both
      components within 8 units (past 2|z| each step halves T_n and adds
      less than 3 units, so it gets there), and from there on
      |t_n| <= |t_(n-1)|/2: both tails are below |t_N| < 12 + 3M units;
    - gamma + Re log z and Im log z are mpmath's at f + 10 bits, within
      four of their ulps there (two for the logarithm, a rounding each for
      gamma and the sum), and their truncation to f fraction bits adds less
      than 2 units: less than 2 + (|mag z| + 6)/128 units in all, as
      |log z| < |mag z| + 5.

    So E and E1 = Ein - gamma - log z are within a_E = 3(N + 1)M + 12 and
    a_1 = a_E + 2N + 2 + (|mag z| + 6)/128 units of their values, and with
    r = a_E/|E|, their quotient is within (a_1/(|E| |g|) + r)/(1 - r)
    of G, relative, 2^(3 - w) more once truncated to w = prec + 8 bits;
    the constants rounded up cover the rounding of this float bound.  As
    |E| = e^-Re z, the loss is the cancellation factor e^(|z| + Re z) of
    both sums over |g|, times about 3(N + 1) (:func:`_series_bits`).
    """
    zr, zi, ze = z
    xr, xi = zr << ze + f, zi << ze + f
    tr, ti = er, ei = 1 << f, 0
    sr = si = n = 0
    lim = 2 * gi_abs(z)
    while True:
        n += 1
        tr, ti = ((tr * xr - ti * xi) >> f) // n, ((tr * xi + ti * xr) >> f) // n
        if n & 1:
            er, ei, sr, si = er - tr, ei - ti, sr + tr // n, si + ti // n
        else:
            er, ei, sr, si = er + tr, ei + ti, sr - tr // n, si - ti // n
        if -8 <= tr <= 8 and -8 <= ti <= 8 and n > lim:
            break
    wl = f + 10
    lr, li = mpc_log((from_man_exp(zr, ze), from_man_exp(zi, ze)), wl)
    sr -= to_fixed(mpf_add(lr, mpf_euler(wl), wl), f)
    w = prec + 8
    g = gi_div((sr, si - to_fixed(li, f), 0), (er, ei, 0), w)
    ae = 3 * (n + 1) * math.exp(lim / 2) + 12
    a1 = ae + 2 * n + 2 + (abs(gi_mag(z)) + 6) / 128
    ab = gi_abs((er, ei, -f))
    r = math.ldexp(ae, -f) / ab
    rel = (math.ldexp(a1, -f) / (ab * gi_abs(g)) + r) / (1 - r) if r < 1 else math.inf
    return g, math.ldexp(rel + math.ldexp(1, 3 - w), prec)


def _exp_e1_fraction(z, prec):
    """``(g, ulps)`` as in :func:`_exp_e1`, for Re z >= 0, z != 0, from the
    Stieltjes fraction (NIST DLMF 6.9.1)

        G(z) = 1/(z + 1/(1 + 1/(z + 2/(1 + 2/(z + 3/(1 + ...)))))),

    partial numerators a_1 = 1, a_i = floor(i/2), partial denominators z
    and 1 in turn.  In w = 1/z it is the S-fraction K(a_i w/1) with every
    a_i > 0, and for |arg w| <= pi/2 Henrici and Pfluger (Numer. Math. 9,
    1966) bound its truncation: |G - f_n| <= |f_n - f_(n-1)|, and
    f_n - f_(n-1) = +-a_1...a_n/(B_n B_(n-1)).

    The fraction starts from z truncated to W fraction bits.  For
    Re z >= 0, 1/z - G = int_0^inf e^-s s/(z (z + s)) ds gives
    |zG - 1| <= 1/|z|, so G's relative change is at most
    |dz|/(|z| - 1): the truncation, |dz| < 2^(0.5 - W), moves G by less
    than 2^-(W + 2) |g| for |z| >= 12, and the bound counts it.
    The numerators A_i and denominators B_i follow the Wallis recurrence
    X_i = b_i X_(i-1) + a_i X_(i-2) on Gaussian-integer mantissas with
    W fraction bits, all four on one scale that drops by a shift whenever
    the A's outgrow W + 64 bits; ``det`` carries a_1...a_n on the square of
    that scale, rounded up.  A step with b = z truncates its products by at
    most one unit, 2^(1.5 - W) of the A and B it makes, and such relative
    errors enter f_n about once each: the bound counts 2^(4 - W) |g| per
    step.  The truncation bound is tested every fourth pass (two steps
    each), and the loop stops at the first tested n whose bound is at most
    2^-(prec + 4) |g|.  For |z| >= 12 that n is below prec^2/16 (128 steps
    at |z| = 16 and 150 bits, 204 at 16i), so W = prec + 2 bitlen(prec) + 10
    keeps the steps' share below 2^-(prec + 10) |g|.
    """
    w = prec + 2 * prec.bit_length() + 10
    zr, zi, ze = z
    s = ze + w
    zr, zi = (zr << s, zi << s) if s >= 0 else (zr >> -s, zi >> -s)
    one = 1 << w
    # (A_1, A_2) = (1, 1) and (B_1, B_2) = (z, z + 1); odd index o, even e
    aor, aoi, aer, aei = one, 0, one, 0
    bor, boi, ber, bei = zr, zi, zr + one, zi
    det = one * one
    top = w + 64
    j = 1
    while True:
        # X_(2j+1) = z X_(2j) + j X_(2j-1)
        t = aer * zr - aei * zi
        aoi = ((aer * zi + aei * zr) >> w) + j * aoi
        aor = (t >> w) + j * aor
        t = ber * zr - bei * zi
        boi = ((ber * zi + bei * zr) >> w) + j * boi
        bor = (t >> w) + j * bor
        # X_(2j+2) = X_(2j+1) + (j + 1) X_(2j)
        det *= j * (j + 1)
        j += 1
        aer, aei = aor + j * aer, aoi + j * aei
        ber, bei = bor + j * ber, boi + j * bei
        if j & 3 != 1:
            continue
        la = max(abs(aer).bit_length(), abs(aei).bit_length())
        lb = max(abs(bor).bit_length(), abs(boi).bit_length())
        # |f_n - f_(n-1)| / |f_n| = det / (|A_n| |B_(n-1)|) < 2^(gap + 2)
        gap = det.bit_length() - la - lb
        if gap <= -(prec + 6):
            break
        if la > top:
            s = la - w
            aor, aoi, aer, aei = aor >> s, aoi >> s, aer >> s, aei >> s
            bor, boi, ber, bei = bor >> s, boi >> s, ber >> s, bei >> s
            det = -(-det >> 2 * s)
    # the division's truncation and the float bound's rounding count as
    # steps, and z's truncation as one more
    g = gi_div((aer, aei, 0), (ber, bei, 0), w)
    return g, math.ldexp(1, gap + 2 + prec) + math.ldexp(2 * j + 3, 4 - w + prec)


class _PoleStart:
    """The ray-independent start of the jet of the pole c at u for the
    order-a sum: what :func:`_pole_jet` reads, once per pole and point.

    Kernel numbers: x = c/u of ``2 * prec`` bits and ``extra`` = a mag(x):
    e^(-x^a) has condition number |x^a|, so the jet runs ``extra`` bits
    above wp = ``prec + _CLOSED_FORM_GUARD``, and so does everything here,
    at the width w = wp + extra + 2, where a truncation (2^(2 - w) of its
    result) is 2^-(wp + extra) of it.  It holds x^0..x^a (z = -x^a) and
    psi_0 before the residue term (the G part of :func:`_pole_jet`).  Its
    bounds are floats on the integer exponent ``e`` of psi_0 (f stands for
    f 2^e), which no e^(-x^a) over- or underflows: ``size``, the sum of the
    magnitudes of psi_0's pieces, and ``err``, the bound of :func:`_exp_e1`
    on G times |x^(a-1)| in units of 2^-wp.  e^(-x^a) is ``exp`` once
    needed: at once when a > 1, for the incomplete gammas, else by the
    first residue term.
    """

    __slots__ = ("x", "xp", "extra", "w", "e", "psi", "size", "err", "exp")

    def __init__(self, c, a, u, prec):
        self.x = x = gi_div(c, u, 2 * prec)
        self.extra = extra = max(0, a * gi_mag(x))
        wp = prec + _CLOSED_FORM_GUARD
        self.w = w = wp + extra + 2
        # x^0 = 1 multiplies nothing: x^1 is only truncated
        self.xp = xp = [GI_ONE, gi_round(x, w)]
        for _ in range(1, a):
            xp.append(gi_mul(xp[-1], x, w))
        g, ulps = _exp_e1(_scale(-1, xp[a]), wp + extra)
        self.psi = psi = gi_mul(xp[a - 1], g, w)
        pieces, self.exp = [psi], None
        if a > 1:
            with mp.workprec(w):
                z = -gi_to_mpc(xp[a])
                exp = mpmath.exp(z)
                self.exp = gi_from_mpc(exp, w)
                for i in range(1, a):
                    al = mpmath.mpf(i) / a
                    pieces.append(gi_from_mpc(
                        gi_to_mpc(_laplace_moment(i, a, w)) * gi_to_mpc(xp[a - 1 - i])
                        * z ** al * exp * mpmath.gammainc(-al, z), w))
                    self.psi = gi_add(self.psi, pieces[-1], w)
        self.e = e = max(gi_mag(p) for p in pieces)
        self.size = sum(gi_abs(p, e) for p in pieces)
        self.err = math.ldexp(gi_abs(psi, e) * ulps, -extra)


def _pole_jet(start, a, n, side):
    """Taylor coefficients psi_0..psi_(n-1) at x of the order-a sum at 1 of
    1/(s - x) along arg s = phi, as kernel numbers of ``start.w`` bits,
    each with the size it is relative to (a float on the exponent
    ``start.e``), from the :class:`_PoleStart` of x and its Stokes side:
    -1 when 0 < arg x < phi, +1 when phi < arg x <= 0, else 0.

    The sum is Psi(x) = sum_(i<a) Gamma(1 + i/a) x^(a-1-i) G_(i/a)(-x^a)
    with G_alpha(z) = z^alpha e^z Gamma(-alpha, z) (G_0(z) = e^z E1(z),
    from :func:`_exp_e1`), the principal branch, whose cut (x^a > 0) takes
    its value from arg x < 0.  A pole that the ray has turned past,
    0 < arg x < phi (or phi < arg x <= 0, which puts a pole on arg s = 0 on
    the ray's side of the cut), adds -2 pi i a x^(a-1) e^(-x^a) (or
    +2 pi i ...).  From z G_alpha'(z) = (z + alpha) G_alpha(z) - 1, Psi
    solves y Psi' = (a - 1 - a y^a) Psi - a Pi(y) with
    Pi(y) = sum_(i<a) Gamma(1 + i/a) y^(a-1-i), and the Taylor coefficients
    follow from it.  The size of psi_0 is the sum of the magnitudes of its
    pieces plus 2^-_CLOSED_FORM_GUARD times the bound on G's error.  That
    of psi_m is |psi_m| plus 2^-_CLOSED_FORM_GUARD times err_m, the bound
    on its error in units of 2^-(prec + guard): G is well conditioned in
    z, so err_0 is 2^-extra |G part| plus the bound on G's error plus
    |residue term| (whose e^(-x^a) uses the ``extra`` bits), and each step
    of the recurrence carries the err of the coefficients it combines and
    adds 2^-extra times the magnitudes of its pieces, its own truncations.
    """
    x, xp, w, e = start.x, start.xp, start.w, start.e
    psi, arot = start.psi, 0.0
    if side:
        with mp.workprec(w):
            if start.exp is None:
                start.exp = gi_from_mpc(mpmath.exp(-gi_to_mpc(xp[a])), w)
            re, im, ex = gi_mul(gi_mul(start.exp, xp[a - 1], w),
                                gi_from_mpc(2 * side * a * mpmath.pi, w), w)
        rot = (-im, re, ex)
        psi = gi_add(psi, rot, w)
        arot = gi_abs(rot, e)
    psi = [psi]
    size = [start.size + arot + math.ldexp(start.err, -_CLOSED_FORM_GUARD)]
    if n == 1:
        return psi, size
    cut = math.ldexp(1, -start.extra)
    err = [cut * start.size + start.err + arot]
    apsi = [gi_abs(psi[0], e)]
    axp = [gi_abs(p) for p in xp]
    moments = [_laplace_moment(i, a, w) for i in range(a)]
    for m in range(n - 1):
        pi_m = (0, 0, 0)
        for i in range(a - m):
            pi_m = gi_add(pi_m, gi_mul(_scale(math.comb(a - 1 - i, m), moments[i]),
                                       xp[a - 1 - i - m], w), w)
        acc = _scale(-a, pi_m)
        pieces = a * gi_abs(pi_m, e)
        carried = 0
        if m != a - 1:
            acc = gi_add(acc, _scale(a - 1 - m, psi[m]), w)
            pieces += abs(a - 1 - m) * apsi[m]
            carried = abs(a - 1 - m) * err[m]
        for l in range(min(m, a) + 1):
            cf = a * math.comb(a, l)
            acc = gi_submul(acc, _scale(cf, xp[a - l]), psi[m - l], w)
            pieces += cf * axp[a - l] * apsi[m - l]
            carried += cf * axp[a - l] * err[m - l]
        psi.append(gi_div(acc, _scale(m + 1, x), w))
        apsi.append(gi_abs(psi[-1], e))
        err.append((carried + cut * pieces) / (axp[1] * (m + 1)))
        size.append(apsi[-1] + math.ldexp(err[-1], -_CLOSED_FORM_GUARD))
    return psi, size


def _times_derivative(poly, fractions, w):
    """Partial fractions of s h'(s) from those of h(s), kernel numbers of w bits.

    s d/ds r/(s - c)^j = -j r/(s - c)^j - j c r/(s - c)^(j+1).
    """
    poly = tuple(_scale(j, q) for j, q in enumerate(poly))
    out = []
    for c, rs in fractions:
        crs = [gi_mul(c, r, w) for r in rs]
        out.append((c, (_scale(-1, rs[0]),) + tuple(
            gi_sub(_scale(-(j + 1), rs[j]), _scale(j, crs[j - 1]), w) for j in range(1, len(rs)))
            + (_scale(-len(rs), crs[-1]),)))
    return poly, tuple(out)


def _closed_form_sum(poly, fractions, starts, a, b, u, turn, up, prec):
    """Order-a Laplace sum at the kernel number u of Q(s) + sum r_j/(s - c)^j
    along arg s = arg u + phi (turn = e^(-i phi), phi > 0 when ``up``),
    from its partial fractions and the :class:`_PoleStart` at u of each of
    their poles (``starts``, in the same order), for the order-a/b sum in
    tau = s^b.

    Returns ``(value, mass, e, jumps)``: the value a kernel number of
    ``prec + _CLOSED_FORM_GUARD + 2`` bits, the float mass on the
    exponent e, and a pair (|J|, c) for each pole c within
    ``RAY_POLE_MARGIN`` / b of the ray in s (``RAY_POLE_MARGIN`` in tau),
    decided on the mantissas of x e^(-i phi) that also give the Stokes side.
    Q sums as sum q_n Gamma(1 + n/a) u^n, and r/(s - c)^j as
    r psi_(j-1)(c/u)/u^j (:func:`_pole_jet`), on the pole's side of the
    ray whether near it or not.  The mass is
    |Q part| + sum |r| size_(j-1)/|u|^j: the size the rounding error is
    relative to.

    J is the pole's Stokes jump: the residue term that :func:`_pole_jet`
    adds when the ray turns past x = c/u, summed through the fraction,
    sum_j r_j (psi_(j-1) - alt_(j-1))/u^j with alt the jet on the other
    side; for a simple pole at k = 1 it is 2 pi i r e^(-c/u)/u.  As the
    difference of two jets of the ``start.w`` bits its error is far below
    the mass's 2^-prec share.  |J| is a float, inf above the float range
    (a pole past the ray near the sector's edge, where Re x^a < 0, at a
    small t).
    """
    wp = prec + _CLOSED_FORM_GUARD + 2
    total, mass, me, un = (0, 0, 0), 0.0, 0, GI_ONE
    for n, c in enumerate(poly):
        term = gi_mul(gi_mul(c, _laplace_moment(n, a, wp), wp), un, wp)
        total = gi_add(total, term, wp)
        mass += gi_abs(term)
        un = gi_mul(un, u, wp)
    eu = gi_mag(u)
    au = gi_abs(u, eu)
    near, jumps = Fraction(math.tan(RAY_POLE_MARGIN / b)), []
    for (c, rs), start in zip(fractions, starts):
        # the Stokes side from the signs of x and y = x e^(-i phi) (|phi| < pi/2):
        # -1 when 0 < arg x < phi, +1 when phi < arg x <= 0
        (xr, xi, _), w = start.x, start.w
        yr, yi = xr * turn[0] - xi * turn[1], xr * turn[1] + xi * turn[0]
        side = -(xi > 0 > yi) if up else int((xi < 0 or xi == 0 < xr) and yi > 0)
        psi, size = _pole_jet(start, a, len(rs), side)
        # |arg y| < RAY_POLE_MARGIN / b: the pole's Stokes jump is charged
        if abs(yi) * near.denominator < near.numerator * yr:
            try:
                alt, _ = _pole_jet(start, a, len(rs), 0 if side else 1)
                jump = (0, 0, 0)
                for r, p, q in zip(rs[::-1], psi[::-1], alt[::-1]):
                    jump = gi_div(gi_add(jump, gi_mul(r, gi_sub(p, q, w), w), w), u, w)
                jumps.append((gi_abs(jump), c))
            except OverflowError:  # e^(-x^a) beyond the float range, past the sector's edge
                jumps.append((math.inf, c))
        # sum_j r_j psi_(j-1)/u^j by Horner's rule in 1/u, its size a float
        # on the exponent pe (|u| = au 2^eu)
        term = gi_div(gi_mul(rs[-1], psi[-1], w), u, w)
        part, pe = gi_abs(rs[-1]) * size[-1] / au, start.e - eu
        for j in range(len(rs) - 2, -1, -1):
            term = gi_div(gi_add(term, gi_mul(rs[j], psi[j], w), w), u, w)
            top = max(pe, start.e)
            part = (math.ldexp(part, pe - top)
                    + math.ldexp(gi_abs(rs[j]) * size[j], start.e - top)) / au
            pe = top - eu
        total = gi_add(total, term, wp)
        top = max(me, pe)
        mass, me = math.ldexp(mass, me - top) + math.ldexp(part, pe - top), top
    return total, mass, me, jumps


def _sector_angle(t, theta, a, b):
    """d = theta - arg t wrapped to [-pi, pi), where the order k = a/b sum at
    t along arg tau = theta is defined: the kernel exp(-(tau/t)^k) decays
    along the ray in t's own lobe, |k d| < pi and cos(k d) > 0.05, that is
    |k d| < arccos 0.05 ~ 1.52.  (For k > 3/2 the next lobe, |k d| near
    2 pi, also has cos(k d) > 0; the sum is not the integral there.)
    Anything else raises :class:`SectorError`, and a theta or a t that is
    not finite ``ValueError``.  ``laplace_sum`` and ``p_k_sum`` both decide
    here.
    """
    if not mpmath.isfinite(theta):
        raise ValueError(f"ray direction {theta} is not finite")
    if not mpmath.isfinite(t):
        raise ValueError(f"evaluation point t = {t} is not finite")
    d = _angdiff(theta, mpmath.arg(t))
    kd = a * d / b
    if not (abs(kd) < mpmath.pi and mpmath.cos(kd) > 0.05):
        raise SectorError(f"direction/point incompatible: |k*(theta - arg t)| = "
                          f"{abs(float(kd)):.3f} >= arccos(0.05) = 1.521")
    return d


def laplace_sum(rc, k, t, derivative=False, eps=1e-16, prec=None):
    """Laplace integral of the continued Borel transform along its ray.

    Computes ``k t^{-k} \\int exp(-(tau/t)^k) g(tau) tau^{k-1} dtau`` over
    ``arg tau = rc.direction`` for both approximants carried by the
    continuation, with d = theta - arg t wrapped to [-pi, pi) and t^(-k)
    taken on the lift arg t = theta - d.  The kernel must decay along the
    ray in t's own lobe, |k d| < arccos 0.05 (``_sector_angle``); t = 0 or
    any other t raises :class:`SectorError`.  So the ray lies at
    |phi| = |d|/b < pi/2 from arg u, the precondition of
    ``_closed_form_sum``'s Stokes side.  With ``derivative=True`` returns
    d/dt of the sum.
    Runs at ``working_prec(prec)``, like every other entry point: an
    explicit ``prec``, else the ambient ``mp.prec`` floored at the default.
    The reported continuation error is the difference of the two
    approximants' sums plus the Stokes jump J at t of every pole of the
    upper approximant within ``RAY_POLE_MARGIN`` of the ray: on a pole that
    near, the side of the ray it lies on is not certain, and the sums on
    its two sides differ by J (the Ramis-Sibuya C exp(-A/|t|^k)).  A total
    J above ``eps`` raises :class:`SingularRayError`, carrying the nearest
    such pole (in tau), J and ``eps``; below it the sum keeps the pole's
    side, so its value is the same, and charges J.  So a ray is singular
    at a t, not for every t.  A k other than the
    transform's ``rc.k``, or not a fraction a/b with b <= 12, raises
    ``ValueError`` before anything else.

    The sum is closed-form for every such k.  With tau = s^b and
    u = |t|^(1/b) e^(i (theta - d)/b), the order-k sum of g at t is the
    order-a sum of g(s^b) at u along arg s = theta/b.  Each approximant's
    partial fractions in s (``RationalApproximant.partial_fractions``)
    sum term by term (``_closed_form_sum``): for k = 1 the polynomial part
    as sum q_j j! t^j and a simple pole as r e^(-q) E1(-q)/t with q = p/t,
    plus -+2 pi i r e^(-q)/t for a pole between arg t and the ray; for
    integer a through upper incomplete gammas and, for a multiple pole or
    a cluster, their Taylor coefficients.  The derivative is (1/t) times
    the sum of tau g'(tau), whose partial fractions follow from g's.  Each
    approximant's pole starts at u (``RationalApproximant.pole_starts``),
    which hold e^(-q) E1(-q), serve every sum at that point.
    Nothing is cut off, and ``quadrature_error`` is the evaluation bound
    (|Q part| + sum of the term sizes) 2^(2 - prec), which covers rounding
    to ``prec`` bits; a term's size is its magnitude plus the carried error
    of the Taylor coefficients it takes, that of G and of every kernel
    truncation included.  ``eps`` is the sum's one tolerance: an ``eps``
    below that bound raises ``ValueError``, a Stokes jump above it
    :class:`SingularRayError`.
    """
    a, b = _rational_k(k)
    if float(k) != rc.k:
        raise ValueError(f"k = {k} is not the k = {rc.k} of the continued Borel transform")
    prec = working_prec(prec)
    with mp.workprec(prec):
        t = to_mpc(t)
        if t == 0:
            raise SectorError("cannot sum at t = 0")
        theta = mpmath.mpf(rc.direction)
        d = _sector_angle(t, theta, a, b)
        w = gi_width(prec)
        with mp.workprec(2 * prec):
            turns = mpmath.nint((theta - d - mpmath.arg(t)) / (2 * mpmath.pi))
            u = gi_from_mpc(mpmath.root(t, b, int(turns) % b), w)
            turn = gi_from_mpc(mpmath.expj(-d / b), w)
        sums, bt = [], _scale(b, gi_from_mpc(t, w))
        for appr in (rc._hi, rc._lo):
            poly, fractions = appr.partial_fractions(b)
            starts = appr.pole_starts(b, a, u, prec)
            if derivative:
                poly, fractions = _times_derivative(poly, fractions, w)
            try:
                value, mass, me, jumps = _closed_form_sum(poly, fractions, starts, a, b, u, turn,
                                                          d > 0, prec)
            except OverflowError:  # a term's size beyond the float range
                raise ValueError(f"the evaluation bound of the {prec}-bit closed-form sum at "
                                 f"t = {mpmath.nstr(t, 6)} is beyond the float range") from None
            if derivative:
                value = gi_div(value, bt, prec + _CLOSED_FORM_GUARD + 2)
                mass, me = mass / gi_abs(bt, gi_mag(bt)), me - gi_mag(bt)
            sums.append((value, mass, me, jumps))
        (v_hi, mass, me, jumps), (v_lo, *_) = sums
        qerr = ldexp_inf(mass, me + _CLOSED_FORM_C - prec)
        if not qerr <= eps:
            raise ValueError(f"eps = {float(eps):.3g} is below {qerr:.3g}, the evaluation bound "
                             f"of the {prec}-bit closed-form sum at t = {mpmath.nstr(t, 6)}")
        # the upper approximant's Stokes jumps, scaled like its value
        jump = sum(j for j, _ in jumps)
        if derivative and jump:
            jump = ldexp_inf(jump / gi_abs(bt, gi_mag(bt)), -gi_mag(bt))
        if jump > eps:
            pole = gi_to_mpc(min((gi_abs(c), c) for _, c in jumps)[1]) ** b
            raise SingularRayError(
                f"Stokes jump {jump:.3g} at t = {complex(t):.6g} of the pole at {complex(pole):.6g}"
                f" near the ray arg tau = {float(theta):.6g} exceeds eps = {float(eps):.3g}",
                pole=pole, jump=jump, eps=eps)
        cont = gi_abs(gi_sub(v_hi, v_lo, 53)) + jump
        return SumResult(t=t, k=float(k), theta=float(theta), value=gi_to_mpc(v_hi, prec),
                         quadrature_error=qerr, continuation_error=cont, prec=prec)


def p_k_sum(expansion, point, k, theta, prec=None):
    """Germ-k-sum of an expansion at a point: specialize, transform, continue, integrate.

    ``t = P(point)`` must lie where ``laplace_sum`` sums: |k (theta - arg t)|
    < arccos 0.05 in t's own lobe (``_sector_angle``), checked before
    anything is built; any other point, or one where the germ vanishes,
    raises :class:`SectorError`.  The Laplace step takes ``laplace_sum``'s
    default ``eps``, so a sum whose evaluation bound exceeds 1e-16 is
    refused with ``ValueError``, as is, before anything else, a k that
    ``laplace_sum`` cannot sum, and a sum where the Stokes jump of a Pade
    pole near the ray exceeds 1e-16 with :class:`SingularRayError`; a
    smaller jump joins ``continuation_error``.  Every step runs at
    ``working_prec(prec)``.

    The sum depends on the point only through t and the specialized
    coefficients g_n(point), and points whose coefficients are equal (every
    point, when the g_n are constants) share one continuation: the
    expansion keeps the Borel series of its last specialization
    (:func:`_germ_borel`), approximants included, and only the pole starts
    at t (the G values) and the closed-form sum are computed per point.
    """
    a, b = _rational_k(k)
    prec = working_prec(prec)
    with mp.workprec(prec):
        t = to_mpc(expansion.germ.p.eval_at(point))
        if t == 0:
            raise SectorError("the germ vanishes at the evaluation point")
        _sector_angle(t, float(theta), a, b)
        rc = continue_on_ray(_germ_borel(expansion, point, k, prec), theta, prec=prec)
        return laplace_sum(rc, k, t, prec=prec)


def _germ_borel(expansion, point, k, prec):
    """The :class:`BorelSeries` of order k at ``prec`` bits of the expansion
    specialized at the point.

    The expansion keeps, per (k, prec), its last specialized coefficients
    and their Borel series (``PExpansion._borel``).  When the point's
    coefficients equal those in value and in exactness, that series is
    returned, and with it its approximants, their roots, partial fractions
    and Froissart filter: the point then costs its specialization, its pole
    starts and its closed-form sum.  Else the new series replaces it.
    """
    coeffs = tuple(expansion.specialize(point))
    key = (float(k), prec)
    stored = expansion._borel.get(key)
    if stored is not None and all(is_exact(x) == is_exact(y) and x == y
                                  for x, y in zip(stored[0], coeffs)):
        return stored[1]
    series = borel_transform(coeffs, k, prec=prec)
    expansion._borel[key] = coeffs, series
    return series


# -- singular directions ------------------------------------------------------

class PoleCluster(Record):
    center: object
    modulus: float
    argument: float
    stability: float
    hits: int

    def to_json(self):
        return {"modulus": self.modulus, "argument": self.argument,
                "stability": self.stability, "hits": self.hits}


class SingularDirectionReport(Record):
    k: float
    clusters: tuple
    directions: tuple

    def to_json(self):
        return {
            "k": self.k,
            "directions": list(self.directions),
            "direction_period": TWO_PI,
            "clusters": [c.to_json() for c in self.clusters],
        }


def singular_directions(b, k=None, prec=None):
    """Directions obstructed by cross-order-stable poles of the continuation.

    Builds rational approximants at ``DIRECTION_ORDERS`` consecutive
    denominator degrees, none above the rank the top one resolves to (one
    approximant when that rank cuts them all to it), keeps only poles reproduced (within
    ``DIRECTION_MATCH_REL`` relative distance) at every order, and reports
    the arguments of the cluster centers, deduplicated within 0.05 rad.  An
    empty report means no obstruction was detected (entire Borel
    transform).  A k other than the transform's ``b.k`` raises
    ``ValueError``, as in ``laplace_sum``.  Runs at ``working_prec(prec)``.
    """
    if k is not None and float(k) != b.k:
        raise ValueError(f"k = {k} is not the k = {b.k} of the Borel transform")
    if len(b) < 16:
        raise ValueError("need at least 16 Borel coefficients")
    k = b.k
    prec = working_prec(prec)
    with mp.workprec(prec):
        m0 = (len(b) - 1) // 2
        nu = b.approximant(m0, prec).order[1]
        approximants = [b.approximant(min(m0 - i, nu), prec) for i in range(DIRECTION_ORDERS)]
        clusters = []
        for matched in _stable_poles(approximants, DIRECTION_MATCH_REL):
            matched = [gi_to_mpc(x) for x in matched]
            center = sum(matched) / len(matched)
            spread = max(abs(x - center) for x in matched)
            clusters.append(PoleCluster(
                center=center, modulus=float(abs(center)),
                argument=float(mpmath.arg(center)),
                stability=float(spread), hits=len(matched)))
        clusters.sort(key=lambda c: c.modulus)
        directions = []
        for c in clusters:
            if all(abs(float(_angdiff(c.argument, d))) > 0.05 for d in directions):
                directions.append(c.argument)
    return SingularDirectionReport(k=k, clusters=tuple(clusters),
                                   directions=tuple(sorted(directions)))
