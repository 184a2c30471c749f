"""Numerical summation of divergent one-variable series along rays.

The pipeline: divide the coefficients a_n by Gamma(1 + n/k) (Borel
transform of order k), continue the resulting convergent series along a
ray by diagonal rational approximants, and Laplace-transform it back with
the kernel ``k t^{-k} exp(-(tau/t)^k) tau^{k-1}``.  Specializing the
coefficients of a germ-power expansion at a point and evaluating the germ
there reduces germ-relative summation to this one-variable machinery.

The rational continuation runs on the Gaussian-integer kernel of
:mod:`germsum.scalars` at ``2 * prec + 10`` bits: the Toeplitz solve of
each approximant (a system whose pivot is at most ||A||_1 2^-(2 prec + 9)
is singular, and the build moves one degree down), the Durand-Kerner
rooting of its denominator (stopped when every correction is below
2^(1 - prec), roots kept at the kernel width) and its partial fractions.
A :class:`BorelSeries` keeps the approximants it has built.

For k = 1 the Laplace step is closed-form: each approximant splits into
partial fractions Q(tau) + sum r/(tau - p), whose transform is
sum q_j j! t^j + sum r e^(-p/t) E1(-p/t)/t plus a 2 pi i residue term for
each pole between arg t and the ray.  For other k, or an approximant with
a multiple root, adaptive Gauss-Legendre integrates the approximant.

Error reporting is split and mandatory: the continuation error is the
difference between two consecutive approximant orders propagated through
the same Laplace step.  The quadrature error is, for the closed form, the
bound on rounding in evaluating it; for the quadrature, the accumulated
panel-refinement estimate plus the discarded tail.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import zip_longest

import mpmath
from mpmath import mp
from mpmath.libmp import (from_man_exp, mpc_div, mpc_mul, repr_dps, round_nearest,
                          to_str)

from .errors import ContinuationError, SectorError, SingularRayError
from .scalars import (gi_abs, gi_div, gi_from_mpc, gi_horner, gi_mag, gi_mul, gi_submul,
                      gi_to_mpc, gi_width, to_mpc, working_prec)
from .transforms import _poly_roots

TWO_PI = 2 * math.pi

# A numerator zero this close (relative) to a pole cancels it: a Froissart doublet.
FROISSART_REL = 1e-6
# Cross-order match on a ray, loose: refusing a ray near a doubtful pole is safe.
RAY_MATCH_REL = 0.2
# Angle (rad) from a stable pole within which the continuation is unreliable.
RAY_POLE_MARGIN = 0.15
# A direction report asserts an obstruction: the pole must recur at 3 orders ...
DIRECTION_ORDERS = 3
# ... each within this relative distance, tighter than on a ray.
DIRECTION_MATCH_REL = 0.1
# Slack (rad) beyond the sector half-opening pi/(2k); the Laplace step checks decay.
SECTOR_SLACK = 0.35


def _angdiff(a, b):
    """Signed angular difference a - b wrapped to (-pi, pi].

    The wrap uses pi at the working precision: a float 2*pi would shift
    the result by ~2e-16 whenever a and b straddle the cut at +-pi.
    """
    d = mpmath.mpf(a) - mpmath.mpf(b)
    two_pi = 2 * mpmath.pi
    return d - two_pi * mpmath.floor((d + mpmath.pi) / two_pi)


@dataclass(frozen=True)
class OneVarSeries:
    """Plain coefficient list a_0..a_{M-1} of a (possibly divergent) series."""
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    def __len__(self):
        return len(self.coeffs)


@dataclass(frozen=True)
class BorelSeries:
    """Coefficients b_n = a_n / Gamma(1 + n/k).

    ``approximant`` builds each diagonal approximant once per series: the
    rays of a Stokes pair and ``singular_directions`` share them.
    """
    k: float
    coeffs: tuple
    _approximants: dict = field(default_factory=dict, init=False, compare=False,
                                repr=False)

    def __len__(self):
        return len(self.coeffs)

    def approximant(self, m, prec):
        """``build_approximant(self.coeffs, m, prec)``, built on first use."""
        key = (m, prec)
        if key not in self._approximants:
            self._approximants[key] = build_approximant(self.coeffs, m, prec)
        return self._approximants[key]


def borel_transform(series, k, prec=None):
    """Divide the n-th coefficient by Gamma(1 + n/k), at twice the working precision.

    Twice, because the rational continuation solves at that precision:
    coefficients rounded to the working precision would hand the fit a
    noise of 2^-prec, which a badly conditioned fit (poles close together)
    amplifies past every error the sum reports.
    """
    if not k > 0:
        raise ValueError("summability index k must be positive")
    coeffs = series.coeffs if isinstance(series, OneVarSeries) else tuple(series)
    prec = working_prec(prec)
    with mp.workprec(2 * prec):
        kk = mpmath.mpf(k)
        out = tuple(to_mpc(a) / mpmath.gamma(1 + mpmath.mpf(n) / kk)
                    for n, a in enumerate(coeffs))
    return BorelSeries(float(k), out)


# -- rational (Pade-type) continuation ---------------------------------------

class RationalApproximant:
    """Ratio of two polynomials matching a Taylor series to order n+m.

    The denominator is rooted once: ``raw_poles`` caches its roots, and
    ``filtered_poles`` and ``partial_fractions`` reuse them.
    """

    __slots__ = ("num", "den", "prec", "_roots", "_fractions")

    def __init__(self, num, den, prec):
        self.num = tuple(num)
        self.den = tuple(den)
        self.prec = prec
        self._roots = self._fractions = None

    @property
    def order(self):
        return (len(self.num) - 1, len(self.den) - 1)

    def __call__(self, tau):
        tau = to_mpc(tau)
        # Horner from a zero leading term, so the top coefficient (held at
        # twice the precision) enters rounded to working precision
        return (mpmath.polyval((0,) + self.num[::-1], tau)
                / mpmath.polyval((0,) + self.den[::-1], tau))

    def _trimmed_den(self):
        """Denominator coefficients, low to high, without negligible top ones."""
        with mp.workprec(self.prec):
            mags = [abs(to_mpc(c)) for c in self.den]
            top = max(mags)
            if top == 0:
                return ()
            cut = top * mpmath.mpf(2) ** (-(self.prec // 2))
            hi = len(mags) - 1
            while hi > 0 and mags[hi] < cut:
                hi -= 1
            return self.den[:hi + 1]

    def raw_poles(self):
        """Denominator roots with multiplicities, negligible top coefficients dropped."""
        if self._roots is None:
            den = self._trimmed_den()
            self._roots = tuple(_poly_roots(list(den), self.prec)) if den else ()
        return self._roots

    def filtered_poles(self):
        """Poles with Froissart doublets (a numerator zero within FROISSART_REL) removed.

        The Newton step ``|N(p)/N'(p)|``, by kernel Horner at the kernel
        width, estimates the distance from p to the nearest zero of N
        without rooting N.  On the benchmark's ray-sum
        inputs it is <= 1e-35 max(1, |p|) at every doublet and >= 1e-3
        max(1, |p|) at every kept pole, so it keeps exactly the poles that
        rooting N would keep.
        """
        w = gi_width(self.prec)
        num = [gi_from_mpc(c, w) for c in self.num]
        num_hl, dnum_hl = num[::-1], _derivative_hl(num, w)
        kept = []
        for p, mult in self.raw_poles():
            z = gi_from_mpc(p, w)
            n = gi_horner(num_hl, z, w)
            if not (n[0] or n[1]):
                continue
            dn = gi_horner(dnum_hl, z, w) if dnum_hl else (0, 0, 0)
            e = gi_mag(n)
            if gi_abs(n, e) > FROISSART_REL * max(1, gi_abs(z)) * gi_abs(dn, e):
                kept.append((p, mult))
        return tuple(kept)

    def partial_fractions(self):
        """``(poly, fractions)`` with N/D = Q(tau) + sum r/(tau - p), or None.

        ``poly`` holds the coefficients of Q, low to high, and ``fractions``
        the pairs (p, r), all at the kernel width ``2 * prec + 10``: the
        poles are the cached roots of the trimmed denominator D, which
        ``raw_poles`` keeps at that width, Q and the remainder R come from
        dividing N by D on the Gaussian-integer kernel, and r = R(p)/D'(p),
        which equals N(p)/D'(p), by kernel Horner.  None when D has a
        multiple root or a root at 0: those have no simple-pole closed
        form.  A non-finite coefficient raises ``ValueError``.
        """
        if self._fractions is None:
            self._fractions = self._split() or False
        return self._fractions or None

    def _split(self):
        roots = self.raw_poles()
        den = self._trimmed_den()
        if not den or any(mult > 1 or p == 0 for p, mult in roots):
            return None
        w = gi_width(self.prec)
        den = [gi_from_mpc(c, w) for c in den]
        rem = [gi_from_mpc(c, w) for c in self.num]
        d = len(den) - 1
        poly = [None] * max(0, len(rem) - d)
        for i in range(len(poly) - 1, -1, -1):
            c = poly[i] = gi_div(rem[i + d], den[d], w)
            for j, dj in enumerate(den):
                rem[i + j] = gi_submul(rem[i + j], c, dj, w)
        rem_hl = rem[:d][::-1]
        dden_hl = _derivative_hl(den, w)
        fractions = []
        for p, _ in roots:
            z = gi_from_mpc(p, w)
            r = gi_div(gi_horner(rem_hl, z, w), gi_horner(dden_hl, z, w), w)
            fractions.append((gi_to_mpc(z), gi_to_mpc(r)))
        return tuple(gi_to_mpc(c) for c in poly), tuple(fractions)


def _derivative_hl(coeffs, w):
    """Kernel coefficients of the derivative, highest degree first, of the
    polynomial with kernel coefficients ``coeffs`` (lowest first)."""
    return [gi_mul(c, (j, 0, 0), w) for j, c in enumerate(coeffs)][:0:-1]


def _toeplitz_solve(a, m, w):
    """Minus the denominator, -q_1..-q_m, of the [m/m] Pade approximant, or
    None when the system is singular.

    Solves sum_i a[m + j + 1 - i] x_i = a[m + 1 + j] (j = 0..m-1, i = 1..m)
    for kernel coefficients ``a`` by Gaussian elimination at w bits, with
    the decisions of ``mpmath.lu_solve``: the pivot of a column is the
    entry largest relative to the sum of its row, and the system is
    numerically singular (None) when such a row sum or the pivot is at most
    ||A||_1 2^(1 - w).  Magnitudes are floats relative to the largest
    coefficient (``gi_abs``).
    """
    rows = [[a[m + j - i] for i in range(m)] + [a[m + 1 + j]] for j in range(m)]
    top = max(gi_mag(x) for x in a[1:2 * m])
    if top == -math.inf:
        return None
    mags = [[gi_abs(x, top) for x in row[:m]] for row in rows]
    tol = math.ldexp(max(sum(col) for col in zip(*mags)), 1 - w)
    for j in range(m):
        best, piv = 0.0, None
        for k in range(j, m):
            s = math.fsum(mags[k][j:])
            if s <= tol:
                return None
            if mags[k][j] / s > best:
                best, piv = mags[k][j] / s, k
        if piv is None or mags[piv][j] <= tol:
            return None
        rows[j], rows[piv] = rows[piv], rows[j]
        mags[j], mags[piv] = mags[piv], mags[j]
        head = rows[j]
        for row, mag in zip(rows[j + 1:], mags[j + 1:]):
            f = gi_div(row[j], head[j], w)
            for k in range(j + 1, m + 1):
                row[k] = gi_submul(row[k], f, head[k], w)
            mag[j + 1:] = [gi_abs(x, top) for x in row[j + 1:m]]
    q = [None] * m
    for j in range(m - 1, -1, -1):
        row = rows[j]
        acc = row[m]
        for k in range(j + 1, m):
            acc = gi_submul(acc, row[k], q[k], w)
        q[j] = gi_div(acc, row[j], w)
    return q


def build_approximant(coeffs, m=None, prec=None):
    """Diagonal Pade approximant [m/m] (default: the largest the coefficients allow).

    The coefficients are rounded to twice the working precision, and the
    Toeplitz system of the denominator is solved on the Gaussian-integer
    kernel of :mod:`germsum.scalars` at ``2 * prec + 10`` bits
    (:func:`_toeplitz_solve`), by elimination with partial pivoting.  A
    numerically singular system (a pivot, or a row sum of the remaining
    matrix, at most ||A||_1 2^-(2 prec + 9): exactly rational input of
    lower true degree) moves on to the next lower degree; when no
    degree >= 1 works the approximant is the constant term (at twice the
    working precision, like every coefficient).  A non-finite coefficient
    raises ``ValueError``.
    """
    prec = working_prec(prec)
    top = (len(coeffs) - 1) // 2
    m = top if m is None else max(0, min(m, top))
    w = gi_width(prec)
    with mp.workprec(2 * prec):
        c = [to_mpc(x) for x in coeffs]
    a = [gi_from_mpc(x, w) for x in c]
    for mm in range(m, 0, -1):
        x = _toeplitz_solve(a, mm, w)
        if x is None:
            continue
        # p_i = a_i + sum_j q_j a_(i-j) with q_j = -x_j
        num = []
        for i in range(mm + 1):
            acc = a[i]
            for j in range(1, i + 1):
                acc = gi_submul(acc, x[j - 1], a[i - j], w)
            num.append(acc)
        den = [mpmath.mpc(1)] + [gi_to_mpc((-re, -im, e)) for re, im, e in x]
        return RationalApproximant([gi_to_mpc(c) for c in num], den, prec)
    return RationalApproximant([c[0]], [mpmath.mpc(1)], prec)


@dataclass(frozen=True)
class RayContinuation:
    """Samples of the continued Borel transform along a ray, plus the two
    approximants (orders m and m - 1) that ``laplace_sum`` transforms."""
    direction: float
    radii: tuple
    values: tuple
    errors: tuple
    poles: tuple
    prec: int
    _hi: object
    _lo: object


def _stable_poles(approximants, rel):
    """Filtered poles of the first approximant reproduced by every other one.

    A pole p is reproduced when the nearest filtered pole of an approximant
    lies within ``rel * max(1, |p|)`` of it.  Returns, for each stable pole,
    the tuple of p and its nearest match at each further approximant.
    """
    pole_sets = [[p for p, _ in appr.filtered_poles()] for appr in approximants]
    stable = []
    for p in pole_sets[0]:
        matched = [p]
        for ps in pole_sets[1:]:
            if not ps:
                break
            q = min(ps, key=lambda x: abs(x - p))
            if abs(q - p) > rel * max(1, abs(p)):
                break
            matched.append(q)
        if len(matched) == len(pole_sets):
            stable.append(tuple(matched))
    return stable


def continue_on_ray(b, theta, radii, method="pade", prec=None):
    """Continue the Borel series along arg tau = theta, sampling at the radii.

    Samples the diagonal rational approximant; the per-sample error
    estimate is the difference against the approximant of one lower order.
    A pole stable across the two orders (within ``RAY_MATCH_REL``) and
    within angular distance ``RAY_POLE_MARGIN`` of the ray raises
    :class:`SingularRayError`.  ``"pade"`` is the only continuation
    ``method``; any other value raises ``ValueError``.  Runs at
    ``working_prec(prec)``.
    """
    if method != "pade":
        raise ValueError(f"unknown continuation method {method!r}")
    coeffs = b.coeffs
    if len(coeffs) < 8:
        raise ValueError("need at least 8 Borel coefficients to continue")
    radii = tuple(float(r) for r in radii)
    if any(r <= 0 for r in radii) or any(b2 <= a2 for a2, b2 in zip(radii, radii[1:])):
        raise ValueError("radii must be positive and strictly increasing")
    prec = working_prec(prec)
    with mp.workprec(prec):
        theta = float(theta)
        m_star = (len(coeffs) - 1) // 2
        hi = b.approximant(m_star, prec)
        lo = b.approximant(m_star - 1, prec)
        poles = tuple(p for p, _ in _stable_poles((hi, lo), RAY_MATCH_REL))
        for p in poles:
            if abs(_angdiff(mpmath.arg(p), theta)) < RAY_POLE_MARGIN:
                raise SingularRayError(
                    f"stable pole at {complex(to_mpc(p))} within "
                    f"{RAY_POLE_MARGIN} rad of the ray arg tau = {theta:.6g}",
                    pole=to_mpc(p))
        phase = mpmath.expjpi(mpmath.mpf(theta) / mpmath.pi)
        values, errors = [], []
        for r in radii:
            tau = r * phase
            v = hi(tau)
            values.append(v)
            errors.append(float(abs(v - lo(tau))))
    return RayContinuation(direction=theta, radii=radii, values=tuple(values),
                           errors=tuple(errors), poles=poles,
                           prec=prec, _hi=hi, _lo=lo)


# -- Laplace integral ---------------------------------------------------------

@dataclass(frozen=True)
class SumResult:
    """A numeric germ-k-sum (or plain k-sum) evaluation with split errors.

    ``tail_cut`` is where the quadrature cut the Laplace integral off, and
    None for a closed-form sum, which cuts nothing.  ``prec`` is the
    working precision of ``value``.
    """
    t: object
    k: float
    theta: float
    value: object
    quadrature_error: float
    continuation_error: float
    tail_cut: object
    prec: int

    @property
    def total_error(self):
        return self.quadrature_error + self.continuation_error

    def to_json(self):
        """JSON record; ``value`` as decimal strings that round-trip at ``prec``."""
        t = to_mpc(self.t)
        v = to_mpc(self.value)
        dps = repr_dps(self.prec)
        return {
            "t": {"re": float(t.real), "im": float(t.imag)},
            "k": self.k,
            "theta": self.theta,
            "value": {"re": to_str(v.real._mpf_, dps), "im": to_str(v.imag._mpf_, dps)},
            "quadrature_error": self.quadrature_error,
            "continuation_error": self.continuation_error,
            "tail_cut": self.tail_cut,
        }


_GL_CACHE = {}
_GL_POINTS = 20


def _gl_nodes(prec):
    """Gauss-Legendre nodes/weights on [-1, 1] at the given precision."""
    key = (_GL_POINTS, prec)
    if key not in _GL_CACHE:
        n = _GL_POINTS
        with mp.workprec(prec + 16):
            nodes = []
            for i in range(1, n // 2 + 1):
                x = mpmath.cos(mpmath.pi * (i - mpmath.mpf(1) / 4) / (n + mpmath.mpf(1) / 2))
                for _ in range(60):
                    p0, p1 = mpmath.mpf(1), x
                    for j in range(2, n + 1):
                        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
                    dp = n * (x * p1 - p0) / (x * x - 1)
                    dx = p1 / dp
                    x -= dx
                    if abs(dx) < mpmath.mpf(2) ** (-prec - 8):
                        break
                w = 2 / ((1 - x * x) * dp * dp)
                nodes.append((x, w))
                nodes.append((-x, w))
        _GL_CACHE[key] = tuple(nodes)
    return _GL_CACHE[key]


def _gl_panel(f, a, b, nodes):
    """Gauss-Legendre rule on [a, b] for an integrand returning (hi, lo) pairs."""
    half = (b - a) / 2
    mid = (a + b) / 2
    hi = lo = mpmath.mpc(0)
    for x, w in nodes:
        f_hi, f_lo = f(mid + half * x)
        hi += w * f_hi
        lo += w * f_lo
    return hi * half, lo * half


def _adaptive(f, a, b, whole, tol, nodes, depth=0):
    """Refine [a, b], whose rule value ``whole`` is known, on the high order.

    Returns the (hi, lo) pair summed over the accepted panels and the
    accumulated refinement estimate of hi.  Each half's rule value is
    handed down as that half's ``whole``, so no panel is integrated twice.
    """
    mid = (a + b) / 2
    left = _gl_panel(f, a, mid, nodes)
    right = _gl_panel(f, mid, b, nodes)
    split = (left[0] + right[0], left[1] + right[1])
    est = abs(whole[0] - split[0])
    if est <= tol or depth >= 24:
        return split, est
    v_left, e_left = _adaptive(f, a, mid, left, tol / 2, nodes, depth + 1)
    v_right, e_right = _adaptive(f, mid, b, right, tol / 2, nodes, depth + 1)
    return (v_left[0] + v_right[0], v_left[1] + v_right[1]), e_left + e_right


def _ray_rows(appr, phase):
    """Coefficients of an approximant rotated onto the ray, as four Horner chains.

    With c_j -> c_j e^(i j theta) the approximant at tau = s e^(i theta) is
    N(s)/D(s) in the real s.  The chains hold the real and imaginary parts
    of the rotated numerator and denominator coefficients (Re N, Im N, Re D,
    Im D), highest degree first, each as a signed integer mantissa and a
    binary exponent.
    """
    parts = []
    rot = mpmath.mpc(1)
    for n, d in zip_longest(appr.num, appr.den, fillvalue=0):
        part = []
        for sign, man, exp, bc in (to_mpc(n) * rot)._mpc_ + (to_mpc(d) * rot)._mpc_:
            if bc < 0:
                raise ValueError("non-finite approximant coefficient")
            part.append((-man if sign else man, exp))
        parts.append(part)
        rot *= phase
    return tuple(tuple(chain[::-1]) for chain in zip(*parts))


def _ray_value(chains, s, prec):
    """Raw (re, im) of N(s)/D(s) at the raw real s: Horner in s, one division.

    The four real Horner chains of ``_ray_rows`` run on Python ints: each
    step multiplies the accumulator by the mantissa of s exactly, adds the
    coefficient with aligned exponents and truncates the sum to
    ``prec + 12`` bits, so the Horner error bound holds with unit roundoff
    2^-(prec+11).  The alignment shift is capped at ``prec + 12`` bits: the
    term with the lower exponent is truncated there, which errs by at most
    2^-(prec+12) of the other term, so a coefficient far below the
    accumulator (or the other way round) never builds a huge int.  Each
    chain becomes one mpf, and ``mpc_div`` divides at ``prec``.
    """
    sign, sm, se, _ = s
    if sign:
        sm = -sm
    w = prec + 12
    parts = []
    for chain in chains:
        m = e = 0
        for cm, ce in chain:
            m *= sm
            e += se
            if cm:
                if not m:
                    m, e = cm, ce
                elif e >= ce:
                    d = e - ce
                    if d > w:
                        m = (m << w) + (cm >> (d - w))
                        e -= w
                    else:
                        m = (m << d) + cm
                        e = ce
                else:
                    d = ce - e
                    if d > w:
                        m = (cm << w) + (m >> (d - w))
                        e = ce - w
                    else:
                        m += cm << d
            n = m.bit_length() - w
            if n > 0:
                m >>= n
                e += n
        parts.append(from_man_exp(m, e))
    nr, ni, dr, di = parts
    return mpc_div((nr, ni), (dr, di), prec, round_nearest)


# Guard bits over the working precision at which the closed-form terms are
# summed, and the constant C of their evaluation bound mass * 2^(C - prec):
# one bit for rounding the sum to prec, one for everything carried at the
# guard precision (the terms, their sum and the partial fractions).
_CLOSED_FORM_GUARD = 16
_CLOSED_FORM_C = 2


def _closed_form_sum(appr, t, phi, derivative, prec):
    """k = 1 Laplace sum of one approximant from its partial fractions.

    Returns ``(value, mass)``, both at ``prec + _CLOSED_FORM_GUARD`` bits.
    Along arg tau = arg t + phi the sum of Q(tau) + sum r/(tau - p) is
    ``sum_j q_j j! t^j + sum r K(q)/t`` with q = p/t and
    K(q) = J(q) = e^(-q) E1(-q), the principal branch, whose cut (q > 0)
    takes its value from arg q < 0.  A pole that the ray has turned past,
    0 < arg q < phi (or phi < arg q <= 0, which puts a pole on arg t on
    the ray's side of the cut), adds -2 pi i e^(-q) (or +2 pi i e^(-q)) to
    K.  The derivative in t uses K'(q) = -K(q) - 1/q.  ``mass`` is
    |Q part| + sum |terms|, with the pieces of a term that can cancel
    counted separately: the size the rounding error is relative to.
    """
    poly, fractions = appr.partial_fractions()
    wp = prec + _CLOSED_FORM_GUARD
    with mp.workprec(wp):
        total = mpmath.mpc(0)
        mass = mpmath.mpf(0)
        for j, c in enumerate(poly):
            if derivative:
                term = c * math.factorial(j) * j * t ** (j - 1) if j else 0
            else:
                term = c * math.factorial(j) * t ** j
            total += term
            mass += abs(term)
        two_pi_i = mpmath.mpc(0, 2 * mpmath.pi)
        for p, r in fractions:
            with mp.workprec(2 * prec):
                q = p / t
            # e^(-q) has condition number |q|: carry its magnitude in bits
            with mp.workprec(wp + max(0, mpmath.mag(q))):
                e = mpmath.exp(-q)
                jq = e * mpmath.e1(-q)
                a = mpmath.arg(q)
                if 0 < a < phi:
                    rot = -two_pi_i * e
                elif phi < a <= 0:
                    rot = two_pi_i * e
                else:
                    rot = 0
                size = abs(jq) + abs(rot)
                if derivative:
                    term = r * ((q - 1) * (jq + rot) + 1) / (t * t)
                    size = abs(r) * (abs(q - 1) * size + 1) / abs(t * t)
                else:
                    term = r * (jq + rot) / t
                    size = abs(r) * size / abs(t)
            total += term
            mass += size
    return total, mass


_KERNEL_FLOOR = mpmath.mpf("1e-20")


def _quadrature_sum(rc, kk, t, ang, decay, derivative, eps, prec):
    """Adaptive Gauss-Legendre Laplace integral of both approximants.

    Returns ``(value, continuation error, quadrature error, tail cut)``.
    """
    theta = mpmath.mpf(rc.direction)
    tmod = abs(t)
    S = tmod * (mpmath.log(1 / _KERNEL_FLOOR) / decay) ** (1 / kk)
    scale = tmod * (1 / decay) ** (1 / kk)
    ray_phase = mpmath.expjpi(theta / mpmath.pi)
    # tau^(k-1) dtau contributes e^(i k theta) s^(k-1) ds along the ray
    full_phase = mpmath.expjpi(kk * theta / mpmath.pi)
    kern_phase = mpmath.mpc(mpmath.cos(ang), mpmath.sin(ang))
    chains_hi = _ray_rows(rc._hi, ray_phase)
    chains_lo = _ray_rows(rc._lo, ray_phase)

    def f(s):
        # one kernel value serves both approximant orders
        z = (s / tmod) ** kk * kern_phase
        w = mpmath.exp(-z) * s ** (kk - 1)
        if derivative:
            w *= z - 1
        w, s = w._mpc_, s._mpf_
        g_hi = _ray_value(chains_hi, s, prec)
        g_lo = _ray_value(chains_lo, s, prec)
        return (mp.make_mpc(mpc_mul(w, g_hi, prec, round_nearest)),
                mp.make_mpc(mpc_mul(w, g_lo, prec, round_nearest)))

    # geometric panels clustered at the kernel scale
    breaks = [mpmath.mpf(0)]
    step = scale / 8
    while breaks[-1] < S:
        breaks.append(min(breaks[-1] + step, S))
        step *= 2
    nodes = _gl_nodes(prec)
    eps = mpmath.mpf(eps)
    i_hi = i_lo = mpmath.mpc(0)
    qerr = mpmath.mpf(0)
    for a, b in zip(breaks, breaks[1:]):
        tol = eps * (b - a) / S / 4
        (v_hi, v_lo), e = _adaptive(f, a, b, _gl_panel(f, a, b, nodes), tol, nodes)
        i_hi += v_hi
        i_lo += v_lo
        qerr += e
    i_hi *= full_phase
    i_lo *= full_phase
    tpk = tmod ** kk * mpmath.mpc(mpmath.cos(kk * mpmath.arg(t)),
                                  mpmath.sin(kk * mpmath.arg(t)))
    if derivative:
        pref = kk ** 2 / (tpk * t)
    else:
        pref = kk / tpk
    # discarded tail beyond the kernel cutoff, included in the budget
    g_tail = max(abs(mp.make_mpc(_ray_value(chains_hi, s._mpf_, prec)))
                 for s in (S, 2 * S))
    tail_err = g_tail * _KERNEL_FLOOR / decay
    if derivative:
        tail_err *= (mpmath.log(1 / _KERNEL_FLOOR) / decay + 1) / tmod
    return (pref * i_hi, float(abs(pref) * abs(i_hi - i_lo)),
            float(abs(pref) * qerr + tail_err), float(S))


def laplace_sum(rc, k, t, derivative=False, eps=1e-16, prec=None,
                max_continuation_error=None):
    """Laplace integral of the continued Borel transform along its ray.

    Computes ``k t^{-k} \\int exp(-(tau/t)^k) g(tau) tau^{k-1} dtau`` over
    ``arg tau = rc.direction`` for both approximants carried by the
    continuation.  Requires ``cos(k*(theta - arg t)) > 0`` (kernel decay
    along the ray).  With ``derivative=True`` returns d/dt of the sum.
    Runs at ``working_prec(prec)``, like every other entry point: an
    explicit ``prec``, else the ambient ``mp.prec`` floored at the default.
    The reported continuation error is the difference of the two
    approximants' sums.  When ``max_continuation_error`` is given and that
    exceeds it, a :class:`ContinuationError` is raised instead of returning
    a silently degraded value.

    For k = 1, when both approximants have only simple nonzero poles, the
    sum is closed-form: each approximant is split into partial fractions
    Q(tau) + sum r/(tau - p) (see ``_closed_form_sum``), Q sums as
    sum q_j j! t^j and each pole as r e^(-q) E1(-q)/t with q = p/t, plus
    -+2 pi i r e^(-q)/t for a pole between arg t and the ray.  Nothing is
    cut off (``tail_cut`` is None), and ``quadrature_error`` is the
    evaluation bound (|Q part| + sum |terms|) 2^(2 - prec), which covers
    rounding to ``prec`` bits.  An ``eps`` below that bound raises
    ``ValueError``.

    Otherwise (k != 1, or a multiple root) adaptive Gauss-Legendre
    integrates the approximants, evaluated on the ray with their
    coefficients rotated onto it, up to where the kernel drops below
    1e-20 (``tail_cut``).  Panels are split until the local refinement
    estimate of the high-order continuation drops below the (length-
    prorated) share of ``eps``; the low order is integrated in the same
    pass on the same nodes.  ``quadrature_error`` is the accumulated
    refinement estimate plus a bound on the discarded tail, taken with the
    larger of ``|g|`` at the cutoff and at twice it, so a transform still
    growing there (a log branch) stays covered.  Differentiation is under
    the integral: one extra ``(tau/t)^k - 1`` factor and prefactor
    ``k^2 t^{-k-1}``.  An ``eps`` below ``2^(8 - prec)``, which rounding at
    the working precision cannot resolve, raises ``ValueError`` before any
    panel is integrated.
    """
    prec = working_prec(prec)
    with mp.workprec(prec):
        t = to_mpc(t)
        if t == 0:
            raise SectorError("cannot sum at t = 0")
        kk = mpmath.mpf(k)
        theta = mpmath.mpf(rc.direction)
        ang = _angdiff(kk * theta, kk * mpmath.arg(t))
        decay = mpmath.cos(ang)
        if not decay > 0.05:
            raise SectorError(
                f"direction/point incompatible: cos(k*(theta-arg t)) = {float(decay):.3f}")
        if kk == 1 and rc._hi.partial_fractions() and rc._lo.partial_fractions():
            v_hi, mass = _closed_form_sum(rc._hi, t, ang, derivative, prec)
            v_lo, _ = _closed_form_sum(rc._lo, t, ang, derivative, prec)
            value = +v_hi
            cont = float(abs(v_hi - v_lo))
            qerr = float(mpmath.ldexp(mass, _CLOSED_FORM_C - prec))
            tail = None
            if not qerr <= eps:
                raise ValueError(f"eps = {float(eps):.3g} is below {qerr:.3g}, the "
                                 f"evaluation bound of the {prec}-bit closed-form sum")
        else:
            if not mpmath.mpf(eps) >= mpmath.ldexp(1, 8 - prec):
                raise ValueError(f"eps = {float(eps):.3g} is below 2^(8 - prec), "
                                 f"which {prec}-bit arithmetic cannot resolve")
            value, cont, qerr, tail = _quadrature_sum(rc, kk, t, ang, decay,
                                                      derivative, eps, prec)
        if max_continuation_error is not None and cont > max_continuation_error:
            raise ContinuationError(
                f"continuation error {cont:.3e} exceeds the tolerance "
                f"{max_continuation_error:.3e}")
        return SumResult(t=t, k=float(k), theta=float(theta), value=value,
                         quadrature_error=qerr, continuation_error=cont,
                         tail_cut=tail, prec=prec)


def p_k_sum(expansion, point, k, theta, prec=None):
    """Germ-k-sum of an expansion at a point: specialize, transform, continue, integrate.

    ``t = P(point)`` must lie within ``pi/(2k) + SECTOR_SLACK`` of the
    requested direction; the Laplace step additionally requires actual
    kernel decay, and takes ``laplace_sum``'s default ``eps``, so a k = 1
    sum whose evaluation bound exceeds 1e-16 is refused with ``ValueError``.
    Every step runs at ``working_prec(prec)``.
    """
    prec = working_prec(prec)
    with mp.workprec(prec):
        t = to_mpc(expansion.germ.p.eval_at(point))
        if t == 0:
            raise SectorError("the germ vanishes at the evaluation point")
        off = abs(_angdiff(mpmath.arg(t), theta))
        if off > mpmath.pi / (2 * mpmath.mpf(k)) + SECTOR_SLACK:
            raise SectorError(
                f"point outside the germ sector: |arg P(x) - theta| = {float(off):.3f} "
                f"> pi/(2k) + {SECTOR_SLACK}")
        spec = OneVarSeries(expansion.specialize(point))
        b = borel_transform(spec, k, prec=prec)
        tmod = abs(t)
        radii = [float(tmod * 2 ** j) for j in range(-1, 4)]
        rc = continue_on_ray(b, theta, radii, prec=prec)
        return laplace_sum(rc, k, t, prec=prec)


# -- singular directions ------------------------------------------------------

@dataclass(frozen=True)
class PoleCluster:
    center: object
    modulus: float
    argument: float
    stability: float
    hits: int

    def to_json(self):
        return {"modulus": self.modulus, "argument": self.argument,
                "stability": self.stability, "hits": self.hits}


@dataclass(frozen=True)
class SingularDirectionReport:
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
    denominator degrees, keeps only poles reproduced (within
    ``DIRECTION_MATCH_REL`` relative distance) at every order, and reports
    the arguments of the cluster centers, deduplicated within 0.05 rad.  An
    empty report means no obstruction was detected (entire Borel
    transform).  Runs at ``working_prec(prec)``.
    """
    coeffs = b.coeffs
    if len(coeffs) < 16:
        raise ValueError("need at least 16 Borel coefficients")
    k = float(k if k is not None else getattr(b, "k", 1.0))
    prec = working_prec(prec)
    with mp.workprec(prec):
        m0 = (len(coeffs) - 1) // 2
        approximants = [b.approximant(m0 - i, prec) for i in range(DIRECTION_ORDERS)]
        clusters = []
        for matched in _stable_poles(approximants, DIRECTION_MATCH_REL):
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
