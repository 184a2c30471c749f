"""Shared test utilities: random instances, term-by-term reference arithmetic
and the independent expansion oracle."""
import heapq
import math
import operator
from fractions import Fraction
from math import factorial, inf, nextafter

import mpmath
from hypothesis import strategies as st
from mpmath import mp

from germsum.borel import OneVarSeries, _angdiff
from germsum.scalars import QQi, is_exact, sabs, sadd, smul, sneg, to_mpc, working_prec
from germsum.series import MonomialOrder, TruncatedSeries
from germsum.weierstrass import Germ, _t_series, delta_member


def random_series(rng, dim, trunc, max_terms=10, complex_coeffs=False,
                  min_degree=0, nonzero=False):
    terms = {}
    for _ in range(rng.randint(1 if nonzero else 0, max_terms)):
        e = tuple(rng.randint(0, trunc) for _ in range(dim))
        if sum(e) > trunc or sum(e) < min_degree:
            continue
        num = rng.randint(-9, 9)
        if num == 0:
            num = 1
        c = Fraction(num, rng.randint(1, 5))
        if complex_coeffs and rng.random() < 0.5:
            c = QQi(c, Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        terms[e] = c
    if nonzero and not terms:
        terms[(1,) + (0,) * (dim - 1)] = Fraction(1)
    return TruncatedSeries(dim, trunc, terms)


def random_order(rng, dim):
    weights = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(dim)]
    return MonomialOrder(weights, rng.choice(["lex", "revlex"]))


def fixed_germs(dim, trunc):
    """The benchmark germ set, embedded into the requested dimension."""
    pad = (0,) * (dim - 2)
    mk = lambda terms: TruncatedSeries(dim, trunc, {e + pad: c for e, c in terms.items()})
    return [
        ("x1*x2", mk({(1, 1): 1}), MonomialOrder([1] * dim)),
        ("x1^2*x2", mk({(2, 1): 1}), MonomialOrder([1] * dim)),
        ("x2^2-x1^3", mk({(0, 2): 1, (3, 0): -1}),
         MonomialOrder([Fraction(1), Fraction(2)] + [Fraction(1)] * (dim - 2))),
        ("x1^2+x2^2", mk({(2, 0): 1, (0, 2): 1}),
         MonomialOrder([Fraction(1), Fraction(2)] + [Fraction(1)] * (dim - 2))),
    ]


def monomials_upto(dim, bound):
    if dim == 1:
        return [(k,) for k in range(bound + 1)]
    out = []
    for rest in monomials_upto(dim - 1, bound):
        for k in range(bound - sum(rest) + 1):
            out.append((k,) + rest)
    return out


def solve_exact(rows, rhs):
    """Gaussian elimination over the rationals; returns None if inconsistent.

    rows: list of lists (Fraction), rhs: list (Fraction).  Requires full
    column rank (asserts no free pivots among used columns).
    """
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    nrows, ncols = len(m), len(m[0]) - 1
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        scale = m[r][c]
        m[r] = [x / scale for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    # consistency
    for i in range(r, nrows):
        if m[i][ncols] != 0:
            return None
    assert len(pivots) == ncols, "oracle system has free variables"
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        sol[c] = m[i][ncols]
    return sol


def expansion_oracle(f, germ, depth):
    """Independent linear-solve oracle for the germ-power expansion.

    Sets up the linear system  f = sum_{n<depth} g_n P^n + q P^depth
    modulo terms of degree > f.trunc, with g_n supported on cone-avoiding
    monomials m satisfying deg(m + n*lead) <= trunc (the jointly
    determined window) and q on monomials with deg(m + depth*lead) <= trunc,
    and solves it by exact Gaussian elimination.  Returns the list of g_n
    as coefficient dicts.
    """
    trunc = f.trunc
    lead_deg = germ.lead_degree
    p_pows = [TruncatedSeries.one(f.dim, trunc)]
    for _ in range(depth):
        p_pows.append(p_pows[-1] * germ.p)
    unknowns = []
    columns = []
    for n in range(depth + 1):
        bound = trunc - n * lead_deg
        if bound < 0:
            break
        for mexp in monomials_upto(f.dim, bound):
            if n < depth and not delta_member(mexp, germ):
                continue
            col = TruncatedSeries.monomial(mexp, 1, trunc) * p_pows[n]
            unknowns.append((n, mexp))
            columns.append(col.terms)
    exps = monomials_upto(f.dim, trunc)
    rows = [[Fraction(col.get(e, 0)) for col in columns] for e in exps]
    rhs = [Fraction(f.terms.get(e, 0)) for e in exps]
    sol = solve_exact(rows, rhs)
    assert sol is not None, "oracle system inconsistent"
    out = [dict() for _ in range(depth)]
    for (n, mexp), c in zip(unknowns, sol):
        if n < depth and c != 0:
            out[n][mexp] = c
    return out


# -- term-by-term reference arithmetic ------------------------------------------------
#
# Plain dict-of-coefficients algorithms with the scalar operations passed in.
# With the default operators they are an exact reference for any int, Fraction
# or QQi data; passed the sadd/smul/sdiv/sneg funnel they perform the float
# operations in the order the library's funnel path performs them.

def exact_div(a, b):
    return (a * Fraction(1)) / b  # int / int would give a float


def nonzero(terms):
    return {e: c for e, c in terms.items() if c != 0}


def ref_mul(ta, tb, trunc, add=operator.add, mul=operator.mul):
    """Truncated product: the smaller operand outer, both in dict order."""
    if len(ta) > len(tb):
        ta, tb = tb, ta
    out = {}
    for ea, ca in ta.items():
        for eb, cb in tb.items():
            e = tuple(map(operator.add, ea, eb))
            if sum(e) <= trunc:
                c = mul(ca, cb)
                out[e] = add(out[e], c) if e in out else c
    return out


def ref_substitute(f_terms, image_terms, out_trunc, add=operator.add, mul=operator.mul):
    """sum over the terms of f (sorted) of c * prod_i image_i^k_i, powers by repeated products."""
    one = (0,) * len(next(iter(image_terms[0])))
    acc = {}
    for e in sorted(f_terms):
        piece = {one: f_terms[e]}
        for img, k in zip(image_terms, e):
            if k:
                power = {one: 1}
                for _ in range(k):
                    power = ref_mul(power, img, out_trunc, add, mul)
                piece = ref_mul(piece, power, out_trunc, add, mul)
        for e2, c in piece.items():
            acc[e2] = add(acc[e2], c) if e2 in acc else c
    return acc


def ref_eval(terms, point, add=operator.add, mul=operator.mul):
    """sum over the terms (sorted) of c * prod_i x_i^k_i, each power by repeated products."""
    total = 0
    for e in sorted(terms):
        piece = terms[e]
        for x, k in zip(point, e, strict=True):
            for _ in range(k):
                piece = mul(piece, x)
        total = add(total, piece)
    return total


def assert_near_reference(results, refs, margin=16):
    """Each result series agrees with its reference series (the reference terms
    wrapped by the TruncatedSeries constructor).

    Every coefficient, a missing term read as 0, is within
    ``2^(margin - prec) * max|c|`` of the reference, the maximum taken over all
    reference coefficients and prec being the working precision; a coefficient
    is exact exactly where the reference's is, and then equal to it.
    """
    scale = max((sabs(c) for ref in refs for c in ref.terms.values()), default=0)
    tol = scale * mpmath.mpf(2) ** (margin - working_prec())
    for out, ref in zip(results, refs, strict=True):
        assert (out.dim, out.trunc) == (ref.dim, ref.trunc)
        for e in set(out.terms) | set(ref.terms):
            a, b = out.terms.get(e), ref.terms.get(e)
            if a is not None and b is not None and is_exact(b):
                assert is_exact(a) and a == b, (e, a, b)
                continue
            assert not any(is_exact(c) for c in (a, b) if c is not None), (e, a, b)
            diff = sadd(0 if a is None else a, sneg(0 if b is None else b))
            assert sabs(diff) <= tol, (e, a, b)


def ref_t_substitute(expansion):
    """sum g_n P^n at T = min(expansion.trunc, P.trunc) on dict arithmetic: the terms of
    G(x, t) = sum g_n(x) t^n substituted with (x_1, ..., x_d, P) by :func:`ref_substitute`
    on the s* funnel at 4 times the working precision, so exact data come out exact
    (as Fractions when every coefficient is an int or a Fraction, as the kernel
    normalises them) and float data with negligible rounding of their own."""
    germ = expansion.germ
    dim, trunc = germ.dim, max(min(expansion.trunc, germ.p.trunc), -1)
    xs = [{tuple(int(k == i) for k in range(dim)): 1} for i in range(dim)]
    g = _t_series(expansion).terms
    with mp.workprec(4 * working_prec()):
        terms = ref_substitute(g, xs + [germ.p.terms], trunc, sadd, smul)
    if all(isinstance(c, (int, Fraction)) for c in list(g.values()) + list(germ.p.terms.values())):
        terms = {e: Fraction(c) for e, c in terms.items()}
    return TruncatedSeries(dim, trunc, terms)


def ref_order_key(weights, tiebreak):
    """(weighted degree with Fraction weights, degree, tiebreak) written out afresh."""
    ws = [Fraction(w) for w in weights]

    def key(e):
        tie = tuple(-k for k in (e if tiebreak == "lex" else reversed(e)))
        return (sum(w * k for w, k in zip(ws, e)), sum(e), tie)
    return key


def ref_wdivide(g_terms, p_terms, key, trunc, add=operator.add, mul=operator.mul,
                div=exact_div, neg=operator.neg):
    """Cancel the key-minimal in-cone term (found by a scan) until none is left."""
    lead = min(p_terms, key=key)
    lc = p_terms[lead]
    rem, quot = dict(g_terms), {}
    while True:
        cone = [e for e in rem if all(a >= b for a, b in zip(e, lead))]
        if not cone:
            return quot, rem
        e = min(cone, key=key)
        m = tuple(a - b for a, b in zip(e, lead))
        factor = quot[m] = div(rem.pop(e), lc)
        for be, bc in p_terms.items():
            e2 = tuple(map(operator.add, m, be))
            if be == lead or sum(e2) > trunc:
                continue
            delta = mul(factor, neg(bc))
            c = add(rem[e2], delta) if e2 in rem else delta
            if c == 0:
                rem.pop(e2, None)
            else:
                rem[e2] = c


def ref_p_expand(f_terms, p_terms, key, trunc, depth, add=operator.add, mul=operator.mul,
                 div=exact_div, neg=operator.neg):
    """(truncation, remainder) of ``depth`` reference divisions, each of the
    previous quotient."""
    lead_degree = sum(min(p_terms, key=key))
    coeffs, cur = [], f_terms
    for _ in range(depth):
        cur, rem = ref_wdivide(cur, p_terms, key, trunc, add, mul, div, neg)
        coeffs.append((trunc, rem))
        trunc = max(trunc - lead_degree, -1)
    return coeffs


def magnitude(c):
    """|c| rounded up to a float, as an exact Fraction."""
    with mp.workprec(2 * working_prec()):
        return Fraction(nextafter(float(abs(to_mpc(c))), inf))


def ref_mass_expand(f_terms, p_terms, key, trunc, depth):
    """Levels 0..depth-1 of the elimination by P - t run on magnitudes, exactly,
    with Fractions: f's terms as |c|, P's tail as |b/lc| and t's coefficient as
    |1/lc|, each rounded up to a float (:func:`magnitude`), so that every step
    adds and nothing cancels.  The terms of level n bound the masses the float
    elimination carries: the size of what each of its terms is made of.  Each
    level is the remainder of one division by P, each of the previous quotient,
    in the key order of ``ref_wdivide`` (written with a heap, as the depth-24
    inputs are too large for its scan)."""
    lead = min(p_terms, key=key)
    with mp.workprec(2 * working_prec()):
        lc = to_mpc(p_terms[lead])
        inv = magnitude(1 / lc)
        tail = [(e, magnitude(to_mpc(c) / lc)) for e, c in p_terms.items() if e != lead]

    def in_cone(e):
        return all(a >= b for a, b in zip(e, lead))

    levels, cur = [], {e: magnitude(c) for e, c in f_terms.items()}
    for _ in range(depth):
        rem, quot = dict(cur), {}
        heap = [(key(e), e) for e in rem if in_cone(e)]
        heapq.heapify(heap)
        while heap:
            e = heapq.heappop(heap)[1]
            c = rem.pop(e)
            m = tuple(a - b for a, b in zip(e, lead))
            quot[m] = c * inv
            for be, b in tail:
                e2 = tuple(map(operator.add, m, be))
                if sum(e2) > trunc:
                    continue
                if e2 not in rem and in_cone(e2):
                    heapq.heappush(heap, (key(e2), e2))
                rem[e2] = rem.get(e2, 0) + c * b
        levels.append(rem)
        cur, trunc = quot, max(trunc - sum(lead), -1)
    return levels


# -- hypothesis strategies for the series kernel --------------------------------------

COPRIME_DENS = (1, 7, 11, 13, 17, 19)
LEAD_COEFFS = (Fraction(9, 4), Fraction(-7, 3), 1, -5)
WEIGHTS = (1, 2, Fraction(3, 2), Fraction(2, 3), Fraction(5, 4))
# (dimension, truncation) pairs the properties draw from
SHAPES = ((2, 8), (3, 5))


@st.composite
def exact_coeffs(draw, qqi=False):
    """A nonzero int or Fraction over one of COPRIME_DENS; with qqi, sometimes a QQi."""
    num = draw(st.integers(-40, 40).filter(bool))
    den = draw(st.sampled_from(COPRIME_DENS))
    c = num if den == 1 else Fraction(num, den)
    if qqi and draw(st.booleans()):
        c = QQi(c, Fraction(draw(st.integers(-9, 9)), draw(st.sampled_from(COPRIME_DENS))))
    return c


# a complex float with full mantissas, by which exact coefficients are turned into mpc
with mpmath.mp.workprec(working_prec()):
    LAM = mpmath.mpc(mpmath.mpf(9) / 10, mpmath.mpf(-1) / 7)


@st.composite
def mixed(draw, series):
    """``series`` with each coefficient kept exact (int, Fraction or QQi) or turned
    into an mpc, at random."""
    return TruncatedSeries(series.dim, series.trunc,
                           {e: smul(c, LAM) if draw(st.booleans()) else c
                            for e, c in series.terms.items()})


@st.composite
def points(draw, dim, qqi=False, floats=False):
    """dim coordinates, each 0 or an :func:`exact_coeffs` scalar over 40 (of modulus
    about 1 at most); with floats, each kept exact or turned into an mpc at random."""
    point = []
    for _ in range(dim):
        x = smul(draw(exact_coeffs(qqi)), Fraction(1, 40)) if draw(st.booleans()) else 0
        point.append(smul(x, LAM) if floats and draw(st.booleans()) else x)
    return tuple(point)


@st.composite
def exponents(draw, dim, top, min_degree=0):
    e, left = [], top
    for _ in range(dim):
        k = draw(st.integers(0, left))
        e.append(k)
        left -= k
    if sum(e) < min_degree:
        e[0] += min_degree - sum(e)
    return tuple(draw(st.permutations(e)))


@st.composite
def exact_series(draw, dim, trunc, top=None, qqi=False, min_degree=0, min_terms=0,
                 max_terms=12):
    """A series with terms of degree min_degree..top (default trunc) at truncation trunc."""
    exps = draw(st.lists(exponents(dim, trunc if top is None else top, min_degree),
                         min_size=min_terms, max_size=max_terms, unique=True))
    return TruncatedSeries(dim, trunc, {e: draw(exact_coeffs(qqi)) for e in exps})


@st.composite
def exact_germs(draw, dim, trunc, qqi=False):
    """A germ of degree <= 3 with a non-unit lead coefficient and non-integer weights."""
    weights = [draw(st.sampled_from(WEIGHTS)) for _ in range(dim)]
    tiebreak = draw(st.sampled_from(("lex", "revlex")))
    p = draw(exact_series(dim, trunc, top=3, qqi=qqi, min_degree=1, min_terms=1,
                          max_terms=5))
    terms = dict(p.terms)
    terms[min(terms, key=ref_order_key(weights, tiebreak))] = draw(st.sampled_from(LEAD_COEFFS))
    return Germ(TruncatedSeries(dim, trunc, terms), MonomialOrder(weights, tiebreak))


@st.composite
def mixed_germs(draw, dim, trunc):
    """An :func:`exact_germs` germ with QQi terms and some terms, the lead too, as mpc."""
    germ = draw(exact_germs(dim, trunc, qqi=True))
    return Germ(draw(mixed(germ.p)), germ.order)


def euler_borel_series(n_coeffs):
    """Coefficients of sum_{m>=0} m! t^(m+1), the Euler series, as a Borel input."""
    return OneVarSeries([0] + [factorial(m) for m in range(n_coeffs - 1)])


def pole_transform_coeffs(poles, k, n, prec, double=()):
    """a_0..a_{n-1} at ``prec`` bits of the k-sum whose order-k Borel
    transform is sum r p/(p - tau) over ``poles`` plus sum r p^2/(p - tau)^2
    over ``double``: a_m = Gamma(1 + m/k) (sum r p^-m + sum r (m + 1) p^-m)."""
    with mp.workprec(prec):
        kk = mpmath.mpf(k)
        poles = [(to_mpc(p), to_mpc(r)) for p, r in poles]
        double = [(to_mpc(p), to_mpc(r)) for p, r in double]
        return [mpmath.gamma(1 + m / kk)
                * (sum(r * p ** -m for p, r in poles)
                   + sum(r * (m + 1) * p ** -m for p, r in double)) for m in range(n)]


# The largest |k d| at which pole_transform_quad meets its target: on 40
# random pole sets per |k d| (k in {1/2, 1, 3/2, 2, 3}, 1-4 poles at least
# 0.3 rad off the ray, |t| in 0.05-0.4) at 256 bits, quad's estimate stayed
# below 2^(10 - prec) in all 40 at 1.35 and missed it in 13 at 1.37, 34 at
# 1.39 and 39 at 1.45; beyond 1.35 the kernel e^(-v e^(i k d)) decays as
# e^(-0.22 v) or slower, and oscillates.
QUAD_MAX_KD = 1.35


def pole_transform_quad(poles, k, t, theta, derivative=False, double=(), prec=256):
    """The k-sum (or its t-derivative) of ``pole_transform_coeffs``'s series
    by mpmath.quad at ``prec`` bits, with breakpoints at each (|p|/|t|)^k and
    quad's own error estimate below 2^(10 - prec).

    Along tau = |t| v^(1/k) e^(i theta), with d = theta - arg t wrapped to
    [-pi, pi) and w = v e^(i k d), the sum is e^(i k d) int_0^inf e^-w g(tau) dv;
    the derivative takes the factor (k/t)(w - 1) under the integral.  Beyond
    |k d| = ``QUAD_MAX_KD`` the quadrature misses that target, and the point
    is refused with ``ValueError``.
    """
    with mp.workprec(prec):
        kk, t = mpmath.mpf(k), to_mpc(t)
        kd = kk * _angdiff(theta, mpmath.arg(t))
        if abs(kd) > QUAD_MAX_KD:
            raise ValueError(f"|k·d| = {float(abs(kd)):.4g} lies beyond {QUAD_MAX_KD}, "
                             "where mpmath.quad misses 2^(10 - prec)")
        poles = [(to_mpc(p), to_mpc(r)) for p, r in poles]
        double = [(to_mpc(p), to_mpc(r)) for p, r in double]
        phase = mpmath.expj(kd)
        ray, tm = mpmath.expj(mpmath.mpf(theta)), abs(t)

        def f(v):
            tau = tm * v ** (1 / kk) * ray
            g = (sum(r * p / (p - tau) for p, r in poles)
                 + sum(r * p ** 2 / (p - tau) ** 2 for p, r in double))
            w = v * phase
            return mpmath.exp(-w) * g * ((w - 1) if derivative else 1)

        cuts = sorted({(abs(p) / tm) ** kk for p, _ in poles + double})
        value, err = mpmath.quad(f, [0] + cuts + [mpmath.inf], maxdegree=10, error=True)
        # the default maxdegree can stop short, near 1e-68, with no error raised
        assert err < mpmath.ldexp(1, 10 - prec)
        value *= phase
        return value * kk / t if derivative else value


def _unit_pole_jet(sigma, a, b, d):
    """(F, F', F'') at sigma for F(sigma) = int k s^(k-1) e^(-s^k) sigma/(sigma - s) ds
    along arg s = d, k = a/b, |k d| < pi/2, sigma off that ray, by mpmath alone.

    Along s > 0, F = -sigma K with K = int e^-x/(x^(1/k) - sigma) dx; the b
    roots rho_j of rho^b = sigma split 1/(y^b - sigma), y = x^(1/a), and
    1/(y - rho_j) = sum_m rho_j^(a-1-m) y^m/(x - rho_j^a), so
    K = sum_jm rho_j^(a-b-m)/b I_s(z_j) with s = 1 + m/a, z_j = -rho_j^a and
    I_s(z) = int x^(s-1) e^-x/(x + z) dx = Gamma(s) e^z z^(s-1) Gamma(1 - s, z)
    (DLMF 8.6.4; E1 at s = 1).  The sigma-derivatives follow from
    z I_s'(z) = (z + s - 1) I_s(z) - Gamma(s) and dz_j/dsigma = k z_j/sigma.
    Turning the ray from 0 to d crosses the pole when arg sigma lies between
    them: -+2 pi i times its residue -k sigma^k e^(-sigma^k).  A real
    sigma > 0 sits on the cut of the s > 0 form and is taken as arg sigma = -0.
    """
    k = mpmath.mpf(a) / b
    g = [0, 0, 0]   # -K, -K', -K''
    for j in range(b):
        rho = mpmath.root(sigma, b, j)
        z = -rho ** a
        for m in range(a):
            s, e = 1 + mpmath.mpf(m) / a, mpmath.mpf(a - b - m) / b
            gs = mpmath.gamma(s)
            i_s = gs * mpmath.exp(z) * z ** (s - 1) * mpmath.gammainc(1 - s, z)
            c = rho ** (a - b - m) / b
            zi = (z + s - 1) * i_s - gs     # z I_s'(z)
            lead = e * i_s + k * zi         # sigma T'/c of the term T = c I_s
            g[0] -= c * i_s
            g[1] -= c / sigma * lead
            g[2] -= c / sigma ** 2 * ((e - 1) * lead + k * k * z * i_s
                                      + (e + k * (z + s - 1)) * k * zi)
    f = [sigma * g[0], g[0] + sigma * g[1], 2 * g[1] + sigma * g[2]]
    x = sigma ** k
    step = k / sigma * (1 - x)
    j0 = 2j * mpmath.pi * k * x * mpmath.exp(-x)
    jump = [j0, step * j0, (-(k / sigma ** 2) * (1 - x) - k * k * x / sigma ** 2) * j0
            + step * step * j0]
    if sigma.imag == 0:
        f = [mpmath.re(v) + jv / 2 for v, jv in zip(f, jump)]
    if d > 0 and sigma.imag > 0 and mpmath.arg(sigma) < d:
        f = [v + jv for v, jv in zip(f, jump)]
    elif d < 0 and sigma.imag <= 0 and mpmath.arg(sigma) > d:
        f = [v - jv for v, jv in zip(f, jump)]
    return f


def pole_transform_closed(poles, k, t, theta, derivative=False, double=(), prec=256):
    """``pole_transform_quad``'s sum in closed form at ``prec`` bits: mpmath's
    incomplete gammas at the exact poles, no germsum code.

    With sigma = p/t the term of r p/(p - tau) is r F(sigma)
    (``_unit_pole_jet``), that of r p^2/(p - tau)^2 = (1 - p d/dp) p/(p - tau)
    is r (F - sigma F'), and d/dt takes -sigma/t d/dsigma: -r sigma F'/t and
    r sigma^2 F''/t.
    """
    a, b = Fraction(k).numerator, Fraction(k).denominator
    with mp.workprec(prec):
        t = to_mpc(t)
        d = _angdiff(theta, mpmath.arg(t))
        total = 0
        for p, r in poles:
            sigma = to_mpc(p) / t
            f, f1, _ = _unit_pole_jet(sigma, a, b, d)
            total += to_mpc(r) * (-sigma / t * f1 if derivative else f)
        for p, r in double:
            sigma = to_mpc(p) / t
            f, f1, f2 = _unit_pole_jet(sigma, a, b, d)
            total += to_mpc(r) * (sigma ** 2 / t * f2 if derivative else f - sigma * f1)
        return total


# -- reference Pade solve and root finder ---------------------------------------
# The plain-order Toeplitz elimination and the Durand-Kerner iteration that
# sweeps every root until a sweep's moves all lie below the target, as the
# library ran them before the bordered elimination and the sweeps of moving
# roots only: the references that the library's lower approximants, ranks
# and roots are pinned to.

def plain_toeplitz_solve(a, n, m, w, bits):
    """``(rank, x)`` of the [n/m] denominator system, eliminated column by
    column in the plain order (x_1 first) over all rows at ||A||_1 2^bits."""
    from germsum.borel import _ROW_GUARD, _place, _submul_at
    from germsum.scalars import gi_abs, gi_div, gi_mag
    if m == 0:
        return 0, []
    top = max(gi_mag(x) for x in a[n + 1 - m:n + m])
    if top == -inf:
        return 0, None
    mags = [[gi_abs(a[n + j - i], top) for i in range(m)] for j in range(m)]
    tol = math.ldexp(max(sum(col) for col in zip(*mags)), bits)
    width = w + _ROW_GUARD
    cut = max(0, width + 2 * _ROW_GUARD - 960)
    unit = 1 << cut
    rows, exps = [], []
    for j in range(m):
        entries = [a[n + j - i] for i in range(m)] + [a[n + 1 + j]]
        e = max(gi_mag(x) for x in entries[:m])
        e = e - width if e != -inf else 0
        rows.append([_place(x, e) for x in entries])
        exps.append(e)
    rank = 0
    for j in range(m):
        best, piv = 0.0, None
        for k in range(rank, m):
            s = math.fsum(mags[k][j:])
            if s > tol and mags[k][j] / s > best:
                best, piv = mags[k][j] / s, k
        if piv is None or mags[piv][j] <= tol:
            continue
        for lst in (rows, exps, mags):
            lst[rank], lst[piv] = lst[piv], lst[rank]
        head = rows[rank][j + 1:]
        hr, hi = rows[rank][j]
        d = hr * hr + hi * hi
        frac = max(max(abs(x), abs(y)) for x, y in head).bit_length() + 2
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
            big = max(mag[j + 1:], default=0.0)
            if big:
                s = math.frexp(big)[1] + top - e - width
                if s < -_ROW_GUARD or s > _ROW_GUARD:
                    row[j + 1:] = [_place((x, y, e), e + s) for x, y in row[j + 1:]]
                    exps[k] = e + s
        rank += 1
    if rank < m:
        return rank, None
    q = [None] * m
    for j in range(m - 1, -1, -1):
        row, e = rows[j], exps[j]
        acc = row[m]
        for k in range(j + 1, m):
            acc = _submul_at(acc, (*row[k], e), q[k], e)
        q[j] = gi_div((*acc, e), (*row[j], e), w)
    return m, q


def _sweep_all(roots, monic, s):
    one, moves = 1 << s, []
    for i, (pr, pi) in enumerate(roots):
        fr, fi = one, 0
        for cr, ci in monic:
            fr, fi = ((fr * pr - fi * pi) >> s) + cr, ((fr * pi + fi * pr) >> s) + ci
        dr, di = one, 0
        for j, (qr, qi) in enumerate(roots):
            if j != i and (pr != qr or pi != qi):
                qr, qi = pr - qr, pi - qi
                dr, di = (dr * qr - di * qi) >> s, (dr * qi + di * qr) >> s
        n = dr * dr + di * di or 1
        sr, si = ((fr * dr + fi * di) << s) // n, ((fi * dr - fr * di) << s) // n
        roots[i] = (pr - sr, pi - si)
        moves.append(sr * sr + si * si)
    return moves


def sweep_all_durand_kerner(poly, prec):
    """Every root of a kernel polynomial (highest degree first), each sweep
    moving every root, as ``transforms._durand_kerner`` takes it."""
    from germsum.scalars import gi_div, gi_mag, gi_width
    from germsum.transforms import _DK_NARROW, _DK_SWEEPS, _float_seeds, _snap
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
    s, unit2, last = narrow - e, 1 << -2 * narrow, None
    narrow_monic = [(re >> s, im >> s) for re, im in monic]
    for _ in range(_DK_SWEEPS):
        moves = _sweep_all(roots, narrow_monic, -narrow)
        above = sum(m << _DK_NARROW >= max(unit2, zr * zr + zi * zi)
                    for m, (zr, zi) in zip(moves, roots))
        if not above or last and above >= last[0] and max(moves) >= last[1]:
            break
        last = above, max(moves)
    roots = [(re << s, im << s) for re, im in roots]
    limit, calm = 1 << max(0, 2 * (tol - e)), None
    for _ in range(_DK_SWEEPS):
        moves = _sweep_all(roots, monic, -e)
        if all(m < limit for m in moves):
            break
        if calm is None or max(moves) < calm[0]:
            calm = max(moves), list(roots)
    else:
        roots = calm[1]
    return [_snap((re, im, e), tol) for re, im in roots]
