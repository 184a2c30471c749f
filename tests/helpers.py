"""Shared test utilities: random instances, term-by-term reference arithmetic
and the independent expansion oracle."""
import operator
from fractions import Fraction
from math import factorial

import mpmath
from hypothesis import strategies as st
from mpmath import mp

from germsum.borel import OneVarSeries, _angdiff
from germsum.scalars import QQi, is_exact, sabs, sadd, smul, sneg, to_mpc, working_prec
from germsum.series import MonomialOrder, TruncatedSeries
from germsum.weierstrass import Germ, delta_member


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


def assert_near_reference(results, refs):
    """Each result series agrees with its reference series (the reference terms
    wrapped by the TruncatedSeries constructor).

    Every coefficient, a missing term read as 0, is within
    ``2^(16 - prec) * max|c|`` of the reference, the maximum taken over all
    reference coefficients and prec being the working precision; a coefficient
    is exact exactly where the reference's is, and then equal to it.
    """
    scale = max((sabs(c) for ref in refs for c in ref.terms.values()), default=0)
    tol = scale * mpmath.mpf(2) ** (16 - working_prec())
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


def pole_transform_quad(poles, k, t, theta, derivative=False, double=(), prec=256):
    """The k-sum (or its t-derivative) of ``pole_transform_coeffs``'s series
    by mpmath.quad at ``prec`` bits, with breakpoints at each (|p|/|t|)^k and
    quad's own error estimate below 2^(10 - prec).

    Along tau = |t| v^(1/k) e^(i theta), with d = theta - arg t wrapped to
    (-pi, pi] and w = v e^(i k d), the sum is e^(i k d) int_0^inf e^-w g(tau) dv;
    the derivative takes the factor (k/t)(w - 1) under the integral.
    """
    with mp.workprec(prec):
        kk, t = mpmath.mpf(k), to_mpc(t)
        poles = [(to_mpc(p), to_mpc(r)) for p, r in poles]
        double = [(to_mpc(p), to_mpc(r)) for p, r in double]
        phase = mpmath.expj(kk * _angdiff(theta, mpmath.arg(t)))
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
