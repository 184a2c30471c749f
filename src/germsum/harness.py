"""Canned example series and formal/numeric verification of their equations.

Three generator names are understood:

* ``remark79`` - the double series ``sum n! x2^(2n) (x1 x2)^n`` together
  with the monomial germ ``x1*x2``; its pullbacks through the two
  distinguished blow-up charts display Gevrey orders (1, 1/2, 1).
* ``ode-euler`` - ``y = sum m! P^(m+1)`` with ``P = x^2 - eps^2``, the
  divergent formal solution of ``P^2 y' = P' y - P P'`` (derivative in x).
* ``pde-quasihom`` - ``f = x1 sum n! P^(n+1)`` with ``P = x2^2 - x1^3``,
  a formal solution of the first-order PDE with coefficients built from
  ``x2 dP/dx2`` and ``x1 dP/dx1`` (parameters alpha=0, beta=1, k=1).

The formal verifiers evaluate the differential equations in exact
arithmetic on the stored polynomial representatives at a raised working
truncation, so residual valuations (which sit above the generator's
truncation) are visible and reported.  The numeric verifier sums the
germ expansions of y and dy/dx with ``p_k_sum`` at points of a P-sector
and checks the two-variable equation there, each residual gated by the
errors the two sums report.  :func:`verify_example` runs one example's
checks and decides whether it passes: it is ``germsum verify``.
"""
from __future__ import annotations

import cmath
import numbers
import random
from fractions import Fraction
from math import factorial

from mpmath import mp

from .borel import _germ_borel, p_k_sum, singular_directions
from .errors import GermsumError
from .gevrey import fit_gevrey, norm_sequence
from .scalars import Record, integer_arg, to_mpc, working_prec
from .series import MonomialOrder, TruncatedSeries, substitute, v_ell
from .transforms import INFINITY, blowup
from .weierstrass import Germ, PExpansion, p_expand, wdivide

# Each example's germ P, exponent -> coefficient.
_GERMS = {"remark79": {(1, 1): 1}, "ode-euler": {(2, 0): 1, (0, 2): -1},
          "pde-quasihom": {(0, 2): 1, (3, 0): -1}}
EXAMPLE_NAMES = tuple(_GERMS)
# Truncation each example's verification runs at when none is given.
_VERIFY_TRUNC = {"remark79": 212, "ode-euler": 64, "pde-quasihom": 25}
# Cap on each germ sum's quadrature error in the numeric ODE check.
ODE_NUMERIC_EPS = 1e-18
# Polydisk radius of the numeric ODE check's sector points: |P| < 2 * 0.4^2.
ODE_SECTOR_RADIUS = 0.4
# Monomial order dividing the PDE left-hand side by x2 * dP/dx2 * P.
PDE_ORDER = MonomialOrder((2, 3))


class ExampleData(Record):
    name: str
    f: TruncatedSeries
    p: TruncatedSeries
    order: MonomialOrder
    notes: dict


def gen_example(name, trunc):
    """Exact generator for the named example series, to the requested order.

    A truncation that cuts a term of the example's germ (a negative one
    included) raises ``ValueError``.
    """
    if name not in _GERMS:
        raise ValueError(f"unknown example {name!r}; choose from {EXAMPLE_NAMES}")
    n = integer_arg(trunc, "truncation")
    p = TruncatedSeries(2, n, _GERMS[name])
    if p.terms != _GERMS[name]:
        raise ValueError(f"truncation {n} cuts the {name} germ {_GERMS[name]}")
    if name == "remark79":
        terms = {}
        m = 0
        while 4 * m <= n:
            terms[(m, 3 * m)] = Fraction(factorial(m))
            m += 1
        f = TruncatedSeries(2, n, terms)
        return ExampleData(name, f, p, MonomialOrder((1, 1)), {})
    if name == "ode-euler":
        # y(P) for y = sum_{m < n//2} m! t^(m+1): the summands of degree <= n
        y = TruncatedSeries(1, n // 2, {(m + 1,): factorial(m) for m in range(n // 2)})
        f = substitute(y, [p], out_trunc=p.trunc)
        return ExampleData(name, f, p, MonomialOrder((1, 1)), {})
    # x1 * y(P) for y = sum_{m < depth} m! t^(m+1): every summand x1 m! P^(m+1) of
    # lowest degree 2m + 3 <= n, held to the truncation n
    depth = (n - 1) // 2
    y = TruncatedSeries(2, depth + 1, {(1, m + 1): factorial(m) for m in range(depth)})
    f = substitute(y, [TruncatedSeries.variable(0, 2, n), p], out_trunc=n)
    return ExampleData(name, f, p, MonomialOrder((2, 3)),
                       {"alpha": 0, "beta": 1, "k": 1, "depth": depth})


def verify_example(name, trunc=None):
    """Run the named example's checks at ``trunc`` (its default when None):
    the report ``germsum verify`` prints, ``"pass"`` last.

    * remark79: Gevrey fits of the expansions in powers of x1*x2 directly
      and through the blow-up charts at 0 and infinity, each within 0.1 of
      its expected order (1, 1/2, 1);
    * ode-euler: the formal residual vanishes to the truncation, the
      numeric residuals lie below 1e-8 and within their bounds, and the
      singular directions of y's Borel series at the first sample point
      include one within 0.05 of 0;
    * pde-quasihom: the left-hand side is divisible by the stated right
      side with cofactor x1.
    """
    out = {"name": name}
    ex = gen_example(name, _VERIFY_TRUNC.get(name) if trunc is None else trunc)
    if name == "remark79":
        cases = {
            "direct": (ex.f, ex.p, 41, 1.0),
            "b0": (blowup(ex.f, 0), blowup(ex.p, 0), 61, 0.5),
            "binf": (blowup(ex.f, INFINITY), blowup(ex.p, INFINITY), 41, 1.0),
        }
        fits = {}
        for label, (f, p, depth, expected) in cases.items():
            est = fit_gevrey(norm_sequence(p_expand(f, Germ(p, ex.order), depth), Fraction(1, 2)), 5)
            fits[label] = fit = est.to_json()
            fit["expected"] = expected
            fit["pass"] = abs(est.s - expected) <= 0.1
        out["fits"] = fits
        ok = all(fit["pass"] for fit in fits.values())
    elif name == "ode-euler":
        formal = verify_ode_formal(ex.f, ex.p)
        numeric = verify_ode_numeric(ex.f, ex.p, ex.order, cmath.pi, 3)
        # y's Borel series at the first sample point, the one its sums share
        report = singular_directions(_germ_borel(numeric.details["expansion"],
                                                 numeric.details["sample"].points[0], 1,
                                                 working_prec()), 1)
        out["formal"] = formal.to_json()
        out["numeric"] = numeric.to_json()
        out["singular_directions"] = report.to_json()
        ok = (formal.exact_to_truncation
              and numeric.numeric_max_residual < 1e-8
              and all(s["residual"] <= s["bound"] for s in numeric.details["samples"])
              and any(abs(d) < 0.05 for d in report.directions))
    else:
        report, _ = verify_pde_formal(ex.f, ex.p, ex.notes["alpha"],
                                      ex.notes["beta"], ex.notes["k"])
        out["formal"] = report.to_json()
        ok = (report.details["divisible_by_stated_rhs"]
              and report.details["cofactor_is_x1"])
    out["pass"] = ok
    return out


class ResidualReport(Record):
    """Outcome of a formal or numeric equation check."""
    formal_valuation: object = None
    exact_to_truncation: object = None
    numeric_max_residual: object = None
    details: dict = dict

    def to_json(self):
        return {
            "formal_valuation": self.formal_valuation,
            "exact_to_truncation": self.exact_to_truncation,
            "numeric_max_residual": self.numeric_max_residual,
            "details": {k: v for k, v in self.details.items()
                        if not isinstance(v, (TruncatedSeries, PExpansion, PSectorSample))},
        }


def verify_ode_formal(y, p):
    """Exact residual of P^2 dy/dx - P' y + P P' (derivative in the first variable).

    Inputs are treated as exact polynomial data; the computation runs at a
    raised truncation so the genuine residual valuation of a truncated
    solution shows up (it grows linearly with the generation depth).
    """
    work = y.trunc + 2 * (p.degree() or 0) + 2
    yl = y.with_trunc(work)
    pl = p.with_trunc(work)
    dp = pl.differentiate(0)
    residual = pl * pl * yl.differentiate(0) - dp * yl + pl * dp
    val = residual.valuation()
    return ResidualReport(
        formal_valuation=val,
        exact_to_truncation=(val is None or val > y.trunc),
        details={"trunc": y.trunc, "work_trunc": work,
                 "residual_terms": len(residual.terms)})


def verify_pde_formal(f, p, alpha, beta, k):
    """Compute the PDE left-hand side exactly and factor the stated right side.

    Returns ``(report, h)`` where h is the computed left-hand side
    ``(x2 P_2 + alpha P^(k+1)) x1 f_1 - (x1 P_1 + beta P^(k+1)) x2 f_2``
    (subscripts = partial derivatives).  The report records whether h is
    exactly divisible by ``x2 * dP/dx2 * P`` (Weierstrass division under
    :data:`PDE_ORDER`) on every weight of h the truncation of f determines
    (a remainder term beyond them is not judged), the cofactor series of
    that division, whether the cofactor is exactly x1 on every weight the
    truncation of f determines (``cofactor_is_x1``: the equation
    ``h = x1 x2 P_2 P`` the pde-quasihom series satisfies), and whether it
    is the constant 1 (the form the equation is usually quoted with); a
    cofactor other than 1 is flagged as a discrepancy rather than silently
    absorbed.
    """
    deg_p = p.degree() or 1
    work = f.trunc + (int(k) + 2) * deg_p + 4
    fl = f.with_trunc(work)
    pl = p.with_trunc(work)
    x1 = TruncatedSeries.variable(0, f.dim, work)
    x2 = TruncatedSeries.variable(1, f.dim, work)
    p_pow = pl ** (int(k) + 1)
    coeff1 = x2 * pl.differentiate(1) + p_pow * Fraction(alpha)
    coeff2 = x1 * pl.differentiate(0) + p_pow * Fraction(beta)
    h = coeff1 * (x1 * fl.differentiate(0)) - coeff2 * (x2 * fl.differentiate(1))

    stated = x2 * pl.differentiate(1) * pl
    if stated.is_zero:
        raise GermsumError("stated right-hand side x2*dP/dx2*P vanishes")
    divisor = Germ(stated, PDE_ORDER)
    division = wdivide(h, divisor)
    cofactor = division.q
    # f is known on the weights below (f.trunc + 1) * min(weights); x_i d/dx_i keeps
    # weights, so h is known below that plus the least weight of coeff1 and coeff2:
    # a remainder term there is a true remainder, and a cofactor term of weight w is
    # fixed by the terms of h up to w + weight(lead)
    weight = divisor.order.weight
    known_h = ((f.trunc + 1) * min(divisor.order.weights)
               + min((weight(e) for c in (coeff1, coeff2) for e in c.terms), default=0))
    divisible = all(weight(e) >= known_h for e in division.r.terms)
    certified = known_h - weight(divisor.lead_exp)
    known = {e: c for e, c in cofactor.terms.items() if weight(e) < certified}
    is_stated_form = cofactor.terms == {(0,) * f.dim: 1}
    lead = None
    if not cofactor.is_zero:
        le = v_ell(cofactor, divisor.order)
        lead = {"exp": list(le), "coeff": str(cofactor.terms[le])}
    report = ResidualReport(
        formal_valuation=h.valuation(),
        exact_to_truncation=divisible,
        details={
            "divisible_by_stated_rhs": divisible,
            "cofactor_leading_term": lead,
            "cofactor": cofactor,
            "cofactor_is_x1": known == {(1,) + (0,) * (f.dim - 1): 1},
            "stated_form_matches": is_stated_form,
            "stated_form_discrepancy": divisible and not is_stated_form,
            "remainder_terms": len(division.r.terms),
        })
    return report, h


def verify_ode_numeric(y, p, order, theta, points):
    """Check P^2 dy/dx - P' y + P P' = 0 on the germ sums of y and dy/dx.

    y and its derivative in the first variable are expanded in powers of
    the germ ``(p, order)`` to the deepest level whose ``reliable_order``
    is not negative, and summed with ``p_k_sum`` (k = 1) along ``theta`` at
    ``points`` seeded points of the P-sector ``|arg P - theta| < 1/2``
    within the polydisk of radius :data:`ODE_SECTOR_RADIUS`.  Each sample
    records P there (``t``), its residual and the
    ``bound = |P|^2 * total_error(dy/dx) + |P'| * total_error(y)`` the two
    sums imply; a sum whose quadrature error exceeds
    :data:`ODE_NUMERIC_EPS` raises ``ValueError``.  A direction near 0
    mod 2*pi fails with ``SingularRayError`` for ode-euler at every sample
    point where the Stokes jump across the Borel transform's singularity
    at 1, 2 pi |e^(-1/P)| (the Pade poles on [1, inf) summed), exceeds
    ``p_k_sum``'s eps = 1e-16 (at P > 0, P above about 0.026); a smaller jump
    joins the sum's ``continuation_error`` and so the sample's bound.
    ``details`` also holds the expansion of y and the sector sample, which
    the JSON form leaves out.
    """
    germ = Germ(p, order)
    ey, edy = (p_expand(f, germ, f.trunc // germ.lead_degree + 1) for f in (y, y.differentiate(0)))
    assert all(g.is_zero or g.degree() <= e.reliable_order(n)
               for e in (ey, edy) for n, g in enumerate(e.coeffs))
    sample = sample_p_sector(p, theta - 0.5, theta + 0.5, ODE_SECTOR_RADIUS, points)
    dp = p.differentiate(0)
    samples = []
    with mp.workprec(working_prec()):
        for x in sample.points:
            fs, fps = (p_k_sum(e, x, 1, theta) for e in (ey, edy))
            if max(fs.quadrature_error, fps.quadrature_error) > ODE_NUMERIC_EPS:
                raise ValueError(f"a germ sum's quadrature error exceeds ODE_NUMERIC_EPS = "
                                 f"{ODE_NUMERIC_EPS:g}")
            t, dt = to_mpc(p.eval_at(x)), to_mpc(dp.eval_at(x))
            samples.append({"t": {"re": float(t.real), "im": float(t.imag)},
                            "residual": float(abs(t * t * fps.value - dt * fs.value + t * dt)),
                            "bound": float(abs(t) ** 2 * fps.total_error
                                           + abs(dt) * fs.total_error)})
    return ResidualReport(
        numeric_max_residual=max((s["residual"] for s in samples), default=0.0),
        details={"theta": float(theta), "k": 1, "depth": ey.depth,
                 "samples": samples, "expansion": ey, "sample": sample})


class PSectorSample(Record):
    """Points of a polydisk with the germ's argument inside a window."""
    a: float
    b: float
    R: float
    points: tuple
    p: TruncatedSeries

    def recheck(self):
        return all(_in_p_sector(self.p, x, self.a, self.b, self.R) for x in self.points)


def _in_p_sector(p, x, a, b, R):
    """x lies in the open polydisk of radius R, and arg P(x) - a mod 2 pi below b - a."""
    if not all(abs(c) < R for c in x):
        return False
    w = complex(to_mpc(p.eval_at(x)))
    return w != 0 and (cmath.phase(w) - a) % (2 * cmath.pi) < b - a


def sample_p_sector(p, a, b, R, count, seed=0, max_tries=200000):
    """Rejection-sample points with a < arg P(x) < b inside the polydisk.

    Before drawing anything, refuses with ``ValueError`` a window that is
    empty or wider than 2*pi, a radius that is not a positive finite real
    and a count that is negative or not an integer.
    """
    count = integer_arg(count, "count")
    if not 0 < b - a <= 2 * cmath.pi:
        raise ValueError(f"need a < b <= a + 2*pi, not a = {a}, b = {b}")
    if not (isinstance(R, numbers.Real) and 0 < R < cmath.inf) or count < 0:
        raise ValueError(f"need a positive finite real radius and a count >= 0, not {R!r}, {count}")
    rng = random.Random(seed)
    pts = []
    for _ in range(max_tries):
        if len(pts) >= count:
            break
        x = tuple(complex(rng.uniform(-R, R), rng.uniform(-R, R))
                  for _ in range(p.dim))
        if _in_p_sector(p, x, a, b, R):
            pts.append(x)
    if len(pts) < count:
        raise GermsumError(
            f"could not find {count} sector points (got {len(pts)})")
    return PSectorSample(a=float(a), b=float(b), R=float(R),
                         points=tuple(pts), p=p)
