"""Divergent formal solutions of differential equations, checked two ways.

First example: the ODE  P^2 y' = P' y - P P'  with P = x^2 - eps^2 has the
divergent formal solution y = sum m! P^(m+1).  We verify the equation
exactly on the truncated series, then numerically: y and y' are expanded
in powers of the germ P, both expansions are summed by Borel-Laplace with
respect to P at points x where arg P(x) lies near the summation direction,
and the sums satisfy the equation there to within the errors they report.

Second example: a first-order PDE built from a quasi-homogeneous germ
P = x2^2 - x1^3 with formal solution f = x1 sum n! P^(n+1).  Computing
the right-hand side exactly shows it is divisible by x2*(dP/dx2)*P with
cofactor x1 -- not the bare product one might quote.  The verifier
records the cofactor instead of silently absorbing it.
"""
import math

from germsum import (gen_example, verify_ode_formal, verify_ode_numeric,
                     verify_pde_formal)

# -- ODE, formal -------------------------------------------------------------
ex = gen_example("ode-euler", 64)
report = verify_ode_formal(ex.f, ex.p)
print("ODE residual valuation:", report.formal_valuation,
      "(truncation %d)" % ex.f.trunc)
print("vanishes to truncation:", report.exact_to_truncation)

# -- ODE, numeric ------------------------------------------------------------
for theta in (math.pi, math.pi / 2):
    rep = verify_ode_numeric(ex.f, ex.p, ex.order, theta, 3)
    worst = max(rep.details["samples"], key=lambda s: s["residual"])
    print("max |P^2 y' - P' y + P P'| at 3 points about theta=%.3f: %.2e"
          " (bound there %.2e)" % (theta, worst["residual"], worst["bound"]))

# The direction theta = 0 is singular for this equation: at these points the
# Stokes jump across the Borel singularity at 1, 2 pi e^(-1/|P|), exceeds
# eps, so the machinery refuses the sum rather than producing an
# uncontrolled number.
from germsum.errors import SingularRayError
try:
    verify_ode_numeric(ex.f, ex.p, ex.order, 0.0, 1)
except SingularRayError as err:
    print("theta=0 refused:", err)

# -- PDE ---------------------------------------------------------------------
ex = gen_example("pde-quasihom", 25)
report, h = verify_pde_formal(ex.f, ex.p, alpha=0, beta=1, k=1)
d = report.details
print("\nPDE: computed right-hand side has", len(h.terms), "terms")
print("divisible by x2*(dP/dx2)*P:", d["divisible_by_stated_rhs"])
print("cofactor leading term:", d["cofactor_leading_term"])
print("matches the bare product:", d["stated_form_matches"],
      "-> discrepancy flagged:", d["stated_form_discrepancy"])
