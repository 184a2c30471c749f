"""Summing a factorially divergent series numerically.

The alternating factorial series sum (-1)^n n! t^n diverges for every
t != 0, yet it determines a unique analytic function away from its one
singular direction.  The pipeline: divide coefficients by n! (Borel
transform), continue the resulting geometric series along a ray with a
rational approximant, Laplace-transform it back (for k = 1 in closed form,
from the approximant's partial fractions and the exponential integral E1),
and read off split error estimates.  Crossing the singular direction changes
the answer by an exponentially small jump -- which we measure.
"""
import math
from math import factorial

import mpmath
from mpmath import mp

from germsum import (OneVarSeries, borel_transform, continue_on_ray,
                     laplace_sum, singular_directions)
from germsum.errors import SingularRayError

series = OneVarSeries([(-1) ** n * factorial(n) for n in range(40)])
borel = borel_transform(series, 1)
print("Borel coefficients (alternating factorials become geometric):",
      [complex(c) for c in borel.coeffs[:6]])

# Where does summation fail?  Poles of the continuation that persist
# across approximant orders mark the singular directions.
report = singular_directions(borel, 1)
print("singular directions:", [round(d, 6) for d in report.directions])

# Summation along the positive axis, compared with brute-force quadrature
# of the exact Borel transform 1/(1+tau).
# t = 0.1 at the 128-bit working precision, the same number for both
rc = continue_on_ray(borel, 0.0, [1.0, 2.0, 4.0])
with mp.workprec(128):
    t = mpmath.mpf("0.1")
result = laplace_sum(rc, 1, t)
with mp.workprec(250):
    oracle = mpmath.quad(lambda u: mpmath.exp(-u) / (1 + t * u), [0, mpmath.inf])
print("\nsum at t=0.1:      ", mpmath.nstr(result.value, 30))
print("quadrature oracle: ", mpmath.nstr(oracle, 30))
# the sum is closed-form: its quadrature_error field is the rounding bound
# of that evaluation
print("difference %.2e, reported errors: closed-form evaluation bound %.1e, "
      "continuation %.1e"
      % (abs(result.value - oracle), result.quadrature_error,
         result.continuation_error))

# Summing along the singular direction itself is refused wherever the
# Stokes jump across the pole, 2 pi e^(-1/|t|)/|t|, exceeds eps = 1e-16:
# at t = -0.1 it is about 2.9e-3.  At t = -0.02 it is about 6.1e-20: the
# sum returns, and the jump joins its continuation error.
on_pole = continue_on_ray(borel, math.pi)
try:
    laplace_sum(on_pole, 1, -0.1)
except SingularRayError as err:
    print("\nray at pi refused:", err)
print("ray at pi at t=-0.02: continuation error %.2e (the jump charged)"
      % laplace_sum(on_pole, 1, -0.02).continuation_error)

# Summing on either side of the singular direction gives two analytic
# functions whose difference is exponentially small in 1/|t|.
up = continue_on_ray(borel, math.pi - 0.4, [1.0, 2.0])
down = continue_on_ray(borel, math.pi + 0.4, [1.0, 2.0])
print("\n|t|      jump                jump * exp(+0.5/|t|)")
for r in (0.3, 0.15, 0.08, 0.04):
    with mp.workprec(160):
        t = mpmath.mpf(str(r)) * mpmath.expjpi(1)
        jump = abs(laplace_sum(up, 1, t).value - laplace_sum(down, 1, t).value)
        print("%.2f   %.6e    %.6e"
              % (r, float(jump), float(jump * mpmath.exp(mpmath.mpf("0.5") / r))))
