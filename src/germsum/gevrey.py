"""Gevrey-order estimation from the coefficient norms of an expansion.

A germ-power expansion sum g_n * P^n is Gevrey of order s when
``||g_n|| <= K * A^n * Gamma(s*n + 1)``.  Taking logs and using the
asymptotically equivalent regressor ``s * lgamma(n+1)`` (the difference
``lgamma(s*n+1) - s*lgamma(n+1) ~ s*n*log(s)`` is absorbed by the A-term)
turns order estimation into a linear least-squares fit in
``(1, n, lgamma(n+1))``.  The summability index is k = 1/s.
"""
from __future__ import annotations

import math

from .scalars import Record, integer_arg
from .series import majorant_norm, majorant_radius


class NormSequence(Record):
    """Majorant norms ||g_n|| of the expansion coefficients at radius rho."""
    rho: float
    norms: tuple


class GevreyEstimate(Record):
    s: float
    logK: float
    logA: float
    rms_residual: float
    n_range: tuple
    convergent_type: bool = False

    @property
    def k(self):
        """Summability index 1/s (inf for convergent-type fits)."""
        return math.inf if self.s == 0 else 1.0 / self.s

    def to_json(self):
        return {
            "s": self.s,
            "logK": self.logK,
            "logA": self.logA,
            "rms_residual": self.rms_residual,
            "n_range": list(self.n_range),
            "convergent_type": self.convergent_type,
            "points_used": len(range(*self.n_range)) if self.n_range else 0,
        }


def norm_sequence(expansion, rho):
    """Norms of every expansion coefficient at the given polydisk radius
    (``ValueError`` unless it is a positive real number)."""
    r = majorant_radius(rho)
    norms = tuple(majorant_norm(g, r) for g in expansion.coeffs)
    return NormSequence(r, norms)


def fit_gevrey(ns, n_min=5):
    """Least-squares fit of log||g_n|| against logK + n*logA + s*lgamma(n+1).

    Entries with zero norm are excluded (they would bias sparse
    expansions); the fit keeps the original index n so that interleaved
    zeros still estimate the correct order.  Negative fitted s is clamped
    to 0 and flagged as convergent-type; an ``n_min`` that is not an
    integer raises ``ValueError``.  numpy is imported here, its one use in
    the module, so that a command that fits nothing does not pay for the
    import.
    """
    import numpy as np

    n_min = integer_arg(n_min, "n_min")

    rows = [(n, math.log(x)) for n, x in enumerate(ns.norms) if n >= n_min and x != 0.0]
    if len(rows) < 4:
        raise ValueError(
            f"need at least 4 nonzero norms with index >= {n_min}, have {len(rows)}")
    design = np.array([[1.0, n, math.lgamma(n + 1)] for n, _ in rows])
    target = np.array([y for _, y in rows])
    beta, *_ = np.linalg.lstsq(design, target, rcond=None)
    fitted = design @ beta
    rms = float(np.sqrt(np.mean((fitted - target) ** 2)))
    logK, logA, s = (float(b) for b in beta)
    convergent = s < 0
    if convergent:
        s = 0.0
    return GevreyEstimate(s=s, logK=logK, logA=logA, rms_residual=rms,
                          n_range=(rows[0][0], rows[-1][0] + 1),
                          convergent_type=convergent)

