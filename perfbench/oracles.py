"""Independent oracles for the benchmark's tasks.

Nothing here calls germsum: the closed forms use mpmath directly and the
algebraic checks work on plain ``{exponent: Fraction}`` dictionaries, so a
defect in the library cannot hide in its own oracle.

* ``rational_sum`` / ``rational_sum_dt`` - the Borel-Laplace sum (and its
  t-derivative) of ``a_n = n! sum_j r_j p_j^-n`` along a ray, from E1
  closed forms plus the Stokes jumps of the poles between ``arg t`` and the
  ray.
* ``euler_sum`` / ``euler_sum_dt`` - the sum of ``sum_m m! (a t)^(m+1) / a``
  (``a = 1`` is the Euler series), ``-e^(-1/(a t)) E1(-1/(a t)) / a``.
* ``stokes_jump`` - ``F_above - F_below`` across the direction of one pole.
* ``round_trip_residue`` - ``sum_n g_n P^n - f`` restricted to seeded lines,
  modulo a 61-bit prime.
* ``cone_violations`` - stored exponents of the g_n inside ``lead + N^d``.

Run ``python3 perfbench/oracles.py`` to check the closed forms against
direct numerical quadrature and the algebraic checks against planted errors.
"""
from __future__ import annotations

import random
from fractions import Fraction

import mpmath
from mpmath import mp

ORACLE_PREC = 256
_MOD = (1 << 61) - 1


def _pole_side(p, t, theta):
    """+1 / -1 when the pole's direction lies strictly between arg t and the ray.

    The sign is that of ``theta - arg t``; 0 when the pole is not crossed
    while the integration ray turns from ``arg t`` to ``theta``.
    """
    d_ray = theta - mpmath.arg(t)
    d_ray -= 2 * mpmath.pi * mpmath.nint(d_ray / (2 * mpmath.pi))
    d_pole = mpmath.arg(p) - mpmath.arg(t)
    d_pole -= 2 * mpmath.pi * mpmath.nint(d_pole / (2 * mpmath.pi))
    if 0 < d_pole < d_ray:
        return 1
    if d_ray < d_pole < 0:
        return -1
    return 0


def _jump_term(r, p, t):
    """2 pi i r p e^(-p/t) / t: the ray crossing the pole counter-clockwise."""
    return 2j * mpmath.pi * r * p * mpmath.exp(-p / t) / t


def _jump_term_dt(r, p, t):
    return 2j * mpmath.pi * r * p * mpmath.exp(-p / t) * (p / t ** 3 - 1 / t ** 2)


def _g(p, t):
    """-e^(-p/t) E1(-p/t): the sum along arg t of p/(p - tau), over t."""
    w = -p / t
    return -mpmath.exp(w) * mpmath.e1(w)


def rational_sum(poles, t, theta):
    """k=1 sum along ``theta`` of ``a_n = n! sum r p^-n`` (Borel transform sum r p/(p - tau))."""
    with mp.workprec(ORACLE_PREC):
        t = mpmath.mpc(t)
        theta = mpmath.mpf(theta)
        total = mpmath.mpc(0)
        for r, p in poles:
            r, p = mpmath.mpc(r), mpmath.mpc(p)
            total += r * p * _g(p, t) / t
            total += _pole_side(p, t, theta) * _jump_term(r, p, t)
        return total


def rational_sum_dt(poles, t, theta):
    """d/dt of :func:`rational_sum`."""
    with mp.workprec(ORACLE_PREC):
        t = mpmath.mpc(t)
        theta = mpmath.mpf(theta)
        total = mpmath.mpc(0)
        for r, p in poles:
            r, p = mpmath.mpc(r), mpmath.mpc(p)
            g = _g(p, t)
            dg = (g - t / p) * p / t ** 2
            total += r * p * (dg / t - g / t ** 2)
            total += _pole_side(p, t, theta) * _jump_term_dt(r, p, t)
        return total


def stokes_jump(r, p, t):
    """F(ray just above arg p) - F(ray just below arg p) at t."""
    with mp.workprec(ORACLE_PREC):
        return _jump_term(mpmath.mpc(r), mpmath.mpc(p), mpmath.mpc(t))


def _mpf(a):
    a = Fraction(a)
    return mpmath.mpf(a.numerator) / a.denominator


def euler_sum(t, a=1):
    """Sum of ``sum_m m! a^m t^(m+1)`` along any ray that avoids arg(1/a)."""
    with mp.workprec(ORACLE_PREC):
        a = _mpf(a)
        return _g(1 / a, mpmath.mpc(t)) / a


def euler_sum_dt(t, a=1):
    """d/dt of :func:`euler_sum`: ``(F - t) / (a t^2)``, so ``t^2 F' = F - t`` at a = 1."""
    with mp.workprec(ORACLE_PREC):
        t = mpmath.mpc(t)
        return (euler_sum(t, a) - t) / (_mpf(a) * t * t)


# -- exact algebra -------------------------------------------------------------

def _mod_scalar(c):
    c = Fraction(c)
    den = c.denominator % _MOD
    if den == 0:
        raise ZeroDivisionError("denominator divisible by the oracle prime")
    return c.numerator % _MOD * pow(den, -1, _MOD) % _MOD


def _on_line(terms, direction, trunc):
    """Coefficients of s^0..s^trunc of f(direction * s), modulo the prime."""
    out = [0] * (trunc + 1)
    for e, c in terms.items():
        deg = sum(e)
        if deg > trunc:
            continue
        v = _mod_scalar(c)
        for x, k in zip(direction, e):
            v = v * pow(x, k, _MOD) % _MOD
        out[deg] = (out[deg] + v) % _MOD
    return out


def _mul_trunc(a, b, trunc):
    out = [0] * (trunc + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(min(len(b), trunc + 1 - i)):
                out[i + j] = (out[i + j] + x * b[j]) % _MOD
    return out


def round_trip_residue(f_terms, p_terms, g_terms_list, dim, trunc, seed, lines=2):
    """Degrees m <= trunc where ``sum_n g_n P^n`` and f differ on a seeded line.

    Restricting to the line ``x = v s`` keeps the degree-m homogeneous part
    as the coefficient of s^m, so an empty result means the identity holds
    modulo degree > trunc, except with probability about trunc/2^61 per line.
    """
    rng = random.Random(seed)
    bad = set()
    for _ in range(lines):
        v = [rng.randrange(1, _MOD) for _ in range(dim)]
        target = _on_line(f_terms, v, trunc)
        p_line = _on_line(p_terms, v, trunc)
        acc = [0] * (trunc + 1)
        p_pow = [1] + [0] * trunc
        for n, g in enumerate(g_terms_list):
            if n:
                p_pow = _mul_trunc(p_pow, p_line, trunc)
            piece = _mul_trunc(_on_line(g, v, trunc), p_pow, trunc)
            acc = [(x + y) % _MOD for x, y in zip(acc, piece)]
        bad.update(m for m in range(trunc + 1) if acc[m] != target[m])
    return sorted(bad)


def lead_exponent(p_terms, weights):
    """Order-minimal exponent: weighted degree, then total degree, then larger x1 first."""
    return min(p_terms, key=lambda e: (sum(Fraction(w) * k for w, k in zip(weights, e)),
                                       sum(e), tuple(-k for k in e)))


def cone_violations(g_terms_list, lead):
    """(n, exponent) pairs of stored terms that lie in the cone lead + N^d."""
    return [(n, e) for n, g in enumerate(g_terms_list) for e in g
            if all(k >= l for k, l in zip(e, lead))]


# -- self-checks ---------------------------------------------------------------

def _quad_sum(borel, t, theta, derivative=False):
    """Direct quadrature of (1/t) int e^(-tau/t) B(tau) d tau along arg tau = theta."""
    with mp.workprec(ORACLE_PREC):
        t = mpmath.mpc(t)
        ph = mpmath.expj(theta)

        def integrand(s):
            tau = s * ph
            kern = mpmath.exp(-tau / t)
            if derivative:
                kern *= tau / t ** 3 - 1 / t ** 2
            else:
                kern /= t
            return kern * borel(tau) * ph

        scale = abs(t)
        return mpmath.quad(integrand, [0, scale, 4 * scale, 16 * scale, 64 * scale, mpmath.inf])


def self_check():
    """Compare every closed form with quadrature and plant errors in the exact checks."""
    problems = []

    def close(label, a, b, tol=mpmath.mpf(10) ** -40):
        if abs(a - b) > tol * max(1, abs(b)):
            problems.append(f"{label}: {mpmath.nstr(a, 20)} vs {mpmath.nstr(b, 20)}")

    with mp.workprec(ORACLE_PREC):
        poles = [(mpmath.mpf(2), mpmath.mpc("0.9", "0.7")), (mpmath.mpf(-1) / 3, mpmath.mpc("-1.2", "0.5"))]

        def borel(tau):
            return sum(r * p / (p - tau) for r, p in poles)

        t = mpmath.mpf("0.3") * mpmath.expj(mpmath.mpf("0.62"))
        for theta in ("0.2", "0.62", "1.1"):  # below, on and above the first pole
            theta = mpmath.mpf(theta)
            close(f"rational theta={theta}", rational_sum(poles, t, theta), _quad_sum(borel, t, theta))
            close(f"rational' theta={theta}", rational_sum_dt(poles, t, theta),
                  _quad_sum(borel, t, theta, derivative=True))
        r, p = poles[0]
        jump = rational_sum(poles, t, mpmath.mpf("1.1")) - rational_sum(poles, t, mpmath.mpf("0.2"))
        close("stokes jump", jump, stokes_jump(r, p, t))
        close("stokes jump by quadrature",
              _quad_sum(borel, t, mpmath.mpf("1.1")) - _quad_sum(borel, t, mpmath.mpf("0.2")),
              stokes_jump(r, p, t))
        # the branch cut of E1 must not leak in when arg t wraps past pi
        t2 = mpmath.mpf("0.2") * mpmath.expj(mpmath.pi + mpmath.mpf("0.3"))
        for a in (Fraction(1), Fraction(3, 2)):
            b = (lambda tau, a=a: 1 / (1 - _mpf(a) * tau))
            # F = int e^(-tau/t) B'(tau) d tau with B = -log(1 - a tau)/a
            got = euler_sum(t2, a)
            want = _quad_sum(b, t2, mpmath.pi) * t2
            close(f"euler a={a}", got, want)
        close("euler'", euler_sum_dt(t2), (euler_sum(t2) - t2) / t2 ** 2)
        h = mpmath.mpf(2) ** -100
        close("euler' numeric", euler_sum_dt(t2),
              (euler_sum(t2 + h) - euler_sum(t2 - h)) / (2 * h), tol=mpmath.mpf(10) ** -25)
        a = Fraction(-2, 3)
        close("euler' a", euler_sum_dt(t, a),
              (euler_sum(t + h, a) - euler_sum(t - h, a)) / (2 * h), tol=mpmath.mpf(10) ** -25)

    # exact algebra: x^2 + x = (x) * P^0 + 1 * P with P = x^2 (d = 1)
    f = {(1,): Fraction(1), (2,): Fraction(1)}
    p = {(2,): Fraction(1)}
    if round_trip_residue(f, p, [{(1,): 1}, {(0,): 1}], 1, 4, seed=1):
        problems.append("round trip rejects a correct expansion")
    if round_trip_residue(f, p, [{(1,): 1}, {(0,): 2}], 1, 4, seed=1) != [2]:
        problems.append("round trip misses a planted error at degree 2")
    f2 = {(0, 2): Fraction(3), (1, 1): Fraction(1, 2), (3, 0): Fraction(-1)}
    p2 = {(0, 2): Fraction(1), (3, 0): Fraction(-1)}
    good = [{(1, 1): Fraction(1, 2), (3, 0): Fraction(2)}, {(0, 0): Fraction(3)}]
    if round_trip_residue(f2, p2, good, 2, 3, seed=2):
        problems.append("2-d round trip rejects a correct expansion")
    if lead_exponent(p2, (2, 3)) != (0, 2) or lead_exponent(p2, (1, 1)) != (0, 2):
        problems.append("lead exponent order")
    if cone_violations(good, (0, 2)) or cone_violations([{(1, 3): 1}], (0, 2)) != [(0, (1, 3))]:
        problems.append("cone check")
    return problems


if __name__ == "__main__":
    import sys
    found = self_check()
    for line in found:
        print("FAIL", line)
    print("oracle self-check:", "ok" if not found else f"{len(found)} problem(s)")
    sys.exit(1 if found else 0)
