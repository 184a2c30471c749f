"""The four benchmark workloads: seeded inputs, tasks and their oracle checks.

Every workload builds its inputs from ``random.Random(seed)`` during set-up
and hands the library only those inputs. Tasks come in a fixed *cycle* of
slots (sizes, families, chart kinds); the seed changes coefficients, poles,
directions and points, never the mix, so two seeds measure the same kind of
work. A task is ``run()`` (timed) plus ``check(result)`` (untimed), which
returns ``(failures, bound_misses)``:

* a failure is an exception, a non-zero exit, a wrong exact result or a sum
  outside the family's stated accuracy;
* a bound miss is a sum whose oracle error exceeds the ``total_error`` the
  library reported. Misses are listed with their inputs but do not fail the
  task: the library's error estimate is known not to be a bound yet (see
  perfbench/README.md), and the benchmark must keep gating speed meanwhile.

Library calls go through ``germsum`` module attributes at call time, so the
tracer's wrappers see them.
"""
from __future__ import annotations

import contextlib
import inspect
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import mpmath
from mpmath import mp

import germsum as gs
import germsum.scalars

import oracles

PREC = gs.DEFAULT_PREC_BITS

# stated accuracy per family: |value - exact| <= ACCURACY * max(1, |exact|)
ACCURACY = {"rational": 1e-12, "euler": 1e-8, "germ": 1e-8}


def _frac(rng, num=9, den=9):
    """A nonzero seeded rational with |numerator| <= num, denominator <= den."""
    while True:
        c = Fraction(rng.randint(-num, num), rng.randint(1, den))
        if c:
            return c


def _wp_mpf(x):
    """An exact rational (or float) as an mpf at working precision."""
    with mp.workprec(PREC):
        x = Fraction(x)
        return mpmath.mpf(x.numerator) / x.denominator


def _wp_polar(modulus, angle, turn=0):
    """modulus * e^(i (angle + turn*pi)) at working precision, from exact rationals."""
    with mp.workprec(PREC):
        return _wp_mpf(modulus) * mpmath.expj(_wp_mpf(angle) + turn * mpmath.pi)


def _fmt(z):
    return mpmath.nstr(z, 8)


def drain(result):
    """The value of a task's run(): a generator run() pauses between library calls."""
    if not inspect.isgenerator(result):
        return result
    try:
        while True:
            next(result)
    except StopIteration as stop:
        return stop.value


class Task:
    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label, self.run, self.check = label, run, check


def _sum_problems(label, result, exact, family):
    """Failures (stated accuracy) and bound misses (reported total_error) of one sum."""
    with mp.workprec(oracles.ORACLE_PREC):
        err = abs(mpmath.mpc(result.value) - exact)
        limit = ACCURACY[family] * max(1, abs(exact))
    where = f"{label}: |error| {_fmt(err)}"
    fails = [f"{where} > stated accuracy {_fmt(limit)}"] if err > limit else []
    misses = ([f"{where} > reported total_error {result.total_error:.3g}"]
              if err > result.total_error else [])
    return fails, misses


class Workload:
    """Base: a cycle of slots, a task per index, an untimed warm-up."""

    name = ""
    cycle = 1
    # nominal wall of one cycle (x86_64, 2 vCPUs, CPython 3.11, mpmath's
    # pure-Python backend): --seconds buys round(seconds / cycle_s) cycles
    cycle_s = 1.0
    warm_up_tasks = 1

    def task(self, i):
        raise NotImplementedError

    def slot_name(self, i):
        """Which slot of the cycle task i fills, for per-slot latency medians."""
        slot = self.SLOTS[i % self.cycle]
        return slot if isinstance(slot, str) else " ".join(str(x) for x in slot if x != "")

    def warm_up(self):
        """Run the first cycle's cheapest tasks untimed so lazy caches fill."""
        for i in range(self.warm_up_tasks):
            t = self.task(i)
            t.check(drain(t.run()))

    def notes(self):
        """Extra facts recorded with the run (term counts and the like)."""
        return {}


# -- algebra-exact ------------------------------------------------------------------

class AlgebraExact(Workload):
    """Dense exact series through blowup -> p_expand -> t_substitute -> Gevrey fit.

    Interleaved with the canned generators and their formal verifiers.
    """

    name = "algebra-exact"
    SLOTS = (
        ("chain", 3, 10, "xi"), ("chain", 2, 20, "0"), ("remark79",),
        ("chain", 2, 25, "inf"), ("chain", 3, 12, "0"), ("chain", 2, 30, "xi"),
        ("ode-euler",), ("chain", 2, 35, "0"), ("chain", 3, 14, "inf"),
        ("chain", 2, 40, "xi"), ("pde-quasihom",),
    )
    cycle = len(SLOTS)
    # 15 s buys 7 cycles: the tail (10 tasks from the top) then falls mid-way
    # through the second-heaviest slot rather than at a slot boundary
    cycle_s = 2.1

    def __init__(self, seed, workdir, cycles):
        self.seed = seed
        # a distinct input for every task of the run, so per-slot costs average over inputs
        self.inputs = [self._make(random.Random(f"{seed}:{i}"), self.SLOTS[i % self.cycle])
                       for i in range(cycles * self.cycle)]

    @staticmethod
    def _make(rng, slot):
        kind = slot[0]
        if kind == "remark79":
            return {"kind": kind, "trunc": rng.randint(180, 212)}
        if kind == "ode-euler":
            return {"kind": kind, "trunc": rng.randint(30, 40)}
        if kind == "pde-quasihom":
            return {"kind": kind, "trunc": rng.randint(25, 34)}
        _, dim, trunc, chart = slot
        terms = {e: _frac(rng) for e in itertools.product(range(trunc + 1), repeat=dim)
                 if sum(e) <= trunc}
        # germ x2^2 - x1^3 (+ c x3^2) plus seeded coefficients on fixed higher
        # monomials: the seed moves values, not the germ's sparsity (and cost)
        pad = (0,) * (dim - 2)
        p_terms = {(0, 2) + pad: Fraction(1), (3, 0) + pad: Fraction(-1),
                   (2, 2) + pad: _frac(rng, 4, 4), (1, 4) + pad: _frac(rng, 4, 4)}
        weights = (2, 3)
        if dim == 3:
            p_terms[(0, 0, 2)] = _frac(rng, 4, 4)
            p_terms[(1, 1, 2)] = _frac(rng, 4, 4)
            weights = (2, 3, 2)
        if chart == "xi":
            # centres of equal height, so the seed moves the cost of this slot little
            xi = rng.choice((-1, 1)) * rng.choice((Fraction(2, 3), Fraction(3, 2)))
        else:
            xi = {"0": Fraction(0), "inf": "inf"}[chart]
        return {"kind": "chain", "dim": dim, "trunc": trunc, "xi": xi, "weights": weights,
                "f": gs.TruncatedSeries(dim, trunc, terms),
                "p": gs.TruncatedSeries(dim, trunc, p_terms)}

    def _label(self, i, inp):
        if inp["kind"] == "chain":
            return (f"{self.name}#{i} seed={self.seed} chain d={inp['dim']} "
                    f"trunc={inp['trunc']} xi={inp['xi']}")
        return f"{self.name}#{i} seed={self.seed} {inp['kind']} trunc={inp['trunc']}"

    def task(self, i):
        inp = self.inputs[i % len(self.inputs)]
        label = self._label(i, inp)
        kind = inp["kind"]
        if kind == "chain":
            return Task(label, lambda: self._chain(inp), lambda out: self._check_chain(label, inp, out))
        if kind == "remark79":
            return Task(label, lambda: self._remark79(inp["trunc"]),
                        lambda fits: self._check_remark79(label, fits))
        if kind == "ode-euler":
            def run():
                ex = gs.gen_example("ode-euler", inp["trunc"])
                return gs.verify_ode_formal(ex.f, ex.p)
            return Task(label, run, lambda rep: (
                [] if rep.exact_to_truncation else [f"{label}: residual valuation "
                                                    f"{rep.formal_valuation} within the truncation"], []))

        def run_pde():
            ex = gs.gen_example("pde-quasihom", inp["trunc"])
            return gs.verify_pde_formal(ex.f, ex.p, ex.notes["alpha"], ex.notes["beta"],
                                        ex.notes["k"])[0]
        return Task(label, run_pde, lambda rep: (
            [] if rep.details["divisible_by_stated_rhs"] and rep.details["stated_form_discrepancy"]
            else [f"{label}: PDE verifier report {rep.details}"], []))

    @staticmethod
    def _chain(inp):
        order = gs.MonomialOrder(inp["weights"])
        fb = gs.blowup(inp["f"], inp["xi"])
        pb = gs.blowup(inp["p"], inp["xi"])
        germ = gs.Germ(pb, order)
        depth = fb.trunc // germ.lead_degree + 1
        expansion = gs.p_expand(fb, germ, depth)
        back = gs.t_substitute(expansion)
        fit = gs.fit_gevrey(gs.norm_sequence(expansion, Fraction(1, 2)), 1)
        return fb, pb, germ, expansion, back, fit

    def _check_chain(self, label, inp, out):
        fb, pb, germ, expansion, back, fit = out
        fails = []
        if back != fb:
            fails.append(f"{label}: t_substitute(p_expand(f)) != f")
        g_terms = [g.terms for g in expansion.coeffs]
        bad = oracles.round_trip_residue(fb.terms, pb.terms, g_terms, fb.dim, fb.trunc,
                                         seed=f"{self.seed}:{label}")
        if bad:
            fails.append(f"{label}: sum g_n P^n != f at degrees {bad[:5]}")
        lead = oracles.lead_exponent(pb.terms, inp["weights"])
        if lead != germ.lead_exp:
            fails.append(f"{label}: germ lead {germ.lead_exp}, oracle {lead}")
        cone = oracles.cone_violations(g_terms, lead)
        if cone:
            fails.append(f"{label}: remainder terms in the cone, e.g. {cone[:3]}")
        if not math.isfinite(fit.s):
            fails.append(f"{label}: Gevrey fit s = {fit.s}")
        return fails, []

    @staticmethod
    def _remark79(trunc):
        ex = gs.gen_example("remark79", trunc)
        cases = (("direct", ex.f, ex.p, 41), ("b0", gs.blowup(ex.f, 0), gs.blowup(ex.p, 0), 61),
                 ("binf", gs.blowup(ex.f, gs.INFINITY), gs.blowup(ex.p, gs.INFINITY), 41))
        fits = {}
        for label, f, p, depth in cases:
            expansion = gs.p_expand(f, gs.Germ(p, ex.order), depth)
            fits[label] = gs.fit_gevrey(gs.norm_sequence(expansion, Fraction(1, 2)), 5).s
        return fits

    @staticmethod
    def _check_remark79(label, fits):
        expected = {"direct": 1.0, "b0": 0.5, "binf": 1.0}
        return [f"{label}: Gevrey fit {k} = {fits[k]:.3f}, expected {v}"
                for k, v in expected.items() if not abs(fits[k] - v) <= 0.1], []


# -- ray-sum ------------------------------------------------------------------------

class RaySum(Workload):
    """One-variable divergent series summed along rays, against E1 closed forms."""

    name = "ray-sum"
    # (family, length, extra): "directions" adds singular_directions, "stokes"
    # sums on both sides of a pole, "verify" uses `germsum verify ode-euler` inputs
    SLOTS = (
        ("rational", 24, "directions"), ("euler", 48, "verify"), ("rational", 32, "stokes"),
        ("euler", 40, ""), ("euler", 24, "directions"), ("rational", 48, ""),
        ("euler", 32, ""), ("rational", 40, "stokes"),
    )
    cycle = len(SLOTS)
    cycle_s = 19.0

    def __init__(self, seed, workdir, cycles):
        self.seed = seed
        self.inputs = [self._make(random.Random(f"{seed}:{i}"), self.SLOTS[i % self.cycle])
                       for i in range(cycles * self.cycle)]

    @staticmethod
    def _angle(rng, lo, hi):
        return Fraction(rng.randint(round(lo * 1000), round(hi * 1000)), 1000)

    def _make(self, rng, slot):
        family, length, extra = slot
        inp = {"family": family, "length": length, "extra": extra}
        if family == "euler":
            # the branch point is at tau = 1, so the ray is arg tau = pi
            if extra == "verify":
                ts = [_wp_polar(r, 0, turn=1) for r in (Fraction(1, 50), Fraction(1, 10), Fraction(3, 10))]
            else:
                ts = [_wp_polar(Fraction(rng.randint(20, 400), 1000), self._angle(rng, -0.4, 0.4), turn=1)
                      for _ in range(3)]
            inp["coeffs"] = [0] + [math.factorial(m) for m in range(length - 1)]
            inp["theta"] = math.pi
            inp["ts"] = ts
            inp["exact"] = [oracles.euler_sum(t) for t in ts]
            inp["exact_dt"] = oracles.euler_sum_dt(ts[0])
            return inp
        # rational Borel transform sum r p / (p - tau): poles kept 0.45 rad off the ray(s)
        theta = self._angle(rng, -3.14, 3.14)
        npoles = rng.randint(1, 4)
        poles = []
        if extra == "stokes":
            # the first pole lies on arg = theta, the rays 0.35 rad either side
            rays = (theta - Fraction(7, 20), theta + Fraction(7, 20))
            poles.append((_frac(rng, 8, 4), _wp_polar(Fraction(rng.randint(6, 20), 10), theta)))
        else:
            rays = (theta,)
        while len(poles) < npoles:
            ang = self._angle(rng, -3.14, 3.14)
            if all(abs(math.remainder(float(ang - r), 2 * math.pi)) > 0.45 for r in rays):
                poles.append((_frac(rng, 8, 4), _wp_polar(Fraction(rng.randint(6, 20), 10), ang)))
        with mp.workprec(PREC):
            poles = [(_wp_mpf(r), p) for r, p in poles]
            inp["coeffs"] = [mpmath.factorial(n) * sum(r * p ** (-n) for r, p in poles)
                             for n in range(length)]
        spread = 0.25 if extra == "stokes" else 0.5
        ts = [_wp_polar(Fraction(rng.randint(50, 500), 1000), theta + self._angle(rng, -spread, spread))
              for _ in range(3)]
        ray = float(_wp_mpf(rays[-1]))
        inp.update(poles=poles, ts=ts, theta=ray)
        inp["exact"] = [oracles.rational_sum(poles, t, ray) for t in ts]
        inp["exact_dt"] = oracles.rational_sum_dt(poles, ts[0], ray)
        if extra == "stokes":
            inp["theta_below"] = float(_wp_mpf(rays[0]))
            inp["exact_below"] = oracles.rational_sum(poles, ts[0], inp["theta_below"])
            inp["jump"] = oracles.stokes_jump(poles[0][0], poles[0][1], ts[0])
        return inp

    def task(self, i):
        inp = self.inputs[i % len(self.inputs)]
        label = (f"{self.name}#{i} seed={self.seed} {inp['family']} length={inp['length']} "
                 f"{inp['extra']} theta={inp['theta']:.6g}").rstrip()
        return Task(label, lambda: self._run(inp), lambda out: self._check(label, inp, out))

    @staticmethod
    def _run(inp):
        # a generator: each yield lets the worker probe the host between calls
        b = gs.borel_transform(gs.OneVarSeries(inp["coeffs"]), 1, prec=PREC)
        rc = gs.continue_on_ray(b, inp["theta"], [0.25, 0.5, 1.0, 2.0], prec=PREC)
        out = {"sums": []}
        for t in inp["ts"]:
            yield
            out["sums"].append(gs.laplace_sum(rc, 1, t, prec=PREC))
        yield
        out["dt"] = gs.laplace_sum(rc, 1, inp["ts"][0], derivative=True, prec=PREC)
        if inp["extra"] == "stokes":
            yield
            rc_below = gs.continue_on_ray(b, inp["theta_below"], [0.25, 0.5, 1.0, 2.0], prec=PREC)
            yield
            out["below"] = gs.laplace_sum(rc_below, 1, inp["ts"][0], prec=PREC)
        if inp["extra"] == "directions":
            yield
            out["directions"] = gs.singular_directions(b, 1, prec=PREC)
        return out

    @staticmethod
    def _check(label, inp, out):
        family = inp["family"]
        fails, misses = [], []
        for j, (res, exact) in enumerate(zip(out["sums"], inp["exact"])):
            f, m = _sum_problems(f"{label} t={_fmt(inp['ts'][j])}", res, exact, family)
            fails += f
            misses += m
        f, m = _sum_problems(f"{label} d/dt t={_fmt(inp['ts'][0])}", out["dt"], inp["exact_dt"], family)
        fails += f
        misses += m
        if "below" in out:
            f, m = _sum_problems(f"{label} below t={_fmt(inp['ts'][0])}", out["below"],
                                 inp["exact_below"], family)
            fails += f
            misses += m
            with mp.workprec(oracles.ORACLE_PREC):
                jump = mpmath.mpc(out["sums"][0].value) - mpmath.mpc(out["below"].value)
                err = abs(jump - inp["jump"])
            budget = out["sums"][0].total_error + out["below"].total_error
            if err > ACCURACY[family] * max(1, abs(inp["jump"])):
                fails.append(f"{label}: Stokes jump off by {_fmt(err)}")
            elif err > budget:
                misses.append(f"{label}: Stokes jump off by {_fmt(err)} > reported {budget:.3g}")
        if "directions" in out:
            found = out["directions"].directions
            want = ([float(mpmath.arg(p)) for _, p in inp["poles"]] if family == "rational" else [0.0])
            lost = [w for w in want
                    if not any(abs(math.remainder(w - d, 2 * math.pi)) < 0.05 for d in found)]
            if lost:
                fails.append(f"{label}: singular directions {list(found)} miss {lost}")
        return fails, misses


# -- germ-sum -----------------------------------------------------------------------

class GermSum(Workload):
    """f = sum m! a^m P^(m+1), rescaled to mpc coefficients, expanded and summed at points."""

    name = "germ-sum"
    DEPTHS = (16, 20, 24, 18, 22)
    POINTS = 2
    SLOTS = tuple(f"depth {d} {kind}" for d in DEPTHS for kind in ("expand", "point", "point"))
    cycle = len(SLOTS)
    cycle_s = 5.0
    warm_up_tasks = 2

    def __init__(self, seed, workdir, cycles):
        self.seed = seed
        self.instances = [self._make(random.Random(f"{seed}:{i}"), i, self.DEPTHS[i % len(self.DEPTHS)])
                          for i in range(cycles * len(self.DEPTHS))]
        self.expansions = {}
        self.expansion_notes = {}

    def _make(self, rng, index, depth):
        # P = x1^2 + c x1 x2 + beta x2^2 with 1/4 <= |c| <= 1, 1/2 <= |beta| <= 1: the float
        # division amplifies round-off by about ((1 + |c| + |beta|) / 1)^depth, and
        # germs outside this range (e.g. (x1 + 2 x2)^2 / 2) lose every digit by depth 24
        a = Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), 4)
        alpha = Fraction(1)
        beta = Fraction(rng.choice((-1, 1)) * rng.randint(2, 4), 4)
        c = rng.choice((-1, 1)) * Fraction(rng.randint(1, 4), 4)
        lam_re = Fraction(rng.randint(600, 1400), 1000)
        lam_im = Fraction(rng.randint(-500, 500), 1000)
        with mp.workprec(PREC):
            lam = mpmath.mpc(_wp_mpf(lam_re), _wp_mpf(lam_im))
        trunc = 2 * (depth - 1)
        p = gs.TruncatedSeries(2, trunc, {(2, 0): alpha, (1, 1): c, (0, 2): beta})
        f = gs.TruncatedSeries.zero(2, trunc)
        p_pow = p
        for m in range(depth - 1):
            f = f + p_pow * (Fraction(math.factorial(m)) * a ** m)
            p_pow = p_pow * p
        images = [gs.TruncatedSeries(2, trunc, {(1, 0): lam}),
                  gs.TruncatedSeries(2, trunc, {(0, 1): lam})]
        p_scaled = gs.substitute(p, images)
        theta = math.pi if a > 0 else 0.0
        size = (abs(alpha) + abs(c) + abs(beta)) * abs(complex(lam)) ** 2
        radius = math.sqrt(0.25 / (float(abs(a)) * float(size)))
        sample = gs.sample_p_sector(p_scaled, theta - 0.5, theta + 0.5, radius, self.POINTS,
                                    seed=rng.randrange(2 ** 32))
        points = sample.points
        with mp.workprec(oracles.ORACLE_PREC):
            def t_at(x):
                # P(lambda x) from the exact P, the working-precision lambda and the point
                x1, x2 = lam * mpmath.mpc(x[0]), lam * mpmath.mpc(x[1])
                return sum(mpmath.mpf(q.numerator) / q.denominator * m
                           for q, m in ((alpha, x1 * x1), (c, x1 * x2), (beta, x2 * x2)))
            ts = [t_at(x) for x in points]
            exact = [oracles.euler_sum(t, a) for t in ts]
        return {"index": index, "a": a, "p": p, "f": f, "lam": lam, "images": images, "depth": depth,
                "theta": theta, "points": points, "ts": ts, "exact": exact,
                "desc": f"a={a} P=({alpha})x1^2+({c})x1x2+({beta})x2^2 lambda={complex(lam):.6g}"}

    def task(self, i):
        n = (i // (1 + self.POINTS)) % len(self.instances)
        inst = self.instances[n]
        slot = i % (1 + self.POINTS)
        base = f"{self.name}#{i} seed={self.seed} instance={n} depth={inst['depth']} {inst['desc']}"
        if slot == 0:
            def run():
                f_scaled = gs.substitute(inst["f"], inst["images"])
                p_scaled = gs.substitute(inst["p"], inst["images"])
                expansion = gs.p_expand(f_scaled, gs.Germ(p_scaled, gs.MonomialOrder((1, 1))),
                                        inst["depth"])
                self.expansions[n] = expansion
                return expansion
            return Task(f"{base} expand", run, lambda ex: self._check_expansion(f"{base} expand", inst, ex))
        x = inst["points"][slot - 1]
        label = f"{base} point={x}"

        def run_point():
            return gs.p_k_sum(self.expansions[n], x, 1, inst["theta"], prec=PREC)

        return Task(label, run_point, lambda res: _sum_problems(label, res, inst["exact"][slot - 1], "germ"))

    def _check_expansion(self, label, inst, expansion):
        """The exact expansion is g_0 = 0, g_n = (n-1)! a^(n-1): one constant term each.

        Every other stored term is round-off of the float division. Its size
        and count are recorded (see notes()), not failed: they depend on the
        conditioning of the input, and the point sums carry their effect.
        """
        fails = []
        a = inst["a"]
        lead = oracles.lead_exponent({e: 1 for e in expansion.germ.p.terms}, (1, 1))
        if oracles.cone_violations([g.terms for g in expansion.coeffs], lead):
            fails.append(f"{label}: remainder terms in the cone {lead}")
        worst = 0
        with mp.workprec(PREC):
            for n, g in enumerate(expansion.coeffs):
                want = _wp_mpf(math.factorial(n - 1) * a ** (n - 1)) if n else mpmath.mpf(0)
                const = mpmath.mpc(g.coeff((0, 0)))
                scale = max(1, abs(want))
                if abs(const - want) > ACCURACY["germ"] * scale:
                    fails.append(f"{label}: g_{n}(0) = {_fmt(const)}, exact {_fmt(want)}")
                noise = max((abs(mpmath.mpc(c)) for e, c in g.terms.items() if e != (0, 0)), default=0)
                worst = max(worst, noise / scale)
        self.expansion_notes[f"instance {inst['index']} depth {inst['depth']}"] = {
            "terms_per_coeff": [len(g.terms) for g in expansion.coeffs],
            "max_roundoff_term": float(worst)}
        return fails, []

    def notes(self):
        return {"p_expand": self.expansion_notes,
                "exact_terms_per_coeff": "0 for g_0, then 1 (a constant) for every n >= 1"}


# -- cli-roundtrip ------------------------------------------------------------------

class CliRoundtrip(Workload):
    """One cold ``python -m germsum.cli`` child at a time, compared with in-process results."""

    name = "cli-roundtrip"
    COMMANDS = ("divide", "expand", "gevrey", "blowup", "dominant", "borel-sum", "directions",
                "verify-remark79", "verify-pde")
    cycle = len(COMMANDS)
    cycle_s = 2.6
    SLOTS = COMMANDS

    def __init__(self, seed, workdir, cycles):
        # one input per command: each child is cold, so a repeat costs what the first did
        self.seed = seed
        self.workdir = workdir
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.env = {k: v for k, v in os.environ.items() if k != "GERMSUM_PREC_BITS"}
        # explicit, so the child never depends on an inherited or installed copy
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.python = sys.executable
        self.jobs = self._make(random.Random(f"{seed}:cli"))
        self.expected = {}
        self.compute_s = {}
        for name, (argv, reference) in self.jobs.items():
            start = time.perf_counter()
            self.expected[name] = json.loads(json.dumps(reference()))
            self.compute_s[name] = time.perf_counter() - start
        self.tracer = None
        self.child_s = self.inproc_s = 0.0

    def _write(self, name, obj):
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    def _make(self, rng):
        trunc = 12
        terms = {e: _frac(rng) for e in itertools.product(range(trunc + 1), repeat=2)
                 if sum(e) <= trunc}
        series = gs.TruncatedSeries(2, trunc, terms)
        germ_terms = {(0, 2): Fraction(1), (3, 0): Fraction(-1), (2, 2): _frac(rng, 4, 4)}
        germ = gs.TruncatedSeries(2, trunc, germ_terms)
        quad = gs.TruncatedSeries(2, trunc, {(2, 0): Fraction(1), (1, 1): _frac(rng, 4, 4),
                                             (0, 2): _frac(rng, 4, 4), (3, 0): _frac(rng, 4, 4)})
        s_path = self._write("series.json", gs.series_to_json(series))
        g_path = self._write("germ.json", gs.series_to_json(germ))
        q_path = self._write("quadratic.json", gs.series_to_json(quad))
        xi = str(Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 5)))
        # a_n = n! sum r p^-n with real poles p > 0, summed along theta = pi; the
        # poles (and below, the complex ones) sit at fixed places, the residues
        # are seeded, so the seed changes the values more than the cost
        poles = [(_frac(rng, 4, 4), Fraction(3, 2)), (_frac(rng, 4, 4), Fraction(5, 2))]
        sum_coeffs = [math.factorial(n) * sum(r / p ** n for r, p in poles) for n in range(16)]
        c_path = self._write("borel.json", {"coeffs": [gs.scalars.scalar_to_json(c) for c in sum_coeffs]})
        dir_coeffs = [0] * 20
        for pole in (gs.QQi(1, rng.choice((-1, 1))), gs.QQi(rng.choice((-1, 1)), 2)):
            r, inv = _frac(rng, 4, 4), 1 / pole
            power = gs.QQi(1)
            for n in range(20):
                dir_coeffs[n] = power * (r * math.factorial(n)) + dir_coeffs[n]
                power = power * inv
        d_path = self._write("directions.json", {"coeffs": [gs.scalars.scalar_to_json(c) for c in dir_coeffs]})
        theta = math.pi
        t = str(-Fraction(rng.randint(20, 30), 100))
        r79 = rng.randint(180, 212)
        pde = rng.randint(25, 34)
        order = gs.MonomialOrder((2, 3))

        def load(path):
            with open(path) as fh:
                return gs.series_from_json(json.load(fh))

        def load_coeffs(path):
            with open(path) as fh:
                return gs.OneVarSeries([gs.scalars.scalar_from_json(c) for c in json.load(fh)["coeffs"]])

        def germ_of(path):
            return gs.Germ(load(path), order)

        def division():
            d = gs.wdivide(load(s_path), germ_of(g_path))
            return {"q": gs.series_to_json(d.q), "r": gs.series_to_json(d.r)}

        def borel_sum():
            b = gs.borel_transform(load_coeffs(c_path), 1.0, prec=PREC)
            rc = gs.continue_on_ray(b, theta, [0.5, 1.0, 2.0, 4.0], method="pade", prec=PREC)
            return gs.laplace_sum(rc, 1.0, gs.scalars.parse_scalar(t), prec=PREC).to_json()

        def directions():
            b = gs.borel_transform(load_coeffs(d_path), 1.0, prec=PREC)
            return gs.singular_directions(b, 1.0, prec=PREC).to_json()

        def verify(name, trunc):
            def run():
                # the verify report is assembled by the CLI itself
                from germsum.cli import cli_main
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli_main(["verify", name, "--trunc", str(trunc)])
                if code != 0:
                    raise RuntimeError(f"in-process verify {name} exited {code}")
                return json.loads(buf.getvalue())
            return run

        common = ["--germ", g_path, "--order", "2,3"]
        return {
            "divide": (["divide", s_path] + common, division),
            "expand": (["expand", s_path] + common + ["--depth", "7"],
                       lambda: gs.p_expand(load(s_path), germ_of(g_path), 7).to_json()),
            "gevrey": (["gevrey", s_path] + common + ["--depth", "7", "--rho", "1/2", "--nmin", "1"],
                       lambda: gs.fit_gevrey(gs.norm_sequence(
                           gs.p_expand(load(s_path), germ_of(g_path), 7), Fraction(1, 2)), 1).to_json()),
            "blowup": (["blowup", s_path, f"--xi={xi}"],
                       lambda: gs.series_to_json(gs.blowup(load(s_path),
                                                           gs.scalars.parse_scalar(xi)))),
            "dominant": (["dominant", q_path],
                         lambda: gs.dominant_data(load(q_path), None, prec=PREC).to_json()),
            "borel-sum": (["borel-sum", c_path, "--k", "1", "--theta", repr(theta), f"--t={t}"],
                          borel_sum),
            "directions": (["directions", d_path, "--k", "1"], directions),
            "verify-remark79": (["verify", "remark79", "--trunc", str(r79)], verify("remark79", r79)),
            "verify-pde": (["verify", "pde-quasihom", "--trunc", str(pde)], verify("pde-quasihom", pde)),
        }

    def child(self, argv):
        """Run one CLI child to completion; returns (exit code, stdout, stderr)."""
        proc = subprocess.run([self.python, "-m", "germsum.cli"] + argv, env=self.env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def task(self, i):
        name = self.COMMANDS[i % self.cycle]
        argv, _ = self.jobs[name]
        shown = (os.path.basename(a) if a.startswith(self.workdir) else a for a in argv)
        label = f"{self.name}#{i} seed={self.seed} germsum {' '.join(shown)}"

        def check(out):
            code, stdout, stderr = out
            if code != 0:
                return [f"{label}: exit {code}: {stderr.strip()[-200:]}"], []
            try:
                got = json.loads(stdout)
            except json.JSONDecodeError as exc:
                return [f"{label}: output is not JSON ({exc})"], []
            if got != self.expected[name]:
                return [f"{label}: output differs from the in-process library result"], []
            return [], []
        return Task(label, lambda: self.child(argv), check)

    def trace_task(self, i):
        """The task plus the same command in-process, each timed (for cli.compute_share)."""
        task = self.task(i)
        reference = self.jobs[self.COMMANDS[i % self.cycle]][1]

        def run():
            start = time.perf_counter()
            out = task.run()
            mid = time.perf_counter()
            if self.tracer is not None:
                self.tracer.add_span("cli.child", start, mid)
            reference()
            self.child_s += mid - start
            self.inproc_s += time.perf_counter() - mid
            return out
        return Task(task.label, run, task.check)

    def startup_s(self, repeats=3):
        """Median wall of a no-op child (``--help``): interpreter start plus imports."""
        walls = []
        for _ in range(repeats):
            start = time.perf_counter()
            self.child(["--help"])
            walls.append(time.perf_counter() - start)
        return sorted(walls)[len(walls) // 2]

    def notes(self):
        return {"interpreter": self.python, "child_pythonpath": self.env["PYTHONPATH"],
                "in_process_compute_s": self.compute_s}


def runtime_meta():
    """Interpreter, mpmath backend, precision and machine facts recorded with each run."""
    import platform
    return {
        "python": platform.python_version(),
        "python_executable": sys.executable,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "prec_bits": PREC,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "numpy": sys.modules["numpy"].__version__,
    }


WORKLOADS = {w.name: w for w in (AlgebraExact, RaySum, GermSum, CliRoundtrip)}
