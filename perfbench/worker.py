"""One benchmark process: set up a workload, then measure it (or trace it).

Started by run.py, once per set-up sample, as a fresh interpreter, so
``setup_s`` includes ``import germsum``. Prints one JSON object as its
last stdout line. Not meant to be run by hand; use run.py.

Host speed. The shared host this was built on changes speed by up to 2x
within seconds, for every process alike (a fixed germsum computation and a
fixed integer loop slow down together: each alone spread 40 % between
quartiles, their ratio 10 %). So every task is bracketed by
:func:`host_probe`, a fixed pure-Python integer loop that uses neither
germsum nor mpmath, and its latency is rescaled by
``PROBE_NOMINAL_S / probe`` (the mean of the probes before and after it):
the time the task would take with the host at the probe's nominal speed.
The process (and so every CLI child) is pinned to one CPU, so the probe
measures the CPU the work runs on. The end-to-end times are these rescaled
times; the raw wall times are reported beside them.
"""
from __future__ import annotations

import argparse
import inspect
import json
import os
import resource
import statistics
import sys
import time
import traceback

PROBE_NOMINAL_S = 0.003  # host_probe() on the reference host in its fast state


def host_probe():
    """Median of three runs of a fixed integer loop (about 3 ms), in seconds."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        x = 1
        for _ in range(8000):
            x = x * 0x9E3779B97F4A7C15F39CC0605CEDC835 % ((1 << 300) - 153)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# one CPU for this process and its children, so the probe runs where the work runs
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
_SETUP_PROBE = host_probe()
_START = time.perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (imports germsum: part of the measured set-up)
import tracing  # noqa: E402


class _Clock:
    """Times pieces of work, raw and rescaled by the host probes around each piece."""

    def __init__(self):
        self.probe = host_probe()

    def measure(self, fn):
        """(fn(), raw seconds, rescaled seconds)."""
        start = time.perf_counter()
        value = fn()
        raw = time.perf_counter() - start
        after = host_probe()
        scaled = raw * 2 * PROBE_NOMINAL_S / (self.probe + after)
        self.probe = after
        return value, raw, scaled


def _step(gen):
    try:
        next(gen)
        return False, None
    except StopIteration as stop:
        return True, stop.value


def _attempt(task, run, clock):
    """Run one task; return (raw seconds, rescaled seconds, failures, bound misses).

    A task whose run() is a generator pauses between library calls; each
    piece is timed and rescaled on its own, so a long task follows the host's
    speed changes.
    """
    raw = scaled = 0.0
    try:
        out, raw, scaled = clock.measure(run)
        if inspect.isgenerator(out):
            gen, done = out, False
            while not done:
                (done, out), r, s = clock.measure(lambda: _step(gen))
                raw += r
                scaled += s
    except Exception as exc:  # a raising task is a failed task, listed with its input
        return raw, scaled, [f"{task.label}: raised {type(exc).__name__}: {exc}"], []
    try:
        fails, misses = task.check(out)
    except Exception:
        fails, misses = [f"{task.label}: check raised {traceback.format_exc(limit=2)}"], []
    return raw, scaled, fails, misses


def cycles_for(wl, seconds):
    """Whole cycles that take about ``seconds`` at the workload's nominal speed."""
    return max(1, round(seconds / wl.cycle_s))


def closed_loop(wl, count, make=None, runner=None, stop_after=None):
    """Run tasks 0 .. count-1 back to back (a closed loop with one client).

    With ``stop_after``, no new task starts once that many seconds have
    passed (at least one task runs).
    """
    make = make or wl.task
    records = []
    start = time.perf_counter()
    clock = _Clock()
    i = 0
    while i < count:
        if i and stop_after and time.perf_counter() - start >= stop_after:
            break
        task = make(i)
        run = task.run if runner is None else (lambda: runner(i, lambda: workloads.drain(task.run())))
        raw, latency, fails, misses = _attempt(task, run, clock)
        records.append({"slot": wl.slot_name(i), "raw_latency": raw, "latency": latency,
                        "scale": latency / raw if raw else 1.0, "failures": fails, "misses": misses})
        i += 1
    return records, time.perf_counter() - start


def _tail(latencies):
    """Latency at the highest percentile with at least ten tasks beyond it.

    Below 21 tasks that percentile would sit under the median; the median
    (percentile 50) is reported instead.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _summary(records):
    lat = [r["latency"] for r in records]
    failed = sum(1 for r in records if r["failures"])
    tail, pct = _tail(lat)
    raw = [r["raw_latency"] for r in records]
    sums = [m for r in records for m in r["misses"]]
    slots = {}
    for r in records:
        slots.setdefault(r["slot"], []).append(r["latency"])
    return {
        "attempted": len(records),
        "failed": failed,
        "task_p50_s": statistics.median(lat),
        "task_tail_s": tail,
        "tail_percentile": pct,
        "tasks_per_s": (len(records) - failed) / sum(lat),
        "raw_task_p50_s": statistics.median(raw),
        "raw_task_tail_s": _tail(raw)[0],
        "raw_tasks_per_s": (len(records) - failed) / sum(raw),
        "failures": [f for r in records for f in r["failures"]],
        "bound_misses": sums,
        "slot_p50_s": {k: statistics.median(v) for k, v in slots.items()},
    }


def _peak_rss_mb(wl):
    who = resource.RUSAGE_CHILDREN if isinstance(wl, workloads.CliRoundtrip) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# per-layer metric -> (unit, span it reads or None, value from (layer rows, traced tasks, extras))
def _per_task(span, key):
    return lambda rows, n, x: rows[span][key] / n


def _ratio(span, num, den):
    return lambda rows, n, x: rows[span][num] / rows[span][den] if rows[span][den] else 0.0


def _extra(key):
    return lambda rows, n, x: x[key]


def _layer(span, *keys):
    unit = {"calls": "count/task", "self_s": "s/task"}
    return {f"{span}.{k}": (unit.get(k, "count/task"), span, _per_task(span, k)) for k in keys}


PER_LAYER = {
    **_layer("series.mul", "calls", "self_s", "terms_out"),
    **_layer("series.substitute", "calls", "self_s"),
    **_layer("series.eval_at", "calls", "self_s"),
    **_layer("series.json", "self_s"),
    **_layer("weierstrass.wdivide", "calls", "self_s", "quot_terms"),
    **_layer("weierstrass.p_expand", "self_s"),
    "weierstrass.p_expand.terms_per_coeff": (
        "count", "weierstrass.p_expand", _ratio("weierstrass.p_expand", "terms_out", "coeffs_out")),
    **_layer("weierstrass.t_substitute", "self_s"),
    "scalars.exact_ops": ("count/task", None, _extra("exact_ops")),
    "scalars.float_ops": ("count/task", None, _extra("float_ops")),
    **_layer("transforms.blowup", "self_s"),
    **_layer("transforms.dominant_data", "self_s"),
    **_layer("transforms.poly_roots", "calls", "self_s", "degree_sum"),
    **_layer("gevrey.norm_sequence", "self_s"),
    **_layer("gevrey.fit_gevrey", "self_s"),
    **_layer("harness.gen_example", "self_s"),
    **_layer("harness.verify_ode_formal", "self_s"),
    **_layer("harness.verify_pde_formal", "self_s"),
    **_layer("harness.sample_p_sector", "self_s"),
    **_layer("borel.borel_transform", "self_s"),
    **_layer("borel.build_approximant", "calls", "self_s"),
    "borel.pade.order_used_ratio": (
        "ratio", "borel.build_approximant", _ratio("borel.build_approximant", "order_used", "order_requested")),
    "borel.poles.kept_ratio": ("ratio", "borel.build_approximant", _extra("kept_ratio")),
    **_layer("borel.continue_on_ray", "self_s"),
    **_layer("borel.singular_directions", "self_s"),
    **_layer("borel.laplace_sum", "calls", "self_s", "evals"),
    **_layer("borel.p_k_sum", "self_s"),
    "cli.startup_s": ("s", "cli.child", _extra("cli_startup_s")),
    "cli.compute_share": ("ratio", "cli.child", _extra("cli_compute_share")),
    "trace.overhead_ratio": ("ratio", None, _extra("overhead_ratio")),
    "trace.unattributed_share": ("ratio", None, _ratio("task", "self_s", "wall_s")),
    "trace.tasks": ("count", None, lambda rows, n, x: n),
    "oracle.bound_miss_ratio": ("ratio", None, _extra("bound_miss_ratio")),
}

# why a span can be missing from a workload's tasks, when not simply unused
ABSENT = {
    "harness.sample_p_sector": "germ-sum samples its points during set-up, outside the tasks",
    "cli.child": "only cli-roundtrip starts CLI children",
}


def measure(wl, seconds):
    records, _ = closed_loop(wl, cycles_for(wl, seconds) * wl.cycle)
    out = _summary(records)
    out["peak_rss_mb"] = _peak_rss_mb(wl)
    return out


def _rescaled(fn):
    """fn()'s result (seconds) at the nominal host speed, probed before and after."""
    before = host_probe()
    value = fn()
    return value * 2 * PROBE_NOMINAL_S / (before + host_probe())


def traced(wl, seconds):
    """Untraced pass, traced pass over the same tasks, then a scalar-op count pass."""
    is_cli = isinstance(wl, workloads.CliRoundtrip)
    make = wl.trace_task if is_cli else wl.task
    plain, _ = closed_loop(wl, cycles_for(wl, seconds / 2) * wl.cycle, make=make)
    n = len(plain)
    if is_cli:
        child_s, inproc_s = wl.child_s, wl.inproc_s
    tracer = tracing.Tracer()
    wl.tracer = tracer
    with tracer.install():
        spans, _ = closed_loop(wl, n, make=make, runner=tracer.task)
    wl.tracer = None
    ops = tracing.ScalarOpCounter()
    with ops.install():
        counted, _ = closed_loop(wl, n, make=make, stop_after=seconds / 4)
    rows = tracer.layer_metrics({i: r["scale"] for i, r in enumerate(spans)})
    records = plain + spans + counted
    kept, raw = tracer.pole_counts()
    extras = {
        "exact_ops": ops.exact / len(counted),
        "float_ops": ops.float / len(counted),
        "kept_ratio": kept / raw if raw else 0.0,
        "cli_startup_s": _rescaled(wl.startup_s) if is_cli else 0.0,
        "cli_compute_share": inproc_s / child_s if is_cli else 0.0,
        "overhead_ratio": sum(r["latency"] for r in spans) / sum(r["latency"] for r in plain) - 1,
        "bound_miss_ratio": sum(1 for r in records if r["misses"]) / len(records),
    }
    summary = _summary(records)
    summary["per_layer"] = {name: {"value": fn(rows, n, extras), "unit": unit}
                            for name, (unit, _, fn) in PER_LAYER.items()}
    summary["absent"] = {name: ABSENT.get(span, "layer not called by this workload's tasks")
                         for name, (_, span, _) in PER_LAYER.items()
                         if span is not None and not rows[span]["calls"]}
    summary["peak_rss_mb"] = _peak_rss_mb(wl)
    return summary


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    cls = workloads.WORKLOADS[args.workload]
    cycles = cycles_for(cls, args.seconds / 2 if args.trace else args.seconds)
    wl = cls(args.seed, args.workdir, cycles)
    wl.warm_up()
    raw_setup_s = time.perf_counter() - _START
    scale = 2 * PROBE_NOMINAL_S / (_SETUP_PROBE + host_probe())
    result = {"setup_s": raw_setup_s * scale, "raw_setup_s": raw_setup_s}
    if not args.setup_only:
        result.update(traced(wl, args.seconds) if args.trace else measure(wl, args.seconds))
        result["notes"] = wl.notes()
        result["meta"] = workloads.runtime_meta()
    print(json.dumps(result, default=str))


if __name__ == "__main__":
    main()
