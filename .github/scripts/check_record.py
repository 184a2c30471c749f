"""Gate a benchmark run on the record ``perfbench/run.py --out FILE`` wrote.

run.py exits 0 even when a task fails or a sum misses its reported error,
so CI reads the last record of the file instead.  Every record must be
``correct`` with no failed task.  An untraced record must also have no
bound misses; a traced one must have measured every layer metric in
``NEEDED`` for its workload: ``perfbench/tracing.py`` patches germsum
functions by name, so a renamed entry point would leave its metric
``absent`` without failing anything else.  A traced metric in ``BOUNDS``
must also lie at or below its bound.

Usage: ``python3 .github/scripts/check_record.py FILE``; exits 1 when the
gate fails.
"""
import json
import sys

NEEDED = {
    "ray-sum": {"borel.laplace_sum.calls", "transforms.poly_roots.calls",
                "borel.build_approximant.calls", "borel.pade.order_used_ratio",
                "borel.poles.kept_ratio"},
    "germ-sum": {"borel.laplace_sum.calls", "transforms.poly_roots.calls",
                 "series.eval_at.self_s", "series.substitute.self_s",
                 "weierstrass.p_expand.terms_per_coeff", "borel.build_approximant.calls"},
    "algebra-exact": {"weierstrass.p_expand.self_s", "weierstrass.t_substitute.self_s"},
}
# the exact germ-sum expansion has one term per coefficient (none in g_0); the
# float expansion drops the round-off left where rounded data cancel, which
# once kept about 20 terms per coefficient; the two point sums of an expansion
# share its two approximants, 2/3 builds per task where one pair per point made 4/3
BOUNDS = {"germ-sum": {"weierstrass.p_expand.terms_per_coeff": 2,
                       "borel.build_approximant.calls": 1}}


def main(path):
    with open(path) as fh:
        r = json.loads(fh.read().splitlines()[-1])
    ok = r["correct"] is True and r["failed"] == 0
    if r["trace"]:
        print("absent:", sorted(r["absent"]))
        ok = ok and not NEEDED[r["workload"]] & set(r["absent"])
        for name, bound in BOUNDS.get(r["workload"], {}).items():
            value = r["metrics"][name]["value"]
            print(f"{name}: {value} (bound {bound})")
            ok = ok and value <= bound
    else:
        print("bound misses:", len(r["bound_misses"]))
        ok = ok and not r["bound_misses"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
