"""Gate a benchmark run on the record ``perfbench/run.py --out FILE`` wrote.

run.py exits 0 even when a task fails or a sum misses its reported error,
so CI reads the last record of the file instead.  Every record must be
``correct`` with no failed task.  An untraced record must also have no
bound misses; a traced one must have measured every layer metric in
``NEEDED`` for its workload: ``perfbench/tracing.py`` patches germsum
functions by name, so a renamed entry point would leave its metric
``absent`` without failing anything else.

Usage: ``python3 .github/scripts/check_record.py FILE``; exits 1 when the
gate fails.
"""
import json
import sys

NEEDED = {
    "ray-sum": {"borel.laplace_sum.calls", "transforms.poly_roots.calls"},
    "germ-sum": {"borel.laplace_sum.calls", "transforms.poly_roots.calls",
                 "series.eval_at.self_s", "series.substitute.self_s"},
    "algebra-exact": {"weierstrass.p_expand.self_s", "weierstrass.t_substitute.self_s"},
}


def main(path):
    with open(path) as fh:
        r = json.loads(fh.read().splitlines()[-1])
    ok = r["correct"] is True and r["failed"] == 0
    if r["trace"]:
        print("absent:", sorted(r["absent"]))
        ok = ok and not NEEDED[r["workload"]] & set(r["absent"])
    else:
        print("bound misses:", len(r["bound_misses"]))
        ok = ok and not r["bound_misses"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
