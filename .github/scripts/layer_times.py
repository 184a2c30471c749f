"""Per-layer timings, in this process, on the benchmark's own seeded task inputs.

Run from the repository root:

    python3 .github/scripts/layer_times.py --seed 1 --runs 8 --repeats 7 --out B.json
    python3 .github/scripts/layer_times.py --root ../parent --seed 1 --runs 8 --repeats 7 --out A.json

Each layer is timed on the inputs that ``perfbench/workloads.py`` of the tree
at --root (default: the repository this script lies in) builds for one cycle
at the seed; that file is imported, as ``output_hashes.py`` imports it, and
only read:

* ``expand-float``: ``p_expand`` of each germ-sum instance's lambda-scaled f
  in powers of its lambda-scaled P, to the instance's depth (the float
  elimination by P - t of germ-sum's expand slots);
* ``substitute``: the lambda-scaling ``substitute(f, images)`` of each
  germ-sum instance's f;
* ``expand-exact``: ``p_expand`` of each algebra-exact chain's blown-up f in
  powers of its blown-up P (the exact elimination);
* ``t-substitute``: ``t_substitute`` of each of those expansions.

The inputs are built once, before any timing. In one run a layer's time is the
sum over its inputs of the best of --repeats calls on each; the layers take
turns within a run. The output is JSON: per layer the median over --runs runs,
every run and the number of inputs, in seconds, with the seed, the working
precision and the machine. A summary line per layer goes to stderr.
"""
import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def inputs(root, seed, workdir):
    """{layer: [zero-argument call]} on one cycle of the tree's seeded task inputs."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import workloads
    import germsum as gs

    germ_sum = workloads.GermSum(seed, workdir, 1)
    floats, scalings = [], []
    for inst in germ_sum.instances:
        f, p, images, depth = inst["f"], inst["p"], inst["images"], inst["depth"]
        fs, germ = gs.substitute(f, images), gs.Germ(gs.substitute(p, images), gs.MonomialOrder((1, 1)))
        floats.append(lambda fs=fs, germ=germ, depth=depth: gs.p_expand(fs, germ, depth))
        scalings.append(lambda f=f, images=images: gs.substitute(f, images))
    exacts, backs = [], []
    for inp in workloads.AlgebraExact(seed, workdir, 1).inputs:
        if inp["kind"] != "chain":
            continue
        fb = gs.blowup(inp["f"], inp["xi"])
        germ = gs.Germ(gs.blowup(inp["p"], inp["xi"]), gs.MonomialOrder(inp["weights"]))
        depth = fb.trunc // germ.lead_degree + 1
        exacts.append(lambda fb=fb, germ=germ, depth=depth: gs.p_expand(fb, germ, depth))
        expansion = gs.p_expand(fb, germ, depth)
        backs.append(lambda expansion=expansion: gs.t_substitute(expansion))
    meta = {"prec_bits": gs.DEFAULT_PREC_BITS}
    return {"expand-float": floats, "substitute": scalings, "expand-exact": exacts,
            "t-substitute": backs}, meta


def best_sum(calls, repeats):
    """Sum over the calls of the best of ``repeats`` timings of each."""
    total = 0.0
    for call in calls:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            call()
            best = min(best, time.perf_counter() - start)
        total += best
    return total


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=ROOT, help="tree whose src/ and perfbench/ are timed")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=5, help="runs the median is taken over")
    ap.add_argument("--repeats", type=int, default=5, help="calls per input; the best is kept")
    ap.add_argument("--out", help="write the JSON here (default: stdout)")
    args = ap.parse_args()
    if args.runs < 1 or args.repeats < 1:
        ap.error("--runs and --repeats must be at least 1")
    with tempfile.TemporaryDirectory() as workdir:
        layers, meta = inputs(os.path.abspath(args.root), args.seed, workdir)
    runs = {name: [] for name in layers}
    for _ in range(args.runs):
        for name, calls in layers.items():
            runs[name].append(best_sum(calls, args.repeats))
    result = {
        "root": os.path.abspath(args.root), "seed": args.seed, "runs": args.runs,
        "repeats": args.repeats, **meta, "python": platform.python_version(),
        "machine": platform.machine(), "nproc": os.cpu_count(),
        "layers": {name: {"median_s": statistics.median(times), "runs_s": times,
                          "inputs": len(layers[name])} for name, times in runs.items()},
    }
    for name, row in result["layers"].items():
        print(f"{name}: median {row['median_s'] * 1e3:.2f} ms over {row['inputs']} inputs",
              file=sys.stderr)
    text = json.dumps(result, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
