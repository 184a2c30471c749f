"""Paired benchmark runs of a parent revision and the working tree, written as one JSON file.

Run from the repository root:

    python3 .github/scripts/bench_pairs.py --base <rev> --out BENCH_<n>.json \\
        --claim ray-sum:tasks_per_s:1:10 --claim ray-sum:tasks_per_s:4242:10 \\
        --check germ-sum:1:3 --check algebra-exact:1:3 --check cli-roundtrip:1:3 \\
        --trace ray-sum:1:2 --trace germ-sum:1:2 --note "..."

The parent side is ``git archive`` of --base and the change side a copy of
the working tree's src/ and perfbench/, each in its own directory, so that
neither runs from the other's files. Runs go one at a time, each
``perfbench/run.py --workload W --seed S --seconds SECONDS --trace T --out``
(its own set of worker processes), and the two runs of a pair alternate
which side goes first.

* ``--claim W:METRIC:SEED:PAIRS`` runs PAIRS untraced pairs and records, for
  METRIC, every run, each side's median and quartiles, the pairs the change
  wins and whether the claim holds: the change wins at least 9 in 10 pairs
  and its median beats the parent's by more than the parent's
  interquartile range.
* ``--check W:SEED:PAIRS`` runs untraced pairs for the no-regression check.
* ``--trace W:SEED:RUNS`` runs traced runs per side for the per-layer table.

Every child runs with ``PYTHONDONTWRITEBYTECODE=1`` (recorded as ``env`` in the
output), as the ``BENCH_*.json`` runs were made: otherwise cold CLI children
load the bytecode that earlier runs wrote into the trees.

Every untraced workload and seed also gets the median of each end-to-end
metric of BENCHMARK.json per side, their ratio (change/parent) and how much
worse than its bound the change is (positive when worse). ``records`` holds
every record as run.py wrote it, and ``compare`` run.py's --compare output.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
# set in every child's environment, and recorded in the output
CHILD_ENV = {"PYTHONDONTWRITEBYTECODE": "1"}


def _trees(base, workdir):
    """(parent, change) directories: git archive of base, and a copy of the working tree."""
    parent, change = os.path.join(workdir, "parent"), os.path.join(workdir, "change")
    os.makedirs(parent)
    archive = subprocess.run(["git", "-C", ROOT, "archive", base], check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", parent], input=archive.stdout, check=True)
    for sub in ("src", "perfbench"):
        shutil.copytree(os.path.join(ROOT, sub), os.path.join(change, sub),
                        ignore=shutil.ignore_patterns("__pycache__"))
    return parent, change


def _run(tree, workload, seed, seconds, trace, out):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", out]
    subprocess.run(cmd, cwd=tree, env=dict(os.environ, **CHILD_ENV), check=True,
                   capture_output=True)
    with open(out) as fh:
        return json.loads(fh.read().strip().splitlines()[-1])


def _portable(text, workdir):
    """The output with the interpreter as ``python3`` and paths relative to the run's trees."""
    return text.replace(json.dumps(sys.executable)[1:-1], "python3").replace(workdir + os.sep, "")


def _spread(runs):
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="the parent revision")
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--claim", action="append", default=[], help="WORKLOAD:METRIC:SEED:PAIRS")
    ap.add_argument("--check", action="append", default=[], help="WORKLOAD:SEED:PAIRS")
    ap.add_argument("--trace", action="append", default=[], help="WORKLOAD:SEED:RUNS")
    ap.add_argument("--note", default="")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    base = subprocess.run(["git", "-C", ROOT, "rev-parse", args.base], check=True,
                          capture_output=True, text=True).stdout.strip()
    jobs = [(w, int(s), int(n), 0, m) for w, m, s, n in (c.split(":") for c in args.claim)]
    jobs += [(w, int(s), int(n), 0, None) for w, s, n in (c.split(":") for c in args.check)]
    jobs += [(w, int(s), int(n), 1, None) for w, s, n in (c.split(":") for c in args.trace)]
    records = {"parent": [], "change": []}
    runs = {}
    with tempfile.TemporaryDirectory() as workdir:
        trees = dict(zip(("parent", "change"), _trees(base, workdir)))
        for workload, seed, pairs, trace, _ in jobs:
            for i in range(pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    out = os.path.join(workdir, f"{side}-{workload}-{seed}-{trace}-{i}.jsonl")
                    rec = _run(trees[side], workload, seed, args.seconds, trace, out)
                    records[side].append(rec)
                    sides = runs.setdefault((workload, seed, trace), {"parent": [], "change": []})
                    sides[side].append(rec)
                    print(f"{workload} seed {seed} trace {trace} pair {i} {side}: "
                          + " ".join(f"{k}={v['value']:.4g}" for k, v in rec["metrics"].items()
                                     if k in bounds), flush=True)
        paths = {}
        for side, recs in records.items():
            paths[side] = os.path.join(workdir, f"{side}-all.jsonl")
            with open(paths[side], "w") as fh:
                fh.writelines(json.dumps(r, default=str) + "\n" for r in recs)
        compare = subprocess.run([sys.executable, "perfbench/run.py", "--compare", paths["parent"],
                                  paths["change"]], cwd=trees["change"],
                                 env=dict(os.environ, **CHILD_ENV), check=True,
                                 capture_output=True, text=True).stdout.splitlines()
    value = lambda rec, name: rec["metrics"][name]["value"]
    claims = []
    for workload, seed, pairs, _, metric in (j for j in jobs if j[4]):
        sides = runs[(workload, seed, 0)]
        higher = bounds[metric]["better"] == "higher"
        p, c = ([value(r, metric) for r in sides[s]] for s in ("parent", "change"))
        wins = sum((y > x) if higher else (y < x) for x, y in zip(p, c))
        ps, cs = _spread(p), _spread(c)
        iqr = ps["q3"] - ps["q1"]
        gain = cs["median"] - ps["median"] if higher else ps["median"] - cs["median"]
        claims.append({"workload": workload, "metric": metric, "seed": seed, "pairs": pairs,
                       "change_wins": wins, "parent": ps, "change": cs,
                       "median_ratio": cs["median"] / ps["median"], "parent_iqr": iqr,
                       "holds": wins >= 0.9 * pairs and gain > iqr})
    end_to_end, per_layer = {}, {}
    for (workload, seed, trace), sides in runs.items():
        key = f"{workload} seed {seed}" + (" --trace 1" if trace else "")
        row = {"runs_per_side": [len(sides["parent"]), len(sides["change"])],
               "failed": [sum(r["failed"] for r in sides[s]) for s in ("parent", "change")],
               "bound_misses": [sum(len(r["bound_misses"]) for r in sides[s])
                                for s in ("parent", "change")]}
        names = sorted(set().union(*(r["metrics"] for r in sides["parent"] + sides["change"])))
        for name in names:
            got = [[value(r, name) for r in sides[s] if name in r["metrics"]]
                   for s in ("parent", "change")]
            if not all(got):
                continue
            med = [statistics.median(g) for g in got]
            if trace:
                row[name] = med
                continue
            ratio = med[1] / med[0] if med[0] else None
            worse = None if ratio is None else (
                ratio - 1 if bounds[name]["better"] == "lower" else 1 - ratio)
            row[name] = {"parent": med[0], "change": med[1], "ratio": ratio, "worse_by": worse,
                         "within_bound": worse is not None and worse <= bounds[name]["bound"]}
        (per_layer if trace else end_to_end)[key] = row
    script = ["python3 .github/scripts/bench_pairs.py --base", args.base,
              f"--seconds {args.seconds:g}"]
    script += [f"--{k} {v}" for k in ("claim", "check", "trace") for v in getattr(args, k)]
    text = json.dumps({"parent_commit": base,
                       "command": "python3 perfbench/run.py --workload <name> --seed <seed> "
                                  f"--seconds {args.seconds:g} --trace <0|1> --out <file>",
                       "script": " ".join(script), "env": CHILD_ENV, "note": args.note,
                       "claim": claims,
                       "end_to_end": end_to_end, "per_layer": per_layer, "compare": compare,
                       "records": records}, indent=1, default=str)
    with open(args.out, "w") as fh:
        fh.write(_portable(text, workdir) + "\n")
    return 0 if all(c["holds"] for c in claims) else 1


if __name__ == "__main__":
    sys.exit(main())
