"""Benchmark of the germsum chain: germ expansion, Gevrey fit and Borel-Laplace sums.

Run from the repository root:

    python3 perfbench/run.py --workload ray-sum --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload germ-sum --seed 1 --seconds 15 --trace 0 --out a.jsonl
    python3 perfbench/run.py --compare old.jsonl new.jsonl

Each measurement starts ``SETUP_SAMPLES`` fresh worker processes: all of
them import germsum, build the seeded inputs and run one warm-up task
(``setup_s`` is their median); the last one then measures. ``--trace 1``
reports the per-layer metrics instead of the end-to-end ones. The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines above it name every metric with its unit and
sample count, the run metadata, every failed task and every sum whose
reported error was below its true error. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("algebra-exact", "ray-sum", "germ-sum", "cli-roundtrip")
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170

# name -> (unit, summary key); all are end-to-end metrics of a --trace 0 run
END_TO_END = {
    "setup_s": ("s", "setup_s"),
    "task_p50_s": ("s", "task_p50_s"),
    "task_tail_s": ("s", "task_tail_s"),
    "tasks_per_s": ("1/s", "tasks_per_s"),
    "peak_rss_mb": ("MB", "peak_rss_mb"),
    "ok_ratio": ("ratio", "ok_ratio"),
}


def _source_meta():
    """Commit (when the tree is a git checkout) and a digest of the library source."""
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(path):
                with open(path) as fh:
                    commit = fh.read().strip()
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "germsum")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def _worker(args, workdir, deadline, setup_only):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    env = {k: v for k, v in os.environ.items() if k != "GERMSUM_PREC_BITS"}
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_one(args):
    """Set up SETUP_SAMPLES times (the last one measures) and build the record."""
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = os.path.join(HERE, ".work", f"{os.getpid()}-{args.workload}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = [(r["setup_s"], r["raw_setup_s"])
                  for r in (_worker(args, workdir, deadline, True) for _ in range(SETUP_SAMPLES - 1))]
        result = _worker(args, workdir, deadline, False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append((result["setup_s"], result["raw_setup_s"]))
    result["setup_s"] = statistics.median(s for s, _ in setups)
    result["raw_setup_s"] = statistics.median(raw for _, raw in setups)
    result["ok_ratio"] = (result["attempted"] - result["failed"]) / result["attempted"]
    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {name: {"value": result[key], "unit": unit} for name, (unit, key) in END_TO_END.items()}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "meta": {**_source_meta(), **result["meta"]},
        "setup_samples_s": [s for s, _ in setups],
        "correct": result["failed"] == 0,
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": metrics,
        "summary": {k: result[k] for k in ("task_p50_s", "task_tail_s", "tail_percentile",
                                            "tasks_per_s", "peak_rss_mb", "ok_ratio", "slot_p50_s",
                                            "raw_setup_s", "raw_task_p50_s", "raw_task_tail_s",
                                            "raw_tasks_per_s")},
        "failures": result["failures"], "bound_misses": result["bound_misses"],
        "absent": result.get("absent", {}), "notes": result["notes"],
    }


def _print_record(rec):
    n = rec["attempted"]
    s = rec["summary"]
    print(f"== {rec['workload']}  seed={rec['seed']} seconds={rec['seconds']} trace={rec['trace']}")
    print("meta " + json.dumps(rec["meta"], sort_keys=True))
    samples = {
        "setup_s": f"median of {len(rec['setup_samples_s'])} fresh-process set-ups",
        "task_p50_s": f"{n} tasks",
        "task_tail_s": f"p{s['tail_percentile']:.1f} of {n} tasks",
        "tasks_per_s": f"{n - rec['failed']} completed tasks / summed task wall",
        "peak_rss_mb": ("CLI children" if rec["workload"] == "cli-roundtrip" else "benchmark process"),
        "ok_ratio": f"{n - rec['failed']} of {n} tasks passed their oracles",
    }
    print(f"{'metric':40s} {'value':>14s}  {'unit':10s} samples")
    for name, m in rec["metrics"].items():
        print(f"{name:40s} {m['value']:14.6g}  {m['unit']:10s} {samples.get(name, '')}")
    print("raw wall, not rescaled to the nominal host speed: " + "  ".join(
        f"{k[4:]}={s[k]:.6g}" for k in ("raw_setup_s", "raw_task_p50_s", "raw_task_tail_s", "raw_tasks_per_s")))
    print(f"{'failed_ratio':40s} {rec['failed'] / n:14.6g}  {'ratio':10s} {rec['failed']} of {n} tasks failed")
    for name, why in rec["absent"].items():
        print(f"absent {name}: {why}")
    print("slot_p50_s " + json.dumps({k: round(v, 4) for k, v in s["slot_p50_s"].items()}))
    print("notes " + json.dumps(rec["notes"], sort_keys=True, default=str))
    print(f"bound misses: {len(rec['bound_misses'])} sum(s) with |error| above the reported total_error")
    for line in rec["bound_misses"]:
        print("  MISS " + line)
    print(f"failures: {len(rec['failures'])}")
    for line in rec["failures"]:
        print("  FAIL " + line)


def _compare(old_path, new_path):
    def load(path):
        groups = {}
        with open(path) as fh:
            for line in fh:
                if line.strip():
                    rec = json.loads(line)
                    for name, m in rec["metrics"].items():
                        groups.setdefault((rec["workload"], rec["trace"]), {}).setdefault(name, []).append(m["value"])
        return {k: {n: statistics.median(v) for n, v in ms.items()} for k, ms in groups.items()}

    old, new = load(old_path), load(new_path)
    print(f"ratio new/old per metric (medians over records): old={old_path} new={new_path}")
    for key in sorted(set(old) & set(new)):
        cells = []
        for name, a in old[key].items():
            b = new[key].get(name)
            if b is not None:
                cells.append(f"{name}={b / a:.3f}" if a else f"{name}={a:g}->{b:g}")
        print(f"{key[0]}{' (trace)' if key[1] else ''}: " + "  ".join(cells))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full record(s) as JSON lines to this file")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="print each metric's ratio between two --out files")
    args = ap.parse_args()
    if args.compare:
        _compare(*args.compare)
        return 0
    if not args.workload:
        ap.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "germsum", "__init__.py")):
        print(f"perfbench: no germsum source at {os.path.join(ROOT, 'src', 'germsum')}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        args.workload = name
        try:
            rec = run_one(args)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        _print_record(rec)
        records.append(rec)
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps(rec, default=str) + "\n")
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in records),
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
