"""Output hashes of the benchmark tasks and the verify reports, to show a change moves no result.

Run from the repository root:

    python3 .github/scripts/output_hashes.py --seeds 1 7 1001 2718 3031 --out B.json
    python3 .github/scripts/output_hashes.py --root ../parent --seeds 1 7 --out A.json
    python3 .github/scripts/output_hashes.py --compare A.json B.json

The first two forms run, in this process, one cycle of the algebra-exact,
ray-sum and germ-sum workloads at each seed, with the tasks that
``perfbench/workloads.py`` of the tree at --root builds (default: the
repository this script lies in), and build cli-roundtrip's in-process
reference of each CLI command at each seed (the JSON its children are checked
against), then run ``germsum.harness.verify_example`` for each of the three
examples at its default truncation.  They write one SHA-256 per result as
JSON, ``{label: hash}``, labelled by workload, seed and task index (a CLI
reference by its command, the verify reports by example name).  A hash is
taken over a canonical form of the result:

* a series by its dimension, truncation and sorted terms, each with its
  coefficient's type and value (mpf/mpc by their raw tuples, so two floats
  agree only bit for bit);
* a record (``scalars.Record``: the germ, the expansion, a sum, ...) by its
  class name and fields; dicts by their sorted items, lists and tuples item by
  item, and Python floats by ``repr``.

A task that raises is hashed as its exception's type and message.

``--compare A B`` prints every label whose hash differs, or that only one
file has, and exits 1 if there is any; otherwise it prints the number of
equal hashes and exits 0.
"""
import argparse
import hashlib
import json
import os
import sys
import tempfile
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
WORKLOADS = ("algebra-exact", "ray-sum", "germ-sum")
EXAMPLES = ("remark79", "ode-euler", "pde-quasihom")


def canonical(x):
    """A nested tuple of str, int and bool that determines x (see the module docstring)."""
    import mpmath
    from germsum.scalars import Record
    from germsum.series import TruncatedSeries

    if x is None or isinstance(x, (bool, int, str)):
        return (type(x).__name__, x)
    if isinstance(x, float):
        return ("float", repr(x))
    if isinstance(x, complex):
        return ("complex", repr(x))
    if isinstance(x, Fraction):
        return ("Fraction", x.numerator, x.denominator)
    if isinstance(x, mpmath.mpf):
        return ("mpf", repr(x._mpf_))
    if isinstance(x, mpmath.mpc):
        return ("mpc", repr(x._mpc_))
    if isinstance(x, TruncatedSeries):
        return ("series", x.dim, x.trunc,
                tuple((e, canonical(c)) for e, c in sorted(x.terms.items())))
    if isinstance(x, Record):  # QQi keeps slots in place of fields
        return (type(x).__name__,) + tuple((n, canonical(getattr(x, n)))
                                           for n in x._fields or x.__slots__)
    if isinstance(x, dict):
        return ("dict", tuple(sorted((repr(canonical(k)), canonical(v)) for k, v in x.items())))
    if isinstance(x, (list, tuple)):
        return (type(x).__name__, tuple(canonical(v) for v in x))
    raise TypeError(f"no canonical form for {type(x).__name__}")


def digest(x):
    return hashlib.sha256(repr(canonical(x)).encode()).hexdigest()


def hashes(root, seeds, workdir):
    """{label: hash} of every task of one cycle per workload and seed, of every CLI
    reference per seed, and of the verify reports."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import workloads
    from germsum.harness import verify_example

    out = {}
    for name in WORKLOADS:
        for seed in seeds:
            wl = workloads.WORKLOADS[name](seed, workdir, 1)
            for i in range(wl.cycle):
                try:
                    result = workloads.drain(wl.task(i).run())
                except Exception as exc:  # a raising task is hashed as its exception
                    result = (type(exc).__name__, str(exc))
                out[f"{name} seed={seed} #{i} {wl.slot_name(i)}"] = digest(result)
    for seed in seeds:
        for command, reference in workloads.CliRoundtrip(seed, workdir, 1).expected.items():
            out[f"cli-roundtrip seed={seed} {command}"] = digest(reference)
    for name in EXAMPLES:
        out[f"verify {name}"] = digest(verify_example(name))
    return out


def compare(path_a, path_b):
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    differ = [k for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]
    for k in differ:
        print(f"differs: {k}" if k in a and k in b else f"only in {path_a if k in a else path_b}: {k}")
    if not differ:
        print(f"{len(a)} task results hash the same")
    return 1 if differ else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=ROOT, help="tree whose src/ and perfbench/ are run")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--out", help="write the hashes here (default: stdout)")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    with tempfile.TemporaryDirectory() as workdir:
        text = json.dumps(hashes(os.path.abspath(args.root), args.seeds, workdir), indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
