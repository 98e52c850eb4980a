"""Paired benchmark runs of a base commit against the working tree.

Extracts the committed files of ``--base`` with ``git archive`` into a
temporary directory, so an interrupted run leaves nothing registered in
the repository.  Then it runs ``perfbench/run.py --trace 0`` of that tree
and of this checkout's working tree ``--pairs`` times each, alternating
which side runs first (the base first in even pairs), with seeds
``--seed``, ``--seed + 1``, ...  For each end-to-end metric in
``BENCHMARK.json`` it prints:

- both sides' medians and quartiles (``statistics.quantiles``, inclusive);
- the median change relative to the base;
- the base's interquartile range;
- the pairs the change won, ties counting for neither side;
- whether the claim rule holds: the change wins at least nine tenths of
  the pairs, and the medians differ in the better direction by more than
  the base's interquartile range;
- its bound check, with the metric's ``bound`` read as a fraction of the
  base's median: "unresolved" where the base's interquartile range is
  wider than that bound and not every change run beats every base run,
  else "regression" where the change's median is worse than the base's
  by more than the bound, else "within bound".

Run it from the root of a checkout:

    python3 scripts/bench_pairs.py --base HEAD --workload oracle --pairs 10

``--json FILE`` also writes every run's metrics and the summary.  A run
that exits nonzero, is not correct or fails an operation stops the script
with exit status 1.  The temporary tree is removed on exit.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def extract(ref, dest):
    """Write the committed files of ``ref`` under ``dest``."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", ref], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_once(tree, workload, seed, seconds):
    """Metrics of one ``--trace 0`` run of ``perfbench/run.py`` in ``tree``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"] or result["failed"]:
        sys.exit(f"error: {' '.join(cmd)} in {tree} exited "
                 f"{proc.returncode}:\n{proc.stdout[-2000:]}"
                 f"{proc.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs, spec):
    """One metric's statistics over ``runs``, a list of (base, change)
    metric dicts, with ``spec`` its ``BENCHMARK.json`` entry."""
    name, sign = spec["name"], (1 if spec["better"] == "lower" else -1)
    base = [b[name] for b, _ in runs]
    change = [c[name] for _, c in runs]
    wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    b, c = quartiles(base), quartiles(change)
    iqr = b["q3"] - b["q1"]
    bound = spec["bound"] * abs(b["median"])
    if iqr > bound and not all(sign * (x - y) < 0
                               for x in change for y in base):
        check = "unresolved"
    elif sign * (c["median"] - b["median"]) > bound:
        check = "regression"
    else:
        check = "within bound"
    return {
        "base": b, "change": c,
        "median_change": (c["median"] - b["median"]) / b["median"]
        if b["median"] else 0.0,
        "base_iqr": iqr,
        "change_won": wins,
        "claim_rule_holds": wins >= math.ceil(0.9 * len(runs))
        and sign * (b["median"] - c["median"]) > iqr,
        "bound_check": check,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="git ref of the base commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length in seconds (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair")
    parser.add_argument("--json", default=None,
                        help="also write the runs and the summary here")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds

    base_tree = tempfile.mkdtemp(prefix="bench-base-")
    try:
        extract(args.base, base_tree)
        runs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = (base_tree, ROOT) if i % 2 == 0 else (ROOT, base_tree)
            got = {tree: run_once(tree, args.workload, seed, seconds)
                   for tree in order}
            runs.append((got[base_tree], got[ROOT]))
            print(f"pair {i + 1}/{args.pairs} seed {seed}: wall_s base "
                  f"{got[base_tree]['wall_s']:.4f} change "
                  f"{got[ROOT]['wall_s']:.4f}", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)

    summary = {spec["name"]: summarize(runs, spec)
               for spec in bench["end_to_end"]}
    print(f"{args.workload}: {args.pairs} pairs, --seconds {seconds:g}, "
          f"seeds {args.seed}-{args.seed + args.pairs - 1}, base {args.base}")
    print(f"{'metric':<12} {'base median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'change':>8} {'base IQR':>10} "
          f"{'won':>6}  {'claim rule':<13}  bound check")
    for name, s in summary.items():
        b, c = (f"{q['median']:.6g} [{q['q1']:.6g}, {q['q3']:.6g}]"
                for q in (s["base"], s["change"]))
        print(f"{name:<12} {b:<32} {c:<32} {s['median_change']:>+8.1%} "
              f"{s['base_iqr']:>10.4g} {s['change_won']:>3}/{args.pairs:<2}  "
              f"{'holds' if s['claim_rule_holds'] else 'does not hold':<13}  "
              f"{s['bound_check']}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "base": args.base,
                       "pairs": args.pairs, "seconds": seconds,
                       "seeds": [args.seed, args.seed + args.pairs - 1],
                       "runs": [{"base": b, "change": c} for b, c in runs],
                       "metrics": summary}, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
