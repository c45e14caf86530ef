#!/usr/bin/env python3
"""A/B the perfbench workloads between a parent revision and this checkout.

    python3 ci/perfbench_ab.py --parent <rev> --workloads gcn-reddit sage-web-1dev \\
        --pairs 10 --seconds 30 --seed0 801 [--json runs.json]

Run from anywhere inside the repository. The parent revision is checked out
with `git worktree` into a temporary directory (removed afterwards); the
change is this checkout, uncommitted edits included. Both trees run
`perfbench/run.py`, which builds its harness from the tree's own sources
into the tree's `.bench_build/`; one discarded warm-up run per tree does
that build before any timed run.

Pair i runs both trees on seed `seed0 + i` at the same run length, the
parent first in even pairs and the change first in odd ones. For every
workload and every end-to-end metric of BENCHMARK.json it prints each
side's median with quartiles, the pairs the change won (ties count for
neither), the median gap against the parent's interquartile range, and a
verdict:

  better      the change won at least 9 of 10 pairs and the medians differ,
              in the metric's better direction, by more than the parent's IQR;
  worse       the change's median is worse than the parent's by more than the
              metric's bound;
  unresolved  neither, and either side's IQR exceeds the bound (relative to
              its median), unless every change run beats every parent run;
  unchanged   otherwise.

Only BENCHMARK.json and perfbench/ are read. Exits 1 when a run fails or any
verdict is `worse`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def run_bench(tree, workload, seed, seconds):
    """One perfbench run in `tree`; returns its result object or None."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        return None
    result = json.loads(lines[-1])
    return result if result.get("correct") else None


def verdict(metric, parent, change):
    lower = metric["better"] == "lower"
    sign = 1.0 if lower else -1.0  # sign * (x - y) > 0: x is worse than y
    won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    gap = sign * (pmed - cmed)  # > 0: the change's median is better
    if won * 10 >= 9 * len(parent) and gap > pq3 - pq1:
        return "better", won
    if pmed > 0 and -gap / pmed > metric["bound"]:
        return "worse", won
    wide = any(med > 0 and (q3 - q1) / med > metric["bound"]
               for q1, med, q3 in ((pq1, pmed, pq3), (cq1, cmed, cq3)))
    worst_change = max(change) if lower else min(change)
    best_parent = min(parent) if lower else max(parent)
    if wide and not sign * (best_parent - worst_change) > 0:
        return "unresolved", won
    return "unchanged", won


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--seed0", type=int, required=True)
    ap.add_argument("--json", help="write every run's metrics here")
    args = ap.parse_args()

    change = Path(__file__).resolve().parent.parent
    bench = json.loads((change / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    tmp = tempfile.mkdtemp(prefix="perfbench-ab-")
    parent = os.path.join(tmp, "parent")
    subprocess.run(["git", "worktree", "add", "--detach", parent, args.parent],
                   cwd=change, check=True, stdout=subprocess.DEVNULL)
    trees = {"parent": parent, "change": str(change)}
    runs = {w: {"parent": [], "change": []} for w in args.workloads}
    ok = True
    try:
        for side, tree in trees.items():  # warm-up: build the harness
            if run_bench(tree, args.workloads[0], args.seed0, 1) is None:
                print(f"{side}: warm-up run failed", file=sys.stderr)
                return 1
        for w in args.workloads:
            for i in range(args.pairs):
                order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
                pair = {s: run_bench(trees[s], w, args.seed0 + i, args.seconds)
                        for s in order}
                if None in pair.values():  # a pair counts only when whole
                    print(f"{w} seed {args.seed0 + i}: a run failed",
                          file=sys.stderr)
                    ok = False
                    continue
                for side, r in pair.items():
                    runs[w][side].append(
                        {m["name"]: r["metrics"][m["name"]]["value"]
                         for m in metrics})
                print(f"{w}: pair {i + 1}/{args.pairs} done", file=sys.stderr)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", parent],
                       cwd=change, check=False)
        subprocess.run(["git", "worktree", "prune"], cwd=change, check=False)
        os.rmdir(tmp)

    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1) + "\n")
    print(f"{'workload':<16}{'metric':<16}{'parent med [q1, q3]':<32}"
          f"{'change med [q1, q3]':<32}{'gap':>8}{'IQR':>8}{'won':>7}  verdict")
    for w in args.workloads:
        n = len(runs[w]["parent"])
        if n == 0:
            continue
        for m in metrics:
            p = [r[m["name"]] for r in runs[w]["parent"]]
            c = [r[m["name"]] for r in runs[w]["change"]]
            pq1, pmed, pq3 = quartiles(p)
            cq1, cmed, cq3 = quartiles(c)
            v, won = verdict(m, p, c)
            ok &= v != "worse"
            gap = (cmed - pmed) / pmed * 100 if pmed else 0.0
            iqr = (pq3 - pq1) / pmed * 100 if pmed else 0.0
            print(f"{w:<16}{m['name']:<16}"
                  f"{f'{pmed:.4g} [{pq1:.4g}, {pq3:.4g}]':<32}"
                  f"{f'{cmed:.4g} [{cq1:.4g}, {cq3:.4g}]':<32}"
                  f"{gap:+7.1f}%{iqr:7.1f}%{f'{won}/{n}':>7}  {v}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
