#!/usr/bin/env python3
"""Bench regression gates for the kernel layer and the tensor pool.

Kernel mode (default): compares fresh `micro_primitives --kernels-report`
JSONs against the committed baseline (BENCH_kernels.json at the repo root) and
fails when any kernel regressed by more than the allowed fraction. Given
several reports (CI passes three runs), each metric of each row is gated on
its median across them: a single run's ratio swings by more than the limit on
a shared host, the median of three does not. Entries
are keyed on (kernel, threads) — the report records each kernel at a
single-thread tier and a pinned multi-thread tier, and the two must be gated
independently (a parallel-scaling regression must not hide behind a healthy
single-thread ratio).

By default the gate compares the `speedup` field (blocked-backend throughput
normalized by the reference backend measured in the same process on the same
machine) and, for rows that record it, the `banded_speedup` field (the
propagation-blocked EdgeSchedule path, same normalization) — each gated
independently, so losing the banded d64 win cannot hide behind a healthy
single-pass ratio. The codec_* rows (mixed-precision comm encode/decode/
decode-accumulate, kernels/codec.h) ride the same `speedup` gate: their
ratio is the `omp simd` path over the scalar reference loop. Absolute B/s or FLOP/s numbers are useless across
machines — a CI runner is not the workstation that recorded the baseline —
but the ratio cancels the machine out, so a drop means the kernel itself got
slower relative to the scalar loops it replaced. Pass --absolute to compare
raw `blocked_throughput`/`banded_throughput` instead (only meaningful on the
baseline machine).

Memory mode (--memory): compares `table1_memory` BENCH_memory.json reports,
keyed on `config`. The gate is on allocation-count growth: a config whose
`steady_alloc_count` grew over the baseline fails (the committed baseline
records 0 — zero heap allocations in steady-state epochs — so any growth
means someone put an allocation back on the chunk-loop hot path).
Wall-clock columns are printed for information but not gated (they are
machine-dependent).

Pipeline mode (--pipeline): compares `fig11_scalability` BENCH_pipeline.json
reports, keyed on (model, dataset). The sim-time speedups of the stage
pipeline at max_inflight 3 over the same engine at max_inflight 1 (batches
in order; `speedup`, `bf16_speedup`) must not drop more than
--max-regression below the baseline: the analytic simulator is
deterministic and machine-independent, so a drop means the pipeline's
modeled schedule itself got worse.

Exit codes: 0 = no regression, 1 = regression or malformed input.
"""

import argparse
import json
import statistics
import sys


def load_results(path, key_fields):
    with open(path, "r", encoding="utf-8") as f:
        report = json.load(f)
    results = report.get("results")
    if not isinstance(results, list) or not results:
        raise ValueError(f"{path}: no 'results' array")
    out = {}
    for entry in results:
        key = tuple(entry.get(k) for k in key_fields)
        if key[0] is None:
            raise ValueError(
                f"{path}: result entry without '{key_fields[0]}': {entry}")
        out[key] = entry
    return out


def key_name(key):
    if len(key) == 1 or key[1] is None:
        return str(key[0])
    return f"{key[0]} (threads={key[1]})"


def check_kernels(args):
    baseline = load_results(args.baseline, ("kernel", "threads"))
    runs = [load_results(path, ("kernel", "threads")) for path in args.current]
    # A row is current only when every run reports it; its metrics are then
    # the medians across the runs (a metric missing from any run is missing).
    current = {}
    for key in set.intersection(*(set(run) for run in runs)):
        row = {}
        for metric in set.intersection(*(set(run[key]) for run in runs)):
            values = [run[key][metric] for run in runs]
            if all(isinstance(v, (int, float)) for v in values):
                row[metric] = statistics.median(values)
        current[key] = row
    if args.absolute:
        metrics = ("blocked_throughput", "banded_throughput")
    else:
        metrics = ("speedup", "banded_speedup")
    failures = []
    gated = 0
    for key, base in sorted(baseline.items()):
        name = key_name(key)
        if key not in current:
            failures.append(f"{name}: missing from current report")
            continue
        for metric in metrics:
            base_v = base.get(metric)
            if base_v is None and metric != metrics[0]:
                continue  # baseline row predates / lacks the banded column
            cur_v = current[key].get(metric)
            if not isinstance(base_v, (int, float)) or base_v <= 0:
                failures.append(f"{name}: baseline has no usable '{metric}'")
                continue
            if not isinstance(cur_v, (int, float)) or cur_v <= 0:
                failures.append(
                    f"{name}: current report has no usable '{metric}'")
                continue
            gated += 1
            change = cur_v / base_v - 1.0
            status = "OK"
            if change < -args.max_regression:
                status = "REGRESSION"
                failures.append(
                    f"{name}: {metric} {base_v:.4g} -> {cur_v:.4g} "
                    f"({change:+.1%}, limit -{args.max_regression:.0%})"
                )
            print(f"  {status:<10} {name:<44} {metric:<14} {base_v:.4g} -> "
                  f"{cur_v:.4g} ({change:+.1%})")

    for key in sorted(set(current) - set(baseline)):
        print(f"  NEW        {key_name(key)} (not in baseline; not gated)")

    if len(runs) > 1:
        print(f"\n(current values are medians of {len(runs)} reports)")
    if failures:
        print("\nBench regression gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nBench regression gate passed ({gated} gated metrics over "
          f"{len(baseline)} kernels, limit -{args.max_regression:.0%}).")
    return 0


def single_report(args):
    if len(args.current) != 1:
        raise ValueError("--memory and --pipeline take one current report")
    return args.current[0]


def check_memory(args):
    baseline = load_results(args.baseline, ("config",))
    current = load_results(single_report(args), ("config",))
    failures = []
    for key, base in sorted(baseline.items()):
        name = key_name(key)
        if key not in current:
            failures.append(f"{name}: missing from current report")
            continue
        cur = current[key]
        if "error" in base:
            print(f"  SKIP       {name} (baseline recorded an error)")
            continue
        if "error" in cur:
            failures.append(f"{name}: current run failed: {cur['error']}")
            continue
        base_allocs = base.get("steady_alloc_count")
        cur_allocs = cur.get("steady_alloc_count")
        if not isinstance(base_allocs, int) or not isinstance(cur_allocs, int):
            failures.append(f"{name}: missing steady_alloc_count")
            continue
        status = "OK"
        if cur_allocs > base_allocs + args.max_alloc_growth:
            status = "REGRESSION"
            failures.append(
                f"{name}: steady_alloc_count {base_allocs} -> {cur_allocs} "
                f"(allowed growth {args.max_alloc_growth})"
            )
        speed = cur.get("wall_speedup")
        speed_s = f"pool speedup {speed:.2f}x" if isinstance(
            speed, (int, float)) else ""
        print(f"  {status:<10} {name:<28} steady allocs {base_allocs} -> "
              f"{cur_allocs}  {speed_s}")

    for key in sorted(set(current) - set(baseline)):
        print(f"  NEW        {key_name(key)} (not in baseline; not gated)")

    if failures:
        print("\nMemory regression gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nMemory regression gate passed ({len(baseline)} configs, "
          f"allowed alloc growth {args.max_alloc_growth}).")
    return 0


def check_pipeline(args):
    baseline = load_results(args.baseline, ("model", "dataset"))
    current = load_results(single_report(args), ("model", "dataset"))
    metrics = ("speedup", "bf16_speedup")
    failures = []
    gated = 0
    for key, base in sorted(baseline.items()):
        name = f"{key[0]}/{key[1]}"
        if key not in current:
            failures.append(f"{name}: missing from current report")
            continue
        cur = current[key]
        if "error" in base:
            print(f"  SKIP       {name} (baseline recorded an error)")
            continue
        if "error" in cur:
            failures.append(f"{name}: current run failed: {cur['error']}")
            continue
        for metric in metrics:
            base_v = base.get(metric)
            if base_v is None:
                continue  # baseline row predates this column
            cur_v = cur.get(metric)
            if not isinstance(cur_v, (int, float)) or cur_v <= 0:
                failures.append(
                    f"{name}: current report has no usable '{metric}'")
                continue
            gated += 1
            change = cur_v / base_v - 1.0
            status = "OK"
            if change < -args.max_regression:
                status = "REGRESSION"
                failures.append(
                    f"{name}: {metric} {base_v:.4g} -> {cur_v:.4g} "
                    f"({change:+.1%}, limit -{args.max_regression:.0%})"
                )
            print(f"  {status:<10} {name:<28} {metric:<18} {base_v:.4g} -> "
                  f"{cur_v:.4g} ({change:+.1%})")

    for key in sorted(set(current) - set(baseline)):
        print(f"  NEW        {key_name(key)} (not in baseline; not gated)")

    if failures:
        print("\nPipeline regression gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nPipeline regression gate passed ({gated} gated metrics over "
          f"{len(baseline)} configs, limit -{args.max_regression:.0%}).")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument(
        "current",
        nargs="+",
        help="freshly generated report(s); kernel mode gates the per-row "
        "median of several",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="kernel mode: allowed fractional drop per kernel (default 0.25)",
    )
    parser.add_argument(
        "--absolute",
        action="store_true",
        help="kernel mode: compare blocked_throughput instead of speedup",
    )
    parser.add_argument(
        "--memory",
        action="store_true",
        help="gate BENCH_memory.json allocation counts instead of kernels",
    )
    parser.add_argument(
        "--max-alloc-growth",
        type=int,
        default=0,
        help="memory mode: allowed steady_alloc_count growth (default 0)",
    )
    parser.add_argument(
        "--pipeline",
        action="store_true",
        help="gate BENCH_pipeline.json pipeline speedups instead of kernels",
    )
    args = parser.parse_args()

    try:
        if args.memory:
            return check_memory(args)
        if args.pipeline:
            return check_pipeline(args)
        return check_kernels(args)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"ERROR: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
