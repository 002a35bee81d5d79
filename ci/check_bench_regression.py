#!/usr/bin/env python3
"""Compare BENCH_*.json results against the checked-in baseline.

Usage:
    check_bench_regression.py [--baseline ci/bench_baseline.json]
                              [--threshold 0.30] [--update] BENCH_*.json ...

Each input file is a google-benchmark JSON report as emitted by
MICROSCOPE_BENCH_MAIN (bench/bench_util.hpp). The baseline maps
"<file-stem>/<benchmark-name>" to a reference cpu_time in nanoseconds.
A benchmark regresses when its cpu_time exceeds baseline * (1 + threshold).
cpu_time counts only the benchmark's own thread, so each log line and
--report entry also carries the wall-clock real_time, from which
thread-scaling figures are read; it is never gated.

Reports carry the compile-time build type in their context
("microscope_build_type", stamped by bench_main.hpp); the baseline records
it under "__build_type__". A mismatch between the two — or between input
files — aborts loudly before any comparison: comparing a RelWithDebInfo
run against a Release baseline measures the compiler, not the change.

Benchmarks missing from the baseline are reported but do not fail the run
(new benchmarks need --update to be enrolled). Baseline entries missing
from the inputs fail only when their bench binary (file stem) was part of
this run — silently dropping a benchmark from a suite is caught, while
running a subset of the suites (or a baseline that already includes a
benchmark the run didn't build) just notes the skipped stems.

Exit status: 0 clean, 1 regression (or missing benchmark), 2 usage error.
"""

import argparse
import json
import os
import sys


BUILD_TYPE_KEY = "__build_type__"


def load_results(paths):
    """-> ({key: cpu_time_ns}, {key: real_time_ns}, build_type, {file stems}).

    key = '<file-stem>/<benchmark name>'. Aborts (exit 2) when the input
    reports disagree about (or omit) the build type they were compiled as.
    """
    results = {}
    real = {}
    stems = set()
    build_type = None
    for path in paths:
        stem = os.path.basename(path)
        if stem.startswith("BENCH_"):
            stem = stem[len("BENCH_"):]
        if stem.endswith(".json"):
            stem = stem[: -len(".json")]
        stems.add(stem)
        with open(path) as f:
            report = json.load(f)
        bt = report.get("context", {}).get("microscope_build_type")
        if bt is None:
            sys.exit(f"ERROR: {path} carries no microscope_build_type "
                     "context — rebuild the bench (bench_main.hpp stamps "
                     "it) instead of comparing unidentifiable binaries")
        if build_type is None:
            build_type = bt
        elif bt != build_type:
            sys.exit(f"ERROR: mixed build types in inputs: {path} is "
                     f"'{bt}' but earlier files are '{build_type}'")
        for bench in report.get("benchmarks", []):
            # Skip aggregate rows (mean/median/stddev of repetitions).
            if bench.get("run_type") == "aggregate":
                continue
            unit = bench.get("time_unit", "ns")
            key = f"{stem}/{bench['name']}"
            results[key] = to_ns(bench["cpu_time"], unit)
            real[key] = to_ns(bench["real_time"], unit)
    return results, real, build_type, stems


def to_ns(value, unit):
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    if unit not in scale:
        sys.exit(f"unknown time_unit {unit!r}")
    return value * scale[unit]


def cpu_flags():
    """ISA feature flags of the machine that ran the benches (best effort).

    Read from /proc/cpuinfo so the --report artifact records which ISA
    the runner had (e.g. whether the hardware CRC32C path could run) —
    what tells a runner-generation change from a code regression.
    """
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith(("flags", "Features")):
                    flags = set(line.split(":", 1)[1].split())
                    interesting = {"sse4_2", "avx2", "avx512f", "crc32",
                                   "asimd", "neon", "pclmulqdq"}
                    return sorted(flags & interesting)
    except OSError:
        pass
    return []


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", default="ci/bench_baseline.json")
    ap.add_argument(
        "--threshold",
        type=float,
        default=float(os.environ.get("MICROSCOPE_BENCH_THRESHOLD", "0.30")),
        help="allowed fractional slowdown vs baseline (default 0.30)",
    )
    ap.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline from the given results instead of checking",
    )
    ap.add_argument(
        "--report",
        metavar="PATH",
        help="also write a JSON artifact: per-benchmark cpu and real times "
        "and ratios vs baseline, build type and the runner's cpu flags",
    )
    ap.add_argument("results", nargs="+", help="BENCH_*.json files")
    args = ap.parse_args()

    results, real, build_type, stems = load_results(args.results)
    if not results:
        sys.exit("no benchmark entries found in the given files")

    if args.update:
        entries = {k: round(v, 1) for k, v in sorted(results.items())}
        entries[BUILD_TYPE_KEY] = build_type
        with open(args.baseline, "w") as f:
            json.dump(entries, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"baseline updated: {len(results)} entries "
              f"({build_type}) -> {args.baseline}")
        return 0

    with open(args.baseline) as f:
        baseline = json.load(f)

    baseline_bt = baseline.pop(BUILD_TYPE_KEY, None)
    if baseline_bt is None:
        sys.exit(f"ERROR: baseline {args.baseline} records no "
                 f"{BUILD_TYPE_KEY} — regenerate it with --update from a "
                 "Release build")
    if baseline_bt != build_type:
        sys.exit(f"ERROR: build-type mismatch: results are '{build_type}' "
                 f"but baseline {args.baseline} is '{baseline_bt}'. "
                 "Cross-build-type timings are not comparable; rebuild "
                 f"with -DCMAKE_BUILD_TYPE={baseline_bt} (or regenerate "
                 "the baseline with --update)")

    failures = []
    new = []
    improvements = []
    compared = {}
    for key, ns in sorted(results.items()):
        ref = baseline.get(key)
        if ref is None:
            new.append(key)
            continue
        ratio = ns / ref if ref > 0 else float("inf")
        compared[key] = {"cpu_time_ns": round(ns, 1),
                         "real_time_ns": round(real[key], 1),
                         "baseline_ns": ref,
                         "ratio": round(ratio, 4)}
        if ratio > 1.0 + args.threshold:
            marker = "FAIL"
            failures.append(key)
        elif ratio < 1.0:
            # Got faster: also print the speedup factor so a PR that claims
            # an optimisation has its ratio in the job log (and, via
            # --report, in the artifact) without hand arithmetic.
            marker = "imp "
            improvements.append((key, 1.0 / ratio))
        else:
            marker = "ok"
        line = (f"{marker:4} {key}: {ns / 1e6:.3f} ms vs baseline "
                f"{ref / 1e6:.3f} ms ({ratio - 1.0:+.1%}), real "
                f"{real[key] / 1e6:.3f} ms")
        if ratio < 1.0:
            line += f" [{1.0 / ratio:.2f}x faster]"
        print(line)
    # A baseline entry only counts as missing when its bench binary was
    # part of this run; whole stems absent from the run (a subset run, or
    # a baseline ahead of the build) are noted but never fail.
    absent = sorted(set(baseline) - set(results))
    missing = [k for k in absent if k.split("/", 1)[0] in stems]
    skipped_stems = sorted({k.split("/", 1)[0] for k in absent} - stems)

    for key in new:
        print(f"new  {key}: {results[key] / 1e6:.3f} ms, real "
              f"{real[key] / 1e6:.3f} ms (not in baseline; run with "
              "--update to enroll)")
    for key in missing:
        print(f"MISS {key}: in baseline but not in results")
    for stem in skipped_stems:
        print(f"skip {stem}: in baseline but its report was not part of "
              "this run")

    if improvements:
        best = sorted(improvements, key=lambda kv: -kv[1])
        print(f"\n{len(improvements)} improvement(s); best:")
        for key, speedup in best[:5]:
            print(f"  {speedup:5.2f}x  {key}")

    if args.report:
        report = {
            "build_type": build_type,
            "cpu_flags": cpu_flags(),
            "threshold": args.threshold,
            "benchmarks": compared,
            "new": sorted(new),
            "missing": sorted(missing),
            "failures": sorted(failures),
        }
        with open(args.report, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"report written: {args.report}")

    if failures or missing:
        print(f"\n{len(failures)} regression(s), {len(missing)} missing "
              f"benchmark(s) at threshold {args.threshold:.0%}")
        return 1
    print(f"\nall {len(results)} benchmarks within {args.threshold:.0%} "
          "of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
