#!/usr/bin/env python3
"""Compare two BENCH_perf.json artifacts and flag perf regressions.

Intended for the CI perf-smoke job: run bench_perf on the PR build,
then diff the fresh artifact against the committed baseline:

    python3 tools/perf_diff.py BENCH_perf.json fresh.json

Comparison (ratio = fresh / baseline; higher is faster): the
strict_busy cycles_per_sec per scheme — the strict per-cycle cost
gate (DESIGN.md §14). It measures a tight, repeat-averaged
single-process loop, stable enough on shared runners for CI to run
it as a HARD error gate at --tolerance 0.90 (a >10% cycles/sec
regression fails the job).

Exit status: 0 clean, 1 if any ratio falls below --tolerance, 2 on
unreadable/mismatched artifacts.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"perf_diff: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def busy_cases(doc):
    out = {}
    for c in doc.get("strict_busy", {}).get("cases", []):
        out[c["scheme"]] = c
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", help="committed BENCH_perf.json")
    ap.add_argument("fresh", help="artifact from the current build")
    ap.add_argument(
        "--tolerance", type=float, default=0.70,
        help="minimum fresh/baseline throughput ratio before a case "
             "counts as a regression (default %(default)s — shared "
             "CI runners are noisy)")
    args = ap.parse_args()

    base = load(args.baseline)
    fresh = load(args.fresh)

    findings = []
    compared = 0

    fb = busy_cases(fresh)
    for scheme, bc in sorted(busy_cases(base).items()):
        fc = fb.get(scheme)
        if fc is None:
            findings.append(
                f"strict_busy {scheme}: case missing from fresh "
                "artifact")
            continue
        ratio = fc["cycles_per_sec"] / bc["cycles_per_sec"]
        compared += 1
        marker = "  REGRESSION" if ratio < args.tolerance else ""
        print(f"strict_busy {scheme:<14} base "
              f"{bc['cycles_per_sec']:>9.0f} cyc/s  fresh "
              f"{fc['cycles_per_sec']:>9.0f} cyc/s  "
              f"{ratio:5.2f}x{marker}")
        if ratio < args.tolerance:
            findings.append(
                f"strict_busy {scheme}: {ratio:.2f}x of baseline "
                f"(tolerance {args.tolerance:.2f})")

    if compared == 0:
        # Legacy baseline without comparable sections: nothing to
        # gate, but say so instead of printing a silently-empty diff.
        print("perf_diff: no comparable cases between the artifacts "
              "(legacy baseline format?)")
        return 0

    if findings:
        print(f"perf_diff: {len(findings)} finding(s):",
              file=sys.stderr)
        for f in findings:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"perf_diff: {compared} case(s) within tolerance "
          f"{args.tolerance:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
