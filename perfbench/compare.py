#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE.jsonl HEAD.jsonl

Each file holds records appended by `run.py --out FILE`, ideally ten
or more runs per workload with distinct seeds, the same seeds on both
sides, the two commits' runs alternating in time. Host speed drifts
between minutes, so a batch of base runs followed by a batch of head
runs can differ a little on identical code. Every (end-to-end metric,
workload) pair gets one verdict:

  worse       head median is worse than base median by more than the
              metric's bound in BENCHMARK.json
  improved    head wins at least 9 of 10 seed-paired runs (ties count
              for neither) and the medians differ by more than the
              base's interquartile distance
  unresolved  the verdict would be worse or improved but the base and
              head runs of the workload are not interleaved in time
              (ordered by start, they change side fewer than
              min(n_base, n_head) times, or a record has no start
              time), so host drift could account for the difference;
              or the base's own quartile spread exceeds the bound and
              not every head run beats every base run; or a side has
              fewer than two runs
  unchanged   otherwise

It also compares the simulated-result digest of every (workload, seed,
seconds, trace) present on both sides: a change that should only alter
speed must leave every digest identical.

Exit status: 0 when nothing is worse and no digest changed, else 1.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def untraced(records, workload):
    return [r for r in records if r["workload"] == workload and r["trace"] == 0]


def interleaved(base, head):
    """True when the two sides' runs alternate in time often enough."""
    runs = [(r.get("started"), side) for side, recs in ((0, base), (1, head))
            for r in recs]
    if any(t is None for t, _ in runs):
        return False
    sides = [side for _, side in sorted(runs)]
    switches = sum(a != b for a, b in zip(sides, sides[1:]))
    return switches >= min(len(base), len(head))


def verdict(base, head, better, bound, mixed):
    if len(base) < 2 or len(head) < 2:
        return "unresolved", float("nan"), float("nan")
    b, h = list(base.values()), list(head.values())
    mb, mh = statistics.median(b), statistics.median(h)
    q1, _, q3 = statistics.quantiles(b, n=4)
    spread = (q3 - q1) / abs(mb) if mb else float("inf")
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (mh - mb) / abs(mb) if mb else float("inf")  # > 0 = worse
    is_better = (lambda x, y: x < y) if better == "lower" else (lambda x, y: x > y)
    all_better = all(is_better(x, y) for x in h for y in b)
    if spread > bound:
        v = "improved" if all_better else "unresolved"
    elif change > bound:
        v = "worse"
    else:
        seeds = sorted(set(base) & set(head))
        wins = sum(is_better(head[s], base[s]) for s in seeds)
        won = seeds and wins >= 0.9 * len(seeds) and abs(mh - mb) > q3 - q1
        v = "improved" if won else "unchanged"
    if v in ("improved", "worse") and not mixed:
        v = "unresolved"
    return v, change, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("head")
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, head = load(a.base), load(a.head)
    bad = False

    print("%-14s %-18s %12s %12s %8s %8s  %s" % (
        "workload", "metric", "base_med", "head_med", "change", "spread", "verdict"))
    for w in (w["name"] for w in spec["workloads"]):
        rb, rh = untraced(base, w), untraced(head, w)
        if not rb and not rh:
            continue
        mixed = interleaved(rb, rh)
        if not mixed:
            print("%-14s base and head runs are not interleaved in time: "
                  "no verdict can be improved or worse" % w)
        for m in spec["end_to_end"]:
            b = {r["seed"]: r["e2e"][m["name"]] for r in rb}
            h = {r["seed"]: r["e2e"][m["name"]] for r in rh}
            v, change, spread = verdict(b, h, m["better"], m["bound"], mixed)
            bad = bad or v == "worse"
            print("%-14s %-18s %12.5g %12.5g %+7.1f%% %7.1f%%  %s" % (
                w, m["name"], statistics.median(b.values()) if b else float("nan"),
                statistics.median(h.values()) if h else float("nan"),
                100 * change, 100 * spread, v))

    def digests(records):
        return {(r["workload"], r["seed"], r["seconds"], r["trace"]): r["digest"]
                for r in records}

    db, dh = digests(base), digests(head)
    common = sorted(set(db) & set(dh))
    changed = [k for k in common if db[k] != dh[k]]
    print("\ndigests: %d (workload, seed, seconds, trace) keys on both sides, "
          "%d changed" % (len(common), len(changed)))
    for k in changed:
        print("  SIMULATED RESULTS CHANGED %s seed %d seconds %g trace %d: %s -> %s" % (
            k + (db[k], dh[k])))
    bad = bad or bool(changed)

    fails = [sum(r["failed"] for r in recs) for recs in (base, head)]
    print("failed checks: base %d, head %d" % tuple(fails))
    bad = bad or fails[1] > fails[0]

    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
