#!/usr/bin/env python3
"""Baseline-drift report for the BENCH_*.json exports.

Flattens a benchmark JSON export and its checked-in baseline to dotted
numeric leaves and reports per-metric drift.  Metric classes get their
own tolerance: counter-like leaves (event/packet/line counts) must match
exactly -- the simulator is deterministic, so any delta there is a
behavior change, not noise -- while timing-like leaves (wall seconds,
ns-per-X, rates, speedups) are host-noise-tolerant and only flagged
beyond a generous relative band.

CI runs with --strict-exact: drift in the exact (counter) class is
fatal -- the simulator is deterministic, so a counter delta is a real
behavior change -- while timing-class drift stays report-only, so a
noisy shared runner cannot fail the build.  Pass --strict to make ALL
drift fatal for local use.

Usage:
  bench_check.py --baseline tests/golden/BENCH_perf_smoke_baseline.json \
                 --current BENCH_perf_smoke.json [--strict]
  bench_check.py --baseline ... --current ... --refresh
      rewrite the baseline from the current export and print the diff.
"""

import argparse
import json
import sys

# Leaves whose key path matches one of these substrings vary with the
# host and are never compared.  fig10_sweep.sweep_check records whether
# the --jobs speedup gate ran ("ok") or was skipped on a host with
# fewer than 4 CPUs; fig10_sweep.byte_identical carries the invariant.
SKIP_SUBSTRINGS = (
    "host.",
    "hardware_concurrency",
    "jobs",
    "git_sha",
    "sweep_check",
)

# Timing-like leaves: compared with a relative tolerance.
TIMING_SUBSTRINGS = (
    "wall_sec",
    "_ns",
    "ns_per_event",
    "per_sec",
    "speedup",
    "spread",
    "_us",
    "cost_ratio",
    "ratio",
    "mtps",
    "ipc",
)


def flatten(node, prefix=""):
    """Yield (dotted_path, leaf) for every scalar leaf."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from flatten(v, f"{prefix}{k}." if prefix or k else k)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            # Prefer a stable name over a positional index when the
            # element carries one (the benches' points arrays all do).
            tag = v.get("name") if isinstance(v, dict) else None
            tag = tag if isinstance(tag, str) else str(i)
            yield from flatten(v, f"{prefix}{tag}.")
    else:
        yield prefix.rstrip("."), node


def classify(path):
    if any(s in path for s in SKIP_SUBSTRINGS):
        return "skip"
    if any(s in path for s in TIMING_SUBSTRINGS):
        return "timing"
    return "exact"


def drift(a, b):
    if a == b:
        return 0.0
    denom = max(abs(a), abs(b), 1e-12)
    return abs(a - b) / denom


def compare(baseline, current, timing_tol):
    base = dict(flatten(baseline))
    cur = dict(flatten(current))
    rows = []  # (status, path, baseline, current, drift, class)
    for path in sorted(set(base) | set(cur)):
        cls = classify(path)
        if cls == "skip":
            continue
        if path not in base:
            rows.append(("new", path, None, cur[path], None, cls))
            continue
        if path not in cur:
            rows.append(("missing", path, base[path], None, None, cls))
            continue
        a, b = base[path], cur[path]
        if isinstance(a, bool) or isinstance(a, str) or a is None:
            rows.append(("ok" if a == b else "DRIFT", path, a, b, None,
                         cls))
            continue
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            continue
        d = drift(float(a), float(b))
        tol = timing_tol if cls == "timing" else 0.0
        rows.append(("ok" if d <= tol else "DRIFT", path, a, b, d, cls))
    return rows


def fmt(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--current", required=True)
    ap.add_argument("--timing-tolerance", type=float, default=0.5,
                    help="relative band for timing-like metrics "
                         "(default 0.5 = 50%%)")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 on any drift (default: report only)")
    ap.add_argument("--strict-exact", action="store_true",
                    help="exit 1 only on exact-class (counter) drift or "
                         "a vanished exact metric; timing drift stays "
                         "report-only")
    ap.add_argument("--refresh", action="store_true",
                    help="rewrite the baseline from the current export "
                         "after printing the diff")
    args = ap.parse_args()

    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
    except FileNotFoundError:
        print(f"bench_check: no baseline at {args.baseline}", end="")
        if args.refresh:
            with open(args.current) as f:
                cur_text = f.read()
            with open(args.baseline, "w") as f:
                f.write(cur_text)
            print(" -- seeded from current export")
            return 0
        print(" (run with --refresh to seed one)")
        return 0
    with open(args.current) as f:
        current = json.load(f)

    rows = compare(baseline, current, args.timing_tolerance)
    drifted = [r for r in rows if r[0] != "ok"]
    # Fatal under --strict-exact: a deterministic (exact-class) metric
    # moved, or one the baseline promises vanished.  Brand-new metrics
    # are ordinary growth and stay non-fatal until the next --refresh.
    exact_fatal = [r for r in drifted
                   if r[5] == "exact" and r[0] in ("DRIFT", "missing")]

    print(f"bench_check: {args.current} vs baseline {args.baseline}")
    print(f"  {len(rows)} metrics compared, {len(drifted)} flagged "
          f"(timing tolerance {args.timing_tolerance:.0%})")
    for status, path, a, b, d, cls in drifted:
        extra = f"  ({d:.1%} drift)" if d is not None else ""
        print(f"  {status:>7}  {path} [{cls}]: {fmt(a)} -> {fmt(b)}"
              f"{extra}")
    if not drifted:
        print("  all metrics within tolerance")

    if args.refresh:
        with open(args.current) as f:
            cur_text = f.read()
        with open(args.baseline, "w") as f:
            f.write(cur_text)
        print(f"  baseline refreshed from {args.current}")

    if args.strict and drifted:
        return 1
    if args.strict_exact and exact_fatal:
        print(f"  FATAL: {len(exact_fatal)} exact-class metric(s) "
              "drifted -- deterministic counters moved")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
