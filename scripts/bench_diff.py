#!/usr/bin/env python3
"""Compare two fairbench JSON reports and print per-row deltas.

Both layouts fairbench writes are accepted: a single bench::Reporter object
(one scenario selected, e.g. the committed BENCH_fault.json) or a JSON array
of them (several scenarios). Rows are matched per (experiment, name) pair, so
an array baseline diffs cleanly against an array rerun and a single-object
baseline still matches its scenario inside an array.

Usage: scripts/bench_diff.py OLD.json NEW.json

The diff is informational and exits 0 regardless of direction; eyeball the
signs. `fairbench --baseline OLD.json --json NEW.json` runs it for you.
"""
import argparse
import json
import sys

# Throughput reads higher-is-better; every other key reads lower-is-better.
HIGHER_IS_BETTER = {"runs_per_sec"}
# wall_seconds is omitted: it scales with the run count, not the work.
NUMERIC_KEYS = [
    "runs_per_sec",
    "utility",
    "std_error",
    "ci_halfwidth",
    "valid_runs",
    "stopped_at",
    "lanes",
]


def load_rows(path):
    """Load one report file into ({(experiment, row_name): row}, [reports]).

    A single object (what fairbench writes when exactly one scenario is
    selected) becomes a one-element report list; a fairbench array is taken
    as-is. Keying rows by (experiment, name) keeps row names from different
    scenarios apart and lets the two layouts diff against each other.
    """
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        sys.exit(f"bench_diff: cannot read {path}: {e.strerror or e}")
    except json.JSONDecodeError as e:
        sys.exit(f"bench_diff: {path} is not valid JSON (line {e.lineno}: {e.msg}); "
                 "was the benchmark interrupted mid-write?")
    reports = data if isinstance(data, list) else [data]
    rows = {}
    for report in reports:
        if not isinstance(report, dict):
            sys.exit(f"bench_diff: {path}: expected a report object or array of "
                     f"report objects, got {type(report).__name__}")
        exp = report.get("experiment", "?")
        for row in report.get("rows", []):
            if not isinstance(row, dict) or "name" not in row:
                sys.exit(f"bench_diff: {path}: malformed row in report {exp!r} "
                         "(every row needs a \"name\")")
            rows[(exp, row["name"])] = row
    if not rows:
        sys.exit(f"bench_diff: {path} contains no benchmark rows; "
                 "nothing to compare")
    return rows, reports


def fmt(v):
    return f"{v:,.3f}".rstrip("0").rstrip(".") if isinstance(v, float) else str(v)


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
        epilog="example:\n"
               "  python3 scripts/bench_diff.py BENCH_fault.json new.json\n"
               "\n"
               "Exit status: 0 diff printed, 1 unreadable report, "
               "2 bad usage.\n")
    ap.add_argument("old", metavar="OLD.json")
    ap.add_argument("new", metavar="NEW.json")
    args = ap.parse_args()

    old_rows, old_reps = load_rows(args.old)
    new_rows, new_reps = load_rows(args.new)

    exps = ", ".join(r.get("experiment", "?") for r in new_reps)
    print(f"bench diff [{exps}]: {args.old} -> {args.new}\n")

    # Row names alone are unambiguous in a single-scenario diff; prefix the
    # experiment only when the file holds several.
    def label(key):
        exp, name = key
        return name if len(new_reps) == 1 else f"{exp} :: {name}"

    for row_key in new_rows:
        name = label(row_key)
        new = new_rows[row_key]
        old = old_rows.get(row_key)
        if old is None:
            print(f"{name}: new row (no baseline)")
            continue
        print(f"{name}:")
        for key in NUMERIC_KEYS:
            if key not in new or key not in old:
                continue
            o, n = old[key], new[key]
            if o == n:
                continue
            ratio = (n / o) if o else float("inf")
            better = (n > o) == (key in HIGHER_IS_BETTER)
            arrow = "improved" if better else "regressed"
            print(f"  {key:>20}: {fmt(o)} -> {fmt(n)}  ({ratio:.2f}x, {arrow})")
    gone = set(old_rows) - set(new_rows)
    for row_key in sorted(gone):
        print(f"{label(row_key)}: dropped from report")


if __name__ == "__main__":
    main()
