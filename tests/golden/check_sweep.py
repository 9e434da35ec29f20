#!/usr/bin/env python3
"""The byte-identity oracle: the whole fairbench sweep against its golden.

    check_sweep.py --fairbench build/fairbench --threads 3
    check_sweep.py --fairbench build/fairbench --record

Runs `fairbench --runs 64 --seed 1 --quiet --threads N --json` over every
registered scenario and drops the keys that measure time or the machine
(wall_seconds, runs_per_sec, the offline batch seconds, threads). What is
left is a pure function of the code: every estimate, event frequency,
standard error, check verdict and label. The test passes when it equals
sweep_r64_s1.json exactly (doubles compared as doubles, all 17 digits);
otherwise it prints a diff and exits 1. --record rewrites the golden
instead. A re-pin is a behaviour change and is argued as one.
"""
import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sweep_r64_s1.json")
TIMING_KEYS = {"wall_seconds", "runs_per_sec", "seconds", "threads"}


def strip(node):
    if isinstance(node, dict):
        return {k: strip(v) for k, v in node.items() if k not in TIMING_KEYS}
    if isinstance(node, list):
        return [strip(v) for v in node]
    return node


def render(sweep):
    """One scenario key or one row per line, so a diff names the row."""
    lines = ["["]
    for i, scenario in enumerate(sweep):
        lines.append("{")
        items = list(scenario.items())
        for j, (key, value) in enumerate(items):
            sep = "," if j + 1 < len(items) else ""
            if isinstance(value, list) and value and isinstance(value[0], dict):
                lines.append(f"  {json.dumps(key)}: [")
                for k, entry in enumerate(value):
                    comma = "," if k + 1 < len(value) else ""
                    lines.append(f"    {json.dumps(entry, ensure_ascii=False)}{comma}")
                lines.append(f"  ]{sep}")
            else:
                lines.append(f"  {json.dumps(key)}: {json.dumps(value, ensure_ascii=False)}{sep}")
        lines.append("}," if i + 1 < len(sweep) else "}")
    lines.append("]")
    return "\n".join(lines) + "\n"


def run_sweep(fairbench, threads):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "sweep.json")
        cmd = [fairbench, "--runs", "64", "--seed", "1", "--quiet",
               "--threads", str(threads), "--json", out]
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True)
        if proc.returncode != 0:
            sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
        with open(out, encoding="utf-8") as f:
            return strip(json.load(f))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--fairbench", required=True, help="path to the fairbench binary")
    ap.add_argument("--threads", type=int, default=1, help="estimator threads (default 1)")
    ap.add_argument("--record", action="store_true", help="rewrite the golden file")
    args = ap.parse_args()

    sweep = run_sweep(args.fairbench, args.threads)
    if args.record:
        with open(GOLDEN, "w", encoding="utf-8") as f:
            f.write(render(sweep))
        print(f"recorded {len(sweep)} scenarios into {GOLDEN}")
        return 0
    with open(GOLDEN, encoding="utf-8") as f:
        golden = json.load(f)
    if sweep == golden:
        print(f"sweep matches the golden: {len(sweep)} scenarios, "
              f"{sum(len(s['rows']) for s in sweep)} rows, threads {args.threads}")
        return 0
    diff = difflib.unified_diff(render(golden).splitlines(), render(sweep).splitlines(),
                                "golden", f"threads {args.threads}", lineterm="", n=1)
    print("\n".join(diff))
    print("sweep differs from tests/golden/sweep_r64_s1.json", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
