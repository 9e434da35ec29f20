#!/usr/bin/env python3
"""Load-test client for fairbenchd: replay a request mix, report latency.

Spawns a fairbenchd on a unix socket (or connects to a running one with
--connect), fires `--requests` estimate requests from `--connections`
concurrent NDJSON connections (one request in flight per connection, so
per-request latency is honest), and prints p50/p95/p99 latency and
sustained throughput:

    scripts/loadtest.py --daemon build/fairbenchd --requests 8 --runs 32

The request mix sweeps seeds over a cheap scenario, and every response is
checked to be a well-formed result event (a daemon error fails the load
test, not just slows it). The repository benchmark (`perfbench/`, workload
daemon_mix) is where daemon throughput and latency are measured.
"""
import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

DEFAULT_SCENARIO = "exp01_contract_fairness"


def run_connection(path, requests, results, errors, conn_id):
    """One worker: a dedicated connection issuing its requests sequentially."""
    try:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.connect(path)
        f = s.makefile("rw")
        for i, req in enumerate(requests):
            req = dict(req, id=f"c{conn_id}r{i}")
            t0 = time.monotonic()
            f.write(json.dumps(req) + "\n")
            f.flush()
            while True:
                line = f.readline()
                if not line:
                    errors.append(f"conn {conn_id}: daemon closed mid-request")
                    return
                event = json.loads(line)
                if event.get("event") == "progress":
                    continue
                if event.get("event") == "result":
                    if event.get("id") != req["id"]:
                        errors.append(f"conn {conn_id}: response id mismatch")
                        return
                    results.append((time.monotonic() - t0) * 1000.0)
                    break
                errors.append(f"conn {conn_id}: {event}")
                return
        f.close()
        s.close()
    except OSError as e:
        errors.append(f"conn {conn_id}: {e}")


def percentile(sorted_ms, q):
    """Nearest-rank percentile over a sorted latency list."""
    idx = min(len(sorted_ms) - 1, max(0, int(round(q / 100.0 * len(sorted_ms))) - 1))
    return sorted_ms[idx]


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
        epilog="examples:\n"
               "  python3 scripts/loadtest.py --daemon build-perf/fairbenchd "
               "--requests 8 --connections 2 --runs 32\n"
               "  python3 scripts/loadtest.py --connect /tmp/fairbenchd.sock\n"
               "\n"
               "Exit status: 0 clean drain with every request answered, "
               "1 any error event or unclean shutdown, 2 bad usage.\n")
    ap.add_argument("--daemon", default="build/fairbenchd",
                    help="fairbenchd binary to spawn (ignored with --connect)")
    ap.add_argument("--connect", default=None, metavar="SOCK",
                    help="unix socket of an already-running daemon")
    ap.add_argument("--workers", type=int, default=2,
                    help="daemon worker threads when spawning")
    ap.add_argument("--scenario", default=DEFAULT_SCENARIO)
    ap.add_argument("--runs", type=int, default=100,
                    help="Monte-Carlo runs per estimate request")
    ap.add_argument("--requests", type=int, default=24)
    ap.add_argument("--connections", type=int, default=4)
    args = ap.parse_args()

    proc = None
    if args.connect:
        path = args.connect
    else:
        path = f"/tmp/fairbenchd-loadtest-{os.getpid()}.sock"
        proc = subprocess.Popen(
            [args.daemon, "--unix", path, "--workers", str(args.workers), "--quiet"],
            stdout=subprocess.DEVNULL)
        for _ in range(100):
            if os.path.exists(path):
                break
            time.sleep(0.05)
        else:
            proc.kill()
            sys.exit("loadtest: daemon never bound its socket")

    # The mix: same scenario, swept seeds — distinct cache-friendly requests
    # that still exercise the full estimate path per request.
    mix = [{"verb": "estimate", "scenario": args.scenario, "runs": args.runs,
            "seed": 1000 + i, "threads": 1} for i in range(args.requests)]
    shards = [mix[i::args.connections] for i in range(args.connections)]

    results, errors, threads = [], [], []
    t0 = time.monotonic()
    for cid, shard in enumerate(shards):
        t = threading.Thread(target=run_connection,
                             args=(path, shard, results, errors, cid))
        t.start()
        threads.append(t)
    for t in threads:
        t.join()
    wall = time.monotonic() - t0

    if proc is not None:
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=30)
        if rc != 0:
            sys.exit(f"loadtest: daemon exited {rc} on SIGTERM (expected 0)")

    if errors:
        for e in errors:
            print(f"loadtest: ERROR {e}", file=sys.stderr)
        sys.exit(1)
    if len(results) != args.requests:
        sys.exit(f"loadtest: {len(results)}/{args.requests} requests answered")

    lat = sorted(results)
    print(f"loadtest: {args.requests} requests in {wall:.2f}s — "
          f"p50 {percentile(lat, 50):.3f}ms p95 {percentile(lat, 95):.3f}ms "
          f"p99 {percentile(lat, 99):.3f}ms, {args.requests / wall:.3f} req/s")


if __name__ == "__main__":
    main()
