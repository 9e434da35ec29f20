#!/usr/bin/env python3
"""The fairsfe repository benchmark.

    python3 perfbench/run.py --workload gk_abort --seed 7 --seconds 30 --trace 0

Run from the repository root. The first call configures and builds
libfairsfe, fairbenchd and the fsbench measuring program from source into
.bench_build/ (CMake, Release). Then:

  --trace 0  measures the end-to-end metrics of the workload: set-up time
             (median of several cold starts), Monte-Carlo runs per second,
             request throughput and latency, and peak resident memory.
  --trace 1  runs the traced replay and the layer probes and reports the
             per-layer metrics; the span dump lands in .bench_build/spans/.

Workloads and metrics are declared in BENCHMARK.json; perfbench/README.md
explains them. Every output is checked; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}. A failed check exits 1.
"""
import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "cmake")
RUN = os.path.join(".bench_build", "run")
SPANS = os.path.join(".bench_build", "spans")
FSBENCH = os.path.join(BUILD, "fsbench")
FAIRBENCHD = os.path.join(BUILD, "fairbenchd")

BATCH_WORKLOADS = ("gk_abort", "optn_lamport")
SETUP_SAMPLES = 15     # cold starts per run; setup_s is their median
DAEMON_WORKERS = 2
BUDGET_S = 160         # a run ends this long after its build, or fails
deadline = None


class BenchError(Exception):
    """A failed build, crash or correctness check: the run has no numbers."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def remaining():
    return max(1.0, deadline - time.monotonic())


def finish(proc):
    """Wait for a child, killing it at the deadline; returns its exit code."""
    try:
        proc.communicate(timeout=remaining())
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{proc.args[0]} overran the {BUDGET_S} s budget")
    return proc.returncode


def spawn_until_ready(args):
    """Start fsbench and time it from exec to its 'ready' line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc)
        raise BenchError(f"{' '.join(args)} did not become ready")
    return proc, elapsed


def read_result(path):
    with open(path) as f:
        result = json.load(f)
    for line in result["report"]:
        print(line)
    return result


class Daemon:
    """A fairbenchd on a unix socket, timed from exec to its first status."""

    def __init__(self, path):
        self.path = path
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [FAIRBENCHD, "--unix", path, "--workers", str(DAEMON_WORKERS), "--quiet"],
            stdout=subprocess.DEVNULL)
        try:
            self._await_status()
        except Exception:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def _await_status(self):
        give_up = time.monotonic() + min(30, remaining())
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"fairbenchd exited with {self.proc.returncode} at start")
            try:
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                    s.connect(self.path)
                    s.sendall(b'{"verb":"status"}\n')
                    reply = s.makefile().readline()
                if json.loads(reply).get("event") != "status":
                    raise BenchError(f"fairbenchd answered status with {reply!r}")
                return
            except (FileNotFoundError, ConnectionRefusedError):
                if time.monotonic() > give_up:
                    raise BenchError("fairbenchd never bound its socket")
                time.sleep(0.0002)

    def peak_rss_mib(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for fairbenchd")

    def stop(self):
        """SIGTERM (graceful drain) and wait; True if it exited cleanly."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=min(30, remaining())) == 0
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return False


def run_batch(args, out):
    base = [FSBENCH, "--workload", args.workload, "--seed", str(args.seed)]
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, elapsed = spawn_until_ready(base + ["--mode", "setup"])
        if finish(proc) != 0:
            raise BenchError("fsbench setup failed")
        setup.append(elapsed)
    proc, elapsed = spawn_until_ready(
        base + ["--mode", "batch", "--seconds", str(args.seconds), "--out", out])
    setup.append(elapsed)
    if finish(proc) != 0:
        raise BenchError("fsbench batch run failed")
    result = read_result(out)
    result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    return result


def run_daemon_mix(args, out):
    daemons = []
    try:
        for k in range(SETUP_SAMPLES):
            daemons.append(Daemon(os.path.join(RUN, f"d{os.getpid()}-{k}.sock")))
            if k + 1 < SETUP_SAMPLES:
                daemons[-1].proc.send_signal(signal.SIGTERM)
        live = daemons[-1]
        proc = subprocess.Popen(
            [FSBENCH, "--mode", "client", "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--socket", live.path, "--out", out],
            stdout=subprocess.DEVNULL)
        if finish(proc) != 0:
            raise BenchError("fsbench client failed")
        rss = live.peak_rss_mib()
    finally:
        clean = [d.stop() for d in daemons]
    result = read_result(out)
    if not all(clean):
        result["correct"] = False
        result["errors"].append("fairbenchd did not drain cleanly on SIGTERM")
    result["metrics"]["setup_s"] = {
        "value": statistics.median(d.setup_s for d in daemons), "unit": "s"}
    result["metrics"]["peak_rss_mb"] = {"value": rss, "unit": "MiB"}
    return result


def run_traced(args, out):
    spans = os.path.join(SPANS, f"{args.workload}.csv")
    replay = (f"python3 perfbench/run.py --workload {args.workload} --seed {args.seed} "
              f"--seconds {args.seconds} --trace 1")
    daemon = Daemon(os.path.join(RUN, f"d{os.getpid()}-trace.sock"))
    try:
        proc = subprocess.Popen(
            [FSBENCH, "--mode", "trace", "--workload", args.workload, "--seed",
             str(args.seed), "--socket", daemon.path, "--spans", spans, "--replay",
             replay, "--out", out],
            stdout=subprocess.DEVNULL)
        if finish(proc) != 0:
            raise BenchError("fsbench trace failed")
    finally:
        clean = daemon.stop()
    result = read_result(out)
    if not clean:
        result["correct"] = False
        result["errors"].append("fairbenchd did not drain cleanly on SIGTERM")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload!r}")
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]

    global deadline
    try:
        build()
        deadline = time.monotonic() + BUDGET_S
        for d in (RUN, SPANS):
            os.makedirs(d, exist_ok=True)
        out = os.path.join(RUN, f"result-{os.getpid()}.json")
        if args.trace:
            result = run_traced(args, out)
        elif args.workload in BATCH_WORKLOADS:
            result = run_batch(args, out)
        else:
            result = run_daemon_mix(args, out)
        os.remove(out)
        for e in result["errors"]:
            log(f"CHECK FAILED {e}")
        if not result["correct"]:
            print(json.dumps({"correct": False, "attempted": result["attempted"],
                              "failed": result["failed"], "metrics": {}}))
            return 1
        metrics = {}
        for m in declared:
            got = result["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                raise BenchError(f"metric {m['name']} ({m['unit']}) not measured")
            metrics[m["name"]] = got
    except BenchError as e:
        log(f"ERROR {e}")
        return 1
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
