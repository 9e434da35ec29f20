#!/usr/bin/env python3
"""fairbenchd keeps serving, without spinning, when it runs out of fds.

    check_fd_exhaustion.py --fairbenchd build/fairbenchd

Starts fairbenchd on a unix socket with RLIMIT_NOFILE = 64 and opens 80
connections, more than it can hold. Then checks that
  - the daemon is alive and an early connection gets `status`;
  - it uses under 0.5 s of CPU over a 2 s hold at the limit, so it does not
    spin on its listener, which stays readable while connections wait;
  - once 40 connections close, a new connection is served;
  - SIGTERM still drains it to exit 0.
Exits 0 on success, 1 with a message otherwise.
"""
import argparse
import json
import os
import resource
import signal
import socket
import subprocess
import sys
import tempfile
import time

FD_LIMIT = 64
CONNECTIONS = 80
CLOSED = 40
HOLD_S = 2.0
MAX_CPU_S = 0.5
TIMEOUT_S = 10.0


def connect(path):
    """Connect, retrying while the listen backlog is full."""
    deadline = time.monotonic() + TIMEOUT_S
    while True:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.settimeout(TIMEOUT_S)
        try:
            s.connect(path)
            return s
        except BlockingIOError:
            s.close()
            if time.monotonic() > deadline:
                raise
            time.sleep(0.01)


def status(s):
    """Send `status` and return the answer; raises if none comes."""
    s.sendall(b'{"verb":"status"}\n')
    buf = b""
    while b"\n" not in buf:
        chunk = s.recv(4096)
        if not chunk:
            raise RuntimeError("daemon closed the connection")
        buf += chunk
    event = json.loads(buf.split(b"\n", 1)[0])
    if event.get("event") != "status":
        raise RuntimeError(f"expected a status event, got {event}")
    return event


def cpu_seconds(pid):
    """User + system CPU time of a running process."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def limit_fds():
    resource.setrlimit(resource.RLIMIT_NOFILE, (FD_LIMIT, FD_LIMIT))


def check(daemon, path):
    # Readiness probe: a status round trip on a connection that then closes.
    # It also gives the daemon one closed connection before it reaches its
    # limit, as a long-running daemon has. That matters under UBSan: its
    # vptr check verifies a type it has not cached yet through pipe(2), which
    # fails at the fd limit and reports a false "invalid vptr" on the first
    # shared_ptr release (a make_shared/reset program at RLIMIT_NOFILE shows
    # the same report).
    deadline = time.monotonic() + TIMEOUT_S
    while True:
        try:
            with connect(path) as probe:
                status(probe)
            break
        except OSError:
            if daemon.poll() is not None or time.monotonic() > deadline:
                return "fairbenchd did not start serving"
            time.sleep(0.05)
    conns = [connect(path) for _ in range(CONNECTIONS)]
    time.sleep(0.5)  # let the daemon accept up to its limit
    if daemon.poll() is not None:
        return f"fairbenchd exited with {daemon.returncode} at its fd limit"
    held = status(conns[0])["connections"]
    if held >= CONNECTIONS:
        return f"all {CONNECTIONS} connections accepted: the fd limit was never hit"
    before = cpu_seconds(daemon.pid)
    time.sleep(HOLD_S)
    spent = cpu_seconds(daemon.pid) - before
    print(f"{held} connections held at RLIMIT_NOFILE={FD_LIMIT}; "
          f"{spent:.2f} s CPU over a {HOLD_S:.0f} s hold")
    if spent >= MAX_CPU_S:
        return f"fairbenchd spins at its fd limit ({spent:.2f} s CPU in {HOLD_S} s)"
    for s in conns[1:CLOSED + 1]:
        s.close()
    del conns[1:CLOSED + 1]
    fresh = connect(path)
    conns.append(fresh)
    status(fresh)
    if daemon.poll() is not None:
        return f"fairbenchd exited with {daemon.returncode}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0], allow_abbrev=False)
    ap.add_argument("--fairbenchd", required=True, help="path to the fairbenchd binary")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fairbenchd.sock")
        daemon = subprocess.Popen(
            [args.fairbenchd, "--unix", path, "--workers", "1", "--quiet"],
            preexec_fn=limit_fds)
        try:
            error = check(daemon, path)
        except (OSError, RuntimeError, ValueError) as e:
            error = f"{type(e).__name__}: {e}"
        if daemon.poll() is None:
            daemon.send_signal(signal.SIGTERM)
            try:
                code = daemon.wait(timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait()
                code = "no exit"
            if error is None and code != 0:
                error = f"fairbenchd did not drain on SIGTERM (exit {code})"
    if error is not None:
        print(f"FAIL: {error}", file=sys.stderr)
        return 1
    print("OK: fairbenchd served through fd exhaustion")
    return 0


if __name__ == "__main__":
    sys.exit(main())
