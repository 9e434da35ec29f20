#!/usr/bin/env bash
# CI gates, in order:
#
# 1. Static analysis (gating): scripts/lint.sh runs the fairsfe-lint fixture
#    self-test plus the determinism-contract lint over the whole tree, then
#    the fairsfe-analyze fixture self-test plus the cross-TU dataflow pass
#    (Rng stream lineage, secret-flow taint, message-schema conformance —
#    DESIGN.md §14; warm facts cache keeps the analyze stage well under 10 s),
#    and clang-tidy when installed. Any finding fails the build before a
#    single TU is compiled under TSan.
#
# 2. TSan gate for the parallel Monte-Carlo estimation engine: build the tsan
# preset and run the tier1 ctest label — the scheduling-independence suites
# (estimator, thread pool, RNG forking, hot-path goldens, fault injection)
# plus the scenario-registry, wire-codec/transport/mesh, and fairbenchd
# daemon suites — under ThreadSanitizer, so data races in the estimator/
# thread-pool/plan-cache/fault/daemon layer fail the build rather than
# silently perturbing estimates. The tier labels are assigned in
# tests/CMakeLists.txt.
#
# 3. ASan+UBSan gate: build the asan-ubsan preset and run the same tier1
#    label under AddressSanitizer and UndefinedBehaviorSanitizer, so the
#    unaligned SIMD loads and stores of the crypto kernels (ChaCha20 batches,
#    SHA-NI lanes) and every other tier1 path run bounds- and UB-checked.
#
# 4. Daemon smoke (gating): start the Release fairbenchd on a unix socket,
#    drive a request mix through scripts/loadtest.py --smoke, and assert the
#    daemon drains and exits 0 on SIGTERM — the graceful-shutdown contract.
#
# Afterwards, a non-gating perf + experiment smoke against a Release build:
#   * `fairbench --list` must enumerate the registered scenario table (a
#     linker dropping scenario TUs would silently shrink it);
#   * `fairbench --filter smoke --runs 32` sweeps every smoke-tagged
#     scenario end-to-end (deviations at 32 runs are noise, never fatal);
#   * perf_protocols --profile writes BENCH_hotpath.ci.json and
#     scripts/bench_diff.py prints the delta against the committed
#     BENCH_hotpath.json, flagging any perf counter more than 35% worse.
#     Regressions are surfaced, never fatal (CI machines differ too much
#     for a hard throughput gate);
#   * perf_protocols --preproc does the same for the offline/online phase
#     split against BENCH_preproc.json — and its built-in >= 3x
#     online-vs-inline check on gmw_max_4party_8bit fails the perf step
#     itself if the online Beaver path ever degenerates to inline speed.
#   * perf_protocols --bitslice does the same for the bit-sliced execution
#     path against BENCH_bitslice.json — its built-in checks (sliced
#     bit-identical to scalar, >= 10x runs/sec on gmw_millionaires_16,
#     deterministic sequential stop) fail the perf step itself if the
#     64-runs-per-word path ever degenerates to scalar speed.
#   * perf_protocols --zoo does the same for the protocol-zoo families
#     (E21/E22: round-sampling 1/p exchange, escrowed penalty exchange)
#     against BENCH_zoo.json — its built-in checks (1/p saturation, the
#     deposit flip, the at_least_as_fair ordering) fail the perf step
#     itself if a zoo protocol's fairness story breaks at bench scale.
#   * scripts/loadtest.py replays the full fairbenchd request mix, writes
#     BENCH_service.ci.json, and scripts/bench_diff.py prints the latency/
#     throughput delta against the committed BENCH_service.json (50%
#     threshold — service latency is the noisiest counter CI measures).
#
# Usage: scripts/ci.sh [extra ctest -R regex]
set -euo pipefail
cd "$(dirname "$0")/.."

# --- gating lint + analyze stage ---------------------------------------------
scripts/lint.sh
echo "lint + analyze gate passed"

cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)" --target fairsfe_tests
if [[ $# -ge 1 ]]; then
  ctest --test-dir build-tsan -R "$1" --output-on-failure -j "$(nproc)"
  echo "tsan gate passed (-R $1)"
else
  ctest --test-dir build-tsan -L tier1 --output-on-failure -j "$(nproc)"
  echo "tsan gate passed (-L tier1)"
fi

# --- gating ASan+UBSan stage ---------------------------------------------------
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$(nproc)" --target fairsfe_tests
ctest --test-dir build-asan-ubsan -L tier1 --output-on-failure -j "$(nproc)"
echo "asan-ubsan gate passed (-L tier1)"

# --- non-gating perf + experiment smoke --------------------------------------
if cmake -S . -B build-perf -DCMAKE_BUILD_TYPE=Release >/dev/null 2>&1 &&
   cmake --build build-perf -j "$(nproc)" --target perf_protocols \
         --target fairbench --target fairbenchd >/dev/null 2>&1; then
  SCENARIOS=$(./build-perf/fairbench --list | tail -1)
  echo "fairbench --list: ${SCENARIOS}"
  case "${SCENARIOS}" in
    0\ scenarios*) echo "registry is empty — scenario TUs dropped?"; exit 1 ;;
  esac

  # --- gating daemon smoke ----------------------------------------------------
  # Spawn fairbenchd on a unix socket, drive a small concurrent request mix,
  # SIGTERM it, and require a clean drain (exit 0) with every request
  # answered — loadtest.py exits non-zero on any error event, missing
  # answer, or unclean shutdown. Small mix: this gates correctness of the
  # service path, not its throughput (that is the non-gating diff below).
  python3 scripts/loadtest.py --daemon build-perf/fairbenchd \
      --requests 8 --connections 2 --runs 32
  echo "daemon smoke passed"

  ./build-perf/fairbench --filter smoke --runs 32 ||
    echo "experiment smoke deviation (non-gating; 32 runs is noisy)"
  ./build-perf/bench/perf_protocols --profile --json BENCH_hotpath.ci.json 500 || true
  if [[ -f BENCH_hotpath.json && -f BENCH_hotpath.ci.json ]]; then
    python3 scripts/bench_diff.py --fail-above 35 \
        BENCH_hotpath.json BENCH_hotpath.ci.json ||
      echo "perf smoke regression (non-gating)"
  fi
  ./build-perf/bench/perf_protocols --preproc --json BENCH_preproc.ci.json 500 ||
    echo "preproc speedup check failed (online phase slower than 3x inline)"
  if [[ -f BENCH_preproc.json && -f BENCH_preproc.ci.json ]]; then
    python3 scripts/bench_diff.py --fail-above 35 \
        BENCH_preproc.json BENCH_preproc.ci.json ||
      echo "preproc perf regression (non-gating)"
  fi
  ./build-perf/bench/perf_protocols --bitslice --json BENCH_bitslice.ci.json ||
    echo "bitslice check failed (sliced != scalar, speedup < 10x, or stop drift)"
  if [[ -f BENCH_bitslice.json && -f BENCH_bitslice.ci.json ]]; then
    python3 scripts/bench_diff.py --fail-above 35 \
        BENCH_bitslice.json BENCH_bitslice.ci.json ||
      echo "bitslice perf regression (non-gating)"
  fi
  ./build-perf/bench/perf_protocols --zoo --json BENCH_zoo.ci.json ||
    echo "zoo check failed (1/p saturation, deposit flip, or ordering broke)"
  if [[ -f BENCH_zoo.json && -f BENCH_zoo.ci.json ]]; then
    python3 scripts/bench_diff.py --fail-above 35 \
        BENCH_zoo.json BENCH_zoo.ci.json ||
      echo "zoo perf regression (non-gating)"
  fi
  python3 scripts/loadtest.py --daemon build-perf/fairbenchd \
      --out BENCH_service.ci.json ||
    echo "service loadtest failed (non-gating at full mix)"
  if [[ -f BENCH_service.json && -f BENCH_service.ci.json ]]; then
    python3 scripts/bench_diff.py --fail-above 50 \
        BENCH_service.json BENCH_service.ci.json ||
      echo "service latency regression (non-gating)"
  fi
else
  echo "perf smoke skipped (Release build unavailable)"
fi
