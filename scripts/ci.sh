#!/usr/bin/env bash
# CI gates, in order:
#
# 1. Static analysis (gating): scripts/lint.sh runs the fairsfe-analyze
#    fixture self-test, then fairsfe-analyze over the whole tree (the
#    determinism-contract token rules plus the cross-TU passes: Rng stream
#    lineage, secret-flow taint, message-schema conformance — DESIGN.md §14;
#    warm facts cache keeps the stage well under 10 s), and clang-tidy when
#    installed. Any finding fails the build before a single TU is compiled
#    under TSan.
#
# 2. TSan gate for the parallel Monte-Carlo estimation engine: build the tsan
# preset and run the tier1 ctest label — the scheduling-independence suites
# (estimator, thread pool, RNG forking, hot-path goldens, fault injection),
# the Bytes.* container tests (stage 3 reruns them under ASan, which checks
# appends whose source lies in the buffer being grown) plus the scenario-registry, exp18 golden and fairbenchd daemon suites
# (Service*, the ServiceFuzz framing fuzz and the
# daemon.fd_exhaustion_keeps_serving hostile-client script, which runs the
# instrumented fairbenchd) and the fairbench/fairbenchd argument checks
# (cli.fairbench_quiet_prints_nothing among them: `--quiet` writes nothing
# to stdout) — under ThreadSanitizer, so data races in the
# estimator/thread-pool/plan-cache/fault/daemon layer fail the build rather
# than silently perturbing estimates. The preset builds with
# warnings as errors. The tier labels are assigned in tests/CMakeLists.txt.
# The label also holds fairsfe_alloc_tests, a separate binary with its own
# operator new: the AllocCeiling.* steady-state allocation ceilings and the
# BytesPool.* unit tests. They skip in both sanitizer stages, which compile
# the Bytes pool out (DESIGN.md §4); stage 4 runs them on the Release build.
#
# 3. ASan+UBSan gate: build the asan-ubsan preset (warnings as errors) and
#    run the same tier1 label under AddressSanitizer and
#    UndefinedBehaviorSanitizer, so the unaligned SIMD loads and stores of
#    the crypto kernels (the 4/8/16-block ChaCha20 batches, the SHA-NI
#    lanes and the 16-lane AVX-512 SHA-256 transposes, on CPUs that have
#    them) and every other tier1 path run bounds- and UB-checked.
#
# 4. Release build (gating): every target (library, tests, benches,
#    examples) is built with CMAKE_BUILD_TYPE=Release and
#    CMAKE_COMPILE_WARNING_AS_ERROR=ON, so a broken Release build or any new
#    compiler warning fails CI. `fairbench --list` must then enumerate the
#    registered scenario table (a linker dropping scenario TUs would
#    silently shrink it), and the AllocCeiling.*/BytesPool.* tests run
#    there with the pool compiled in.
#
# 5. Daemon smoke (gating): start the Release fairbenchd on a unix socket,
#    drive a small request mix through scripts/loadtest.py, and assert the
#    daemon drains and exits 0 on SIGTERM — the graceful-shutdown contract.
#
# 6. Benchmark smoke (gating on exit status only): one short traced run of
#    each repository-benchmark workload (`perfbench/run.py`, declared in
#    BENCHMARK.json) with --trace 1, so the traced replay must reproduce
#    rpd::estimate_utility and every daemon reply must check out. No number
#    is compared; perf is measured by the benchmark itself, not by CI.
#
# Afterwards, a non-gating experiment smoke against the same Release build:
# `fairbench --filter smoke --runs 32` sweeps every smoke-tagged scenario
# end-to-end (deviations at 32 runs are noise, never fatal).
#
# Usage: scripts/ci.sh [extra ctest -R regex]
set -euo pipefail
cd "$(dirname "$0")/.."

# --- gating lint + analyze stage ---------------------------------------------
scripts/lint.sh
echo "lint + analyze gate passed"

cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)" --target fairsfe_tests --target fairsfe_alloc_tests \
      --target fairbench --target fairbenchd
if [[ $# -ge 1 ]]; then
  ctest --test-dir build-tsan -R "$1" --output-on-failure -j "$(nproc)"
  echo "tsan gate passed (-R $1)"
else
  ctest --test-dir build-tsan -L tier1 --output-on-failure -j "$(nproc)"
  echo "tsan gate passed (-L tier1)"
fi

# --- gating ASan+UBSan stage ---------------------------------------------------
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$(nproc)" --target fairsfe_tests --target fairsfe_alloc_tests \
      --target fairbench --target fairbenchd
ctest --test-dir build-asan-ubsan -L tier1 --output-on-failure -j "$(nproc)"
echo "asan-ubsan gate passed (-L tier1)"

# --- gating Release build (warnings are errors) -------------------------------
cmake -S . -B build-perf -DCMAKE_BUILD_TYPE=Release \
      -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build build-perf -j "$(nproc)"
SCENARIOS=$(./build-perf/fairbench --list | tail -1)
echo "fairbench --list: ${SCENARIOS}"
case "${SCENARIOS}" in
  0\ scenarios*) echo "registry is empty — scenario TUs dropped?"; exit 1 ;;
esac
ctest --test-dir build-perf -R '^(AllocCeiling|BytesPool)\.' --output-on-failure
echo "release build gate passed"

# --- gating daemon smoke -------------------------------------------------------
# Spawn fairbenchd on a unix socket, drive a small concurrent request mix,
# SIGTERM it, and require a clean drain (exit 0) with every request
# answered — loadtest.py exits non-zero on any error event, missing
# answer, or unclean shutdown. Small mix: this gates correctness of the
# service path, not its throughput (the daemon_mix benchmark measures that).
python3 scripts/loadtest.py --daemon build-perf/fairbenchd \
    --requests 8 --connections 2 --runs 32
echo "daemon smoke passed"

# --- gating benchmark smoke ----------------------------------------------------
# The first call builds the benchmark's own Release tree into .bench_build/.
for workload in gk_abort optn_lamport daemon_mix; do
  python3 perfbench/run.py --workload "${workload}" --seed 1 --seconds 2 \
      --trace 1
done
echo "benchmark smoke passed"

# --- non-gating experiment smoke ----------------------------------------------
./build-perf/fairbench --filter smoke --runs 32 ||
  echo "experiment smoke deviation (non-gating; 32 runs is noisy)"
