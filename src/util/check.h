// Checked invariants for the determinism contract.
//
// The simulation's guarantees (bit-identical estimates across thread counts,
// golden-tested transcripts) rest on internal contracts — share-index bounds,
// plan/circuit shape agreement, mailbox index validity — that a linter cannot
// see statically. This header makes them runtime-checked:
//
//   FAIRSFE_CHECK(cond, msg)   always on, in every build type. For O(1)
//                              one-time contracts (config shapes, party
//                              wiring). Aborts with file:line + message.
//   FAIRSFE_DCHECK(cond, msg)  on in debug builds (!NDEBUG) and whenever
//                              FAIRSFE_ENABLE_DCHECKS is defined — the
//                              asan-ubsan and tsan presets define it, so
//                              sanitizer CI always runs them regardless of
//                              the preset's NDEBUG status. For per-gate /
//                              per-message loop invariants too hot for
//                              release builds.
//
// Unlike assert(), FAIRSFE_CHECK never silently compiles away, and DCHECK's
// on/off status is controlled by an explicit flag rather than whatever
// NDEBUG happens to be in a given preset. fairsfe-analyze bans bare
// assert() in src/ (rule bare-assert) to keep this the only invariant layer.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace fairsfe::util {

[[noreturn]] inline void check_fail(const char* cond, const char* file, int line,
                                    const char* msg) {
  std::fprintf(stderr, "FAIRSFE_CHECK failed: %s:%d: (%s) — %s\n", file, line, cond,
               msg);
  std::fflush(stderr);
  std::abort();
}

}  // namespace fairsfe::util

#define FAIRSFE_CHECK(cond, msg) \
  ((cond) ? (void)0 : ::fairsfe::util::check_fail(#cond, __FILE__, __LINE__, (msg)))

#if defined(FAIRSFE_ENABLE_DCHECKS) || !defined(NDEBUG)
#define FAIRSFE_DCHECKS_ENABLED 1
#define FAIRSFE_DCHECK(cond, msg) FAIRSFE_CHECK(cond, msg)
#else
#define FAIRSFE_DCHECKS_ENABLED 0
// Disabled: the condition is not evaluated, but stays visible to the compiler
// so variables used only in DCHECKs don't trip -Wunused in release builds.
#define FAIRSFE_DCHECK(cond, msg) ((void)sizeof(!(cond)), (void)0)
#endif
