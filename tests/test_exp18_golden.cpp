// Golden report for E18 (fault tolerance): every row's utility, standard
// error and event distribution, and every check's verdict, of a 256-run
// fairbench run at the scenario's registered per-point seeds. The report goes
// through service::run_scenario, the path fairbench and fairbenchd share, and
// is read back from its JSON (numbers print with 17 significant digits, so
// they round-trip exactly). Any change to the fault plan's drop draws, the
// crash schedule, the strict j-bit or the Opt2SFE/contract runs shows up here
// as a changed bit. On a mismatch the test prints the row as it measured it,
// in the table's own syntax.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "experiments/registry.h"
#include "experiments/report.h"
#include "service/json.h"
#include "service/runner.h"

namespace fairsfe::experiments {
namespace {

constexpr std::size_t kRuns = 256;

struct GoldenRow {
  const char* name;
  double utility;
  double std_error;
  std::array<double, 4> event_freq;  ///< E00, E01, E10, E11
};

struct GoldenCheck {
  bool ok;
  const char* what;
};

const service::JsonValue& report() {
  static const service::JsonValue parsed = [] {
    const ScenarioSpec* spec = Registry::instance().find("exp18_fault_tolerance");
    EXPECT_NE(spec, nullptr);
    bench::Args args;
    args.quiet = true;
    args.runs = kRuns;
    args.runs_set = true;
    const auto doc = service::json_parse(service::run_scenario(*spec, args).json);
    EXPECT_TRUE(doc.has_value());
    return doc.value_or(service::JsonValue{});
  }();
  return parsed;
}

const service::JsonArray& array_of(const char* key) {
  static const service::JsonArray empty;
  const service::JsonValue* v = report().find(key);
  return v != nullptr ? v->as_array() : empty;
}

TEST(Exp18Golden, Rows) {
  const std::vector<GoldenRow> golden = {
      {"std(0.25,0,1,0.5):p=0.00", 0x1.8dp-1, 0x1.fe59ac2c3bf3p-7,
       {0x0p+0, 0x0p+0, 0x1.1ap-1, 0x1.ccp-2}},
      {"std(0.25,0,1,0.5):p=0.05", 0x1.8bp-1, 0x1.05845b926f83cp-6,
       {0x1p-6, 0x0p+0, 0x1.1ap-1, 0x1.bcp-2}},
      {"std(0.25,0,1,0.5):p=0.10", 0x1.888p-1, 0x1.0d268551e75ddp-6,
       {0x1.2p-5, 0x0p+0, 0x1.1ap-1, 0x1.a8p-2}},
      {"std(0.25,0,1,0.5):p=0.15", 0x1.858p-1, 0x1.15ea3890c00a2p-6,
       {0x1.ep-5, 0x0p+0, 0x1.1ap-1, 0x1.9p-2}},
      {"std(0.25,0,1,0.5):p=0.20", 0x1.81p-1, 0x1.225541b6195eap-6,
       {0x1.8p-4, 0x0p+0, 0x1.1ap-1, 0x1.6cp-2}},
      {"std(0.25,0,1,0.5):p=0.25", 0x1.808p-1, 0x1.23a9b914da26cp-6,
       {0x1.9p-4, 0x0p+0, 0x1.1ap-1, 0x1.68p-2}},
      {"std(0.25,0,1,0.5):p=0.30", 0x1.7cp-1, 0x1.2f38a6b3dfda9p-6,
       {0x1.1p-3, 0x0p+0, 0x1.1ap-1, 0x1.44p-2}},
      {"spite(0.6,0,1,0.5):p=0.00", 0x1.77p-1, 0x1.ffbbb72e0aab7p-7,
       {0x0p+0, 0x0p+0, 0x1.dcp-2, 0x1.12p-1}},
      {"spite(0.6,0,1,0.5):p=0.05", 0x1.7833333333333p-1, 0x1.fc2e259bd3de3p-7,
       {0x1.8p-6, 0x0p+0, 0x1.dcp-2, 0x1.06p-1}},
      {"spite(0.6,0,1,0.5):p=0.10", 0x1.7966666666666p-1, 0x1.f88e704fe6dc2p-7,
       {0x1.8p-5, 0x0p+0, 0x1.dcp-2, 0x1.f4p-2}},
      {"spite(0.6,0,1,0.5):p=0.15", 0x1.7a33333333334p-1, 0x1.f619b2074642p-7,
       {0x1p-4, 0x0p+0, 0x1.dcp-2, 0x1.e4p-2}},
      {"spite(0.6,0,1,0.5):p=0.20", 0x1.7b9999999999ap-1, 0x1.f1b935297cfddp-7,
       {0x1.7p-4, 0x0p+0, 0x1.dcp-2, 0x1.c8p-2}},
      {"spite(0.6,0,1,0.5):p=0.25", 0x1.7d9999999999ap-1, 0x1.eb4abec24a4c9p-7,
       {0x1.08p-3, 0x0p+0, 0x1.dcp-2, 0x1.ap-2}},
      {"spite(0.6,0,1,0.5):p=0.30", 0x1.7eccccccccccep-1, 0x1.e7543d5958bc8p-7,
       {0x1.38p-3, 0x0p+0, 0x1.dcp-2, 0x1.88p-2}},
      {"pi1:p=0.00", 0x1p+0, 0x0p+0,
       {0x0p+0, 0x0p+0, 0x1p+0, 0x0p+0}},
      {"pi1:p=0.15", 0x1.bc8p-1, 0x1.24e645b173d9dp-6,
       {0x1.68p-3, 0x0p+0, 0x1.a6p-1, 0x0p+0}},
      {"pi1:p=0.30", 0x1.91p-1, 0x1.5cd64df4912efp-6,
       {0x1.28p-2, 0x0p+0, 0x1.6cp-1, 0x0p+0}},
      {"pi2:p=0.00", 0x1.72p-1, 0x1.fdecda6cb449fp-7,
       {0x0p+0, 0x0p+0, 0x1.c8p-2, 0x1.1cp-1}},
      {"pi2:p=0.15", 0x1.148p-1, 0x1.3f31bc5198f76p-6,
       {0x1.acp-2, 0x0p+0, 0x1.28p-2, 0x1.2cp-2}},
      {"pi2:p=0.30", 0x1.a2p-2, 0x1.1832946de1b11p-6,
       {0x1.6p-1, 0x0p+0, 0x1.48p-3, 0x1.38p-3}},
      {"crash:p2@r2,no-restart", 0x1p-2, 0x0p+0,
       {0x1p+0, 0x0p+0, 0x0p+0, 0x0p+0}},
      {"crash:p2@r1,restart@r2", 0x1.7ap-1, 0x1.0038320d406d9p-6,
       {0x0p+0, 0x0p+0, 0x1.e8p-2, 0x1.0cp-1}},
  };
  const service::JsonArray& rows = array_of("rows");
  EXPECT_EQ(rows.size(), golden.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::string name = rows[i].get_string("name");
    const double utility = rows[i].get_number("utility", -1.0);
    const double std_error = rows[i].get_number("std_error", -1.0);
    std::array<double, 4> freq{-1.0, -1.0, -1.0, -1.0};
    if (const service::JsonValue* f = rows[i].find("event_freq")) {
      for (std::size_t e = 0; e < freq.size() && e < f->as_array().size(); ++e) {
        freq[e] = f->as_array()[e].as_number();
      }
    }
    const GoldenRow* g = i < golden.size() ? &golden[i] : nullptr;
    const bool same = g != nullptr && name == g->name && utility == g->utility &&
                      std_error == g->std_error && freq == g->event_freq;
    char measured[512];
    std::snprintf(measured, sizeof(measured), "{\"%s\", %a, %a,\n {%a, %a, %a, %a}},",
                  name.c_str(), utility, std_error, freq[0], freq[1], freq[2], freq[3]);
    EXPECT_TRUE(same) << "measured: " << measured;
  }
}

TEST(Exp18Golden, Checks) {
  const std::vector<GoldenCheck> golden = {
      {true, "std(0.25,0,1,0.5): p=0 reproduces the reliable-network optimum 0.750000"},
      {true, "std(0.25,0,1,0.5): p=0.30 actually dropped messages and fired timeouts"},
      {true, "std: every drop rate respects the Theorem 3 bound 0.75"},
      {true, "spite(0.6,0,1,0.5): p=0 reproduces the reliable-network optimum 0.750000"},
      {true, "spite(0.6,0,1,0.5): p=0.30 actually dropped messages and fired timeouts"},
      {true, "spite: utility rises monotonically in p (coupled runs)"},
      {true, "spite: p=0.30 donates ~p(g00-g11)/2 = 0.015 utility above the optimum"},
      {true, "pi1: p=0 reproduces the E01 sup g10 = 1 (corrupt the second opener)"},
      {true, "pi1: p=0.15 never exceeds the reliable-network sup"},
      {true, "pi1: p=0.30 never exceeds the reliable-network sup"},
      {true, "pi2: p=0 reproduces the 0.75 baseline"},
      {true, "pi2: p=0.15 never exceeds the reliable-network sup"},
      {true, "pi2: p=0.30 never exceeds the reliable-network sup"},
      {true, "crash: exactly one crash per run, no restarts"},
      {true, "crash: permanent honest crash denies both sides the output (E00)"},
      {true, "crash-restart: one crash and one restart per run"},
      {true, "crash-restart: a one-round outage is absorbed, utility back at 0.75"},
      {true, "no run hit the round cap (estimator excluded 0 runs)"},
  };
  const service::JsonArray& checks = array_of("checks");
  EXPECT_EQ(checks.size(), golden.size());
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const service::JsonValue* ok = checks[i].find("ok");
    const bool measured_ok = ok != nullptr && ok->as_bool();
    const std::string what = checks[i].get_string("what");
    const GoldenCheck* g = i < golden.size() ? &golden[i] : nullptr;
    const bool same = g != nullptr && ok != nullptr && measured_ok == g->ok && what == g->what;
    EXPECT_TRUE(same) << "measured: {" << (measured_ok ? "true" : "false") << ", \"" << what
                      << "\"},";
  }
  EXPECT_EQ(report().get_u64("deviations", 1), 0u);
}

}  // namespace
}  // namespace fairsfe::experiments
