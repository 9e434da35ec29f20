// Known-bad corpus for the `nondeterminism` rule: every flagged line carries
// an EXPECT marker naming the rule; the analyzer's --self-test fails if a
// marked line is missed or an unmarked line is flagged.
//
// Mentioning std::random_device or srand in prose (like this line) is fine:
// rules read code tokens, never comments or literals.
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>

void bad_randomness() {
  std::random_device rd;                                // EXPECT(nondeterminism)
  int a = rd();                                         // fine: plain call
  std::srand(42);                                       // EXPECT(nondeterminism)
  int b = std::rand();                                  // EXPECT(nondeterminism)
  int c = rand();                                       // EXPECT(nondeterminism)
  (void)a; (void)b; (void)c;
}

void bad_wallclock() {
  auto t0 = time(nullptr);                              // EXPECT(nondeterminism)
  auto t1 = clock();                                    // EXPECT(nondeterminism)
  auto t2 = std::chrono::system_clock::now();           // EXPECT(nondeterminism)
  auto t3 = std::chrono::high_resolution_clock::now();  // EXPECT(nondeterminism)
  (void)t0; (void)t1; (void)t2; (void)t3;
}

void fine_wallclock() {
  // steady_clock is the one sanctioned clock (throughput reporting only).
  auto t = std::chrono::steady_clock::now();
  (void)t;
  // Identifiers merely containing the banned names are fine:
  int runtime_budget = 0;
  int wall_time_ms = runtime_budget;
  (void)wall_time_ms;
}

const char* fine_string = "call time() and srand() at your peril";
