// Cases that defeat line-based matching. A banned construct split across
// lines is still one token sequence, a raw string is one literal however
// many quotes it holds, and a directive's trailing comment and a macro body
// are read like any other comment and code. The lone-quote case comes last:
// a stripper that misreads it as opening a string blanks everything after
// it, which would hide the other cases.
#include <cassert>  // LINT-ALLOW(bare-assert): fixture proves a directive's trailing comment is an annotation too
#include <cstdlib>
#include <ctime>
#include <map>

struct Foo;

// A macro body is code too.
#define WALL_SECONDS() std::time(nullptr)  // EXPECT(nondeterminism)

std::map<  // EXPECT(pointer-keyed-order)
    const Foo*, int> by_address;

long split_time_call() {
  return static_cast<long>(std::time  // EXPECT(nondeterminism)
                           (nullptr));
}

const char* quoted_doc = R"(never "rand()" in protocol code)";

int after_lone_quote() {
  const char* q = R"(")";
  (void)q;
  return std::rand();  // EXPECT(nondeterminism)
}
