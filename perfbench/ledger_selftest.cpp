// Self-test of the span checker: one well-nested call passes, and each
// nesting fault is reported. Exits non-zero on any unexpected verdict.
#include <cstdio>
#include <vector>

#include "bench.hpp"
#include "ledger.hpp"

namespace {

using perfbench::Ledger;
using Event = ctb::telemetry::SpanEvent;

constexpr int kWorker = 1000;  // a telemetry thread id no real thread has

void spin_us(double us) {
  const double end = perfbench::now_us() + us;
  while (perfbench::now_us() < end) {
  }
}

// A call shaped like the benchmark's: root, lookup, then execute; returns
// the execute span so a case can place library spans inside or around it.
struct Call {
  Ledger ledger;
  int root = -1;
  int execute = -1;
  Call() {
    root = ledger.open("call", -1, 1);
    const int lookup = ledger.open("plan_cache.plan", root, 1);
    spin_us(50);
    ledger.close(lookup);
    execute = ledger.open("kernels.execute", root, 1);
    spin_us(400);
    ledger.close(execute);
    ledger.close(root);
  }
  double begin(int s) const { return ledger.span(s).start_us; }
  double end(int s) const { return ledger.span(s).end_us; }
};

bool expect(const char* what, bool want_violation,
            std::vector<Event> (*events)(const Call&)) {
  Call c;
  c.ledger.finish_call(c.root, events(c), true);
  const bool got = c.ledger.violations() > 0;
  std::printf("%-44s %s%s%s\n", what, got ? "violation" : "clean",
              got ? ": " : "", c.ledger.first_violation().c_str());
  return got == want_violation;
}

}  // namespace

int main() {
  ctb::telemetry::set_enabled(true);
  bool ok = true;
  ok &= expect("parallel blocks inside execute", false, [](const Call& c) {
    const double a = c.begin(c.execute), b = c.end(c.execute);
    return std::vector<Event>{
        {"exec.block", kWorker, a + 10, 200, 0},
        {"exec.block", kWorker + 1, a + 20, b - a - 40, 0}};
  });
  ok &= expect("span starting before its call", true, [](const Call& c) {
    return std::vector<Event>{
        {"exec.block", kWorker, c.begin(c.root) - 5, 20, 0}};
  });
  ok &= expect("span ending after its call", true, [](const Call& c) {
    const double a = c.begin(c.execute);
    return std::vector<Event>{
        {"exec.block", kWorker, a + 10, c.end(c.root) - a + 50, 0}};
  });
  ok &= expect("partial overlap on one thread", true, [](const Call& c) {
    const double a = c.begin(c.execute);
    return std::vector<Event>{{"exec.pack", kWorker, a + 10, 100, 0},
                              {"exec.block", kWorker, a + 50, 100, 0}};
  });
  ok &= expect("sibling layers covering the same time", true,
               [](const Call& c) {
                 const double a = c.begin(c.execute), b = c.end(c.execute);
                 return std::vector<Event>{
                     {"exec.pack", kWorker, a + 1, b - a - 2, 0},
                     {"exec.block", kWorker + 1, a + 1, b - a - 2, 0}};
               });
  std::printf("ledger self-test %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}
