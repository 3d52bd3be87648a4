// Span ledger of the traced run.
//
// The benchmark opens its own spans around each call and around the calls
// into each public layer (plan lookup, execute_plan). After every call it
// adopts the spans the library recorded meanwhile (telemetry snapshot,
// reset before the call), attaches each to its parent, checks the nesting,
// and accounts each layer's self time: the time its spans cover minus the
// time their children cover. Spans of one name that run in parallel (the
// executor's per-block spans) count once for the wall time they cover.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace perfbench {

class Ledger {
 public:
  struct Span {
    const char* name = nullptr;  ///< string literal (benchmark or library)
    int tid = 0;                 ///< telemetry thread id
    double start_us = 0;
    double end_us = 0;
    int parent = -1;  ///< index into spans(); -1 for a call's root span
    long call = 0;
  };

  /// Requires telemetry compiled in and enabled; learns the calling
  /// thread's telemetry id, which the benchmark's own spans carry.
  Ledger();

  /// Opens a span now on the calling thread; returns its index.
  int open(const char* name, int parent, long call);
  void close(int span);
  const Span& span(int index) const {
    return spans_[static_cast<std::size_t>(index)];
  }

  /// Adopts the library spans recorded during the call rooted at `root`,
  /// checks that every span nests within its parent and its call and that
  /// the layers' self times sum to no more than the call's duration, and
  /// accounts the call. Only `timed` calls count toward layer shares and
  /// per-call span sums; warm-up calls are checked but not counted.
  void finish_call(int root,
                   const std::vector<ctb::telemetry::SpanEvent>& events,
                   bool timed);

  long violations() const { return violations_; }
  const std::string& first_violation() const { return first_violation_; }
  long timed_calls() const { return timed_calls_; }

  /// Self time of `layer` over timed calls as a percentage of their summed
  /// duration.
  double layer_pct(const std::string& layer) const;
  /// Mean per timed call of the summed durations of spans named `name`
  /// (thread time for spans that run in parallel).
  double span_us_per_call(const std::string& name) const;

  /// Ledger layers, in report order.
  static const std::vector<std::string>& layers();

  /// Writes every span as CSV: call,id,parent,name,tid,start_us,end_us.
  void write_csv(const std::string& path) const;

 private:
  void violation(const std::string& what);

  std::vector<Span> spans_;
  int main_tid_ = 0;
  long violations_ = 0;
  std::string first_violation_;
  long timed_calls_ = 0;
  double timed_call_us_ = 0;
  std::map<std::string, double> layer_self_us_;
  std::map<std::string, double> span_sum_us_;
};

}  // namespace perfbench
