#include "ledger.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "bench.hpp"

namespace perfbench {
namespace {

// Timestamps are doubles in microseconds; a child's clock read always
// follows its parent's, so this only absorbs rounding.
constexpr double kEpsUs = 0.01;

using Interval = std::pair<double, double>;

double union_length(std::vector<Interval>& v) {
  std::sort(v.begin(), v.end());
  double total = 0, lo = 0, hi = 0;
  bool open = false;
  for (const auto& [a, b] : v) {
    if (!open || a > hi) {
      if (open) total += hi - lo;
      lo = a;
      hi = b;
      open = true;
    } else {
      hi = std::max(hi, b);
    }
  }
  if (open) total += hi - lo;
  return total;
}

bool starts_with(const char* s, const char* prefix) {
  return std::strncmp(s, prefix, std::strlen(prefix)) == 0;
}

// Maps a span name to its ledger layer.
std::string layer_of(const char* name) {
  static const std::map<std::string, std::string> exact = {
      {"call", "call.other"},
      {"warmup", "call.other"},
      {"service.get", "lookup"},
      {"plan_cache.plan", "lookup"},
      {"kernels.execute", "exec.other"},
      {"exec.run_batched_plan", "exec.other"},
      {"exec.audit", "exec.audit"},
      {"exec.pack", "exec.pack"},
      {"exec.block", "exec.tiles"},
      {"exec.splitk.reduce", "exec.splitk_reduce"},
      {"plan.tiling", "plan.tiling"},
      {"sim.simulate", "plan.simulate"},
      {"plan.splitk.consider", "plan.splitk"},
  };
  if (const auto it = exact.find(name); it != exact.end()) return it->second;
  if (starts_with(name, "plan.batch.")) return "plan.batching";
  if (starts_with(name, "plan.") || starts_with(name, "cache."))
    return "plan.other";
  return "other";
}

}  // namespace

double now_us() { return ctb::telemetry::now_us(); }

Ledger::Ledger() {
  namespace tel = ctb::telemetry;
  if (!tel::snapshot().compiled_in || !tel::enabled())
    throw std::runtime_error("the ledger needs telemetry compiled in and on");
  static const char* const kProbe = "perfbench.tid";
  tel::reset();
  tel::record_span(kProbe, now_us(), 0.0);
  bool found = false;
  for (const tel::SpanEvent& e : tel::snapshot().spans)
    if (e.name != nullptr && std::strcmp(e.name, kProbe) == 0) {
      main_tid_ = e.tid;
      found = true;
    }
  tel::reset();
  if (!found) throw std::runtime_error("telemetry recorded no probe span");
}

int Ledger::open(const char* name, int parent, long call) {
  Span s;
  s.name = name;
  s.tid = main_tid_;
  s.start_us = now_us();
  s.end_us = s.start_us;
  s.parent = parent;
  s.call = call;
  spans_.push_back(s);
  return static_cast<int>(spans_.size()) - 1;
}

void Ledger::close(int span) {
  spans_[static_cast<std::size_t>(span)].end_us = now_us();
}

void Ledger::violation(const std::string& what) {
  if (violations_++ == 0) first_violation_ = what;
}

void Ledger::finish_call(int root,
                         const std::vector<ctb::telemetry::SpanEvent>& events,
                         bool timed) {
  const auto first = static_cast<std::size_t>(root);
  const std::size_t library_begin = spans_.size();
  const long call = spans_[first].call;
  for (const ctb::telemetry::SpanEvent& e : events) {
    Span s;
    s.name = e.name;
    s.tid = e.tid;
    s.start_us = e.start_us;
    s.end_us = e.start_us + e.dur_us;
    s.call = call;
    spans_.push_back(s);
  }

  // Attach parents in start order (longer span first on ties). A span's
  // parent is the innermost open span on its own thread; a span opened on
  // a worker thread by a parallel region belongs to the innermost span open
  // on the calling thread that is not one of its parallel siblings.
  std::vector<std::size_t> order;
  for (std::size_t i = first; i < spans_.size(); ++i) order.push_back(i);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (spans_[a].start_us != spans_[b].start_us)
                       return spans_[a].start_us < spans_[b].start_us;
                     return spans_[a].end_us > spans_[b].end_us;
                   });
  if (order.front() != first) {
    violation("a span of call " + std::to_string(call) +
              " starts before the call");
    return;
  }
  std::map<int, std::vector<std::size_t>> open_on;
  auto live = [&](int tid, double t) -> std::vector<std::size_t>& {
    std::vector<std::size_t>& st = open_on[tid];
    while (!st.empty() && spans_[st.back()].end_us <= t) st.pop_back();
    return st;
  };
  for (const std::size_t i : order) {
    Span& s = spans_[i];
    std::vector<std::size_t>& own = live(s.tid, s.start_us);
    if (!own.empty() && s.end_us > spans_[own.back()].end_us + kEpsUs)
      violation(std::string(s.name) + " overlaps " +
                spans_[own.back()].name + " on one thread in call " +
                std::to_string(call));
    if (i >= library_begin) {
      if (!own.empty()) {
        s.parent = static_cast<int>(own.back());
      } else {
        const std::vector<std::size_t>& caller = live(main_tid_, s.start_us);
        for (auto it = caller.rbegin(); it != caller.rend(); ++it)
          if (std::strcmp(spans_[*it].name, s.name) != 0) {
            s.parent = static_cast<int>(*it);
            break;
          }
      }
    }
    if (i != first) {
      const Span* p = s.parent >= 0
                          ? &spans_[static_cast<std::size_t>(s.parent)]
                          : nullptr;
      if (p == nullptr || s.start_us < p->start_us - kEpsUs ||
          s.end_us > p->end_us + kEpsUs ||
          s.end_us > spans_[first].end_us + kEpsUs)
        violation(std::string(s.name) + " escapes its parent in call " +
                  std::to_string(call));
    }
    own.push_back(i);
  }

  // Self time per span name: wall time the name's spans cover minus the
  // wall time their children cover.
  std::map<std::string, std::vector<Interval>> covered, children;
  std::map<std::string, double> summed;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    covered[s.name].emplace_back(s.start_us, s.end_us);
    summed[s.name] += s.end_us - s.start_us;
    if (s.parent >= 0)
      children[spans_[static_cast<std::size_t>(s.parent)].name].emplace_back(
          s.start_us, s.end_us);
  }
  const double call_us = spans_[first].end_us - spans_[first].start_us;
  double self_total = 0;
  std::map<std::string, double> self_of_layer;
  for (auto& [name, intervals] : covered) {
    double self = union_length(intervals);
    if (const auto c = children.find(name); c != children.end())
      self -= union_length(c->second);
    self_total += self;
    self_of_layer[layer_of(name.c_str())] += self;
  }
  if (self_total > call_us + kEpsUs)
    violation("self times of call " + std::to_string(call) + " sum to " +
              std::to_string(self_total) + " us, beyond its " +
              std::to_string(call_us) + " us");
  if (!timed) return;
  ++timed_calls_;
  timed_call_us_ += call_us;
  for (const auto& [layer, us] : self_of_layer) layer_self_us_[layer] += us;
  for (const auto& [name, us] : summed) span_sum_us_[name] += us;
}

double Ledger::layer_pct(const std::string& layer) const {
  const auto it = layer_self_us_.find(layer);
  if (it == layer_self_us_.end() || timed_call_us_ <= 0) return 0.0;
  return 100.0 * it->second / timed_call_us_;
}

double Ledger::span_us_per_call(const std::string& name) const {
  const auto it = span_sum_us_.find(name);
  if (it == span_sum_us_.end() || timed_calls_ == 0) return 0.0;
  return it->second / static_cast<double>(timed_calls_);
}

const std::vector<std::string>& Ledger::layers() {
  static const std::vector<std::string> names = {
      "lookup",        "plan.other",     "plan.tiling",
      "plan.batching", "plan.simulate",  "plan.splitk",
      "exec.other",    "exec.audit",     "exec.pack",
      "exec.tiles",    "exec.splitk_reduce", "call.other",
      "other"};
  return names;
}

void Ledger::write_csv(const std::string& path) const {
  std::ofstream out(path);
  out << "call,id,parent,name,tid,start_us,end_us\n";
  out.precision(15);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << s.call << ',' << i << ',' << s.parent << ',' << s.name << ','
        << s.tid << ',' << s.start_us << ',' << s.end_us << '\n';
  }
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

}  // namespace perfbench
