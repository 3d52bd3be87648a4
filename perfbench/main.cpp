// ctb_callbench: runs one workload for a fixed time and prints its metrics.
//
//   ctb_callbench --workload infer_steady|serve_churn|train_step
//                 --seed N --seconds S --trace 0|1
//                 [--spans FILE] [--corrupt N]
//
// --trace 0 measures the end-to-end metrics with telemetry off. --trace 1
// measures the per-layer metrics: an untraced phase (the baseline for
// tracing overhead and the parallel-runtime noise figures), a traced phase
// with the span ledger, a one-thread comparison, and the host ceiling
// probe; --spans writes the ledger's spans as CSV. --corrupt N flips one
// output bit on every N-th call before it is checked (self-test of the
// output check). Human-readable lines go first; the last line of stdout is
// the result as one JSON object.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/batch_plan.hpp"
#include "core/tiling_engine.hpp"
#include "kernels/packing.hpp"
#include "ledger.hpp"
#include "telemetry/telemetry.hpp"
#include "util/parallel.hpp"

namespace perfbench {
namespace {

namespace tel = ctb::telemetry;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  long corrupt = 0;
  std::string spans;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = std::stoi(v);
    } else if (flag == "--corrupt") {
      a.corrupt = std::stol(v);
    } else if (flag == "--spans") {
      a.spans = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  if (a.trace != 0 && a.trace != 1)
    throw std::invalid_argument("--trace must be 0 or 1");
  return a;
}

double process_cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

// Steal ticks summed over all CPUs (/proc/stat), 0 where unavailable.
long long steal_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  long long v[8] = {};
  f >> cpu;
  for (long long& x : v) f >> x;
  return f ? v[7] : 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

template <typename F>
double median_us_of_3(F&& f) {
  std::vector<double> t;
  for (int i = 0; i < 3; ++i) {
    const double t0 = now_us();
    f();
    t.push_back(now_us() - t0);
  }
  return median(t);
}

struct CallRecord {
  double us = 0;
  double cpu_us = 0;
  double flops = 0;
  int key = 0;
  bool ok = false;  // returned and verified
  bool miss = false;
  const ctb::PlanSummary* summary = nullptr;  // valid until the next call
};

// Standalone calls into single layers, timed outside any call window.
struct Probes {
  std::vector<double> tiling_us, batching_us, time_plan_us, audit_us,
      pack_us;
  double pack_bytes = 0;
  double pack_time_us = 0;
  int budget = 256;

  void run(const Workload& w, const ctb::PlanSummary& s) {
    if (budget-- <= 0) return;
    tel::set_enabled(false);
    const std::span<const ctb::GemmOperands> ops = w.operands();
    std::vector<ctb::GemmDims> dims;
    for (const ctb::GemmOperands& g : ops) dims.push_back(g.dims);
    const ctb::BatchedGemmPlanner planner(w.planner_config());
    const ctb::PlannerConfig& cfg = planner.config();

    ctb::TilingConfig tc;
    tc.tlp_threshold = cfg.tlp_threshold;
    ctb::TilingResult tiling;
    tiling_us.push_back(
        median_us_of_3([&] { tiling = ctb::select_tiling(dims, tc); }));
    const std::vector<ctb::Tile> tiles =
        ctb::enumerate_tiles(dims, tiling.per_gemm);
    ctb::BatchingConfig bc;
    bc.theta = cfg.theta;
    bc.tlp_threshold = cfg.tlp_threshold;
    batching_us.push_back(median_us_of_3([&] {
      ctb::batch_tiles(s.heuristic, tiles, static_cast<int>(tiling.variant),
                       bc);
    }));
    time_plan_us.push_back(median_us_of_3([&] {
      ctb::time_plan(planner.arch(), s.plan, dims, cfg.precision);
    }));
    audit_us.push_back(
        median_us_of_3([&] { ctb::audit_plan_operands(s.plan, ops); }));

    std::vector<int> strategy(ops.size(), -1);
    for (std::size_t t = 0; t < s.plan.gemm_of_tile.size(); ++t)
      strategy[static_cast<std::size_t>(s.plan.gemm_of_tile[t])] =
          s.plan.strategy_of_tile[t];
    double call_pack_us = 0;
    for (std::size_t g = 0; g < ops.size(); ++g) {
      if (strategy[g] < 0) continue;
      const ctb::TilingStrategy& st = ctb::batched_strategy_by_id(strategy[g]);
      std::size_t bytes = 0;
      const double us = median_us_of_3(
          [&] { bytes = ctb::pack_gemm(st, ops[g]).bytes(); });
      call_pack_us += us;
      pack_time_us += us;
      pack_bytes += static_cast<double>(bytes);
    }
    pack_us.push_back(call_pack_us);
    tel::set_enabled(true);
  }
};

// Library counters the traced run reads per call.
const char* const kCounters[] = {
    "exec.blocks",       "exec.tiles",          "exec.splitk.tiles",
    "exec.c.passes",     "exec.pack.bytes",     "exec.flops",
    "exec.dispatch.generic", "exec.dispatch.specialized",
    "tiling.candidates", "plan.splitk.considered", "plan.splitk.chosen",
    "sim.kernels",       "cache.hit",           "cache.miss",
    "tel.spans.dropped"};

struct Tracing {
  Ledger ledger;
  Probes probes;
  std::map<std::string, double> timed;  // counters over timed calls
  std::map<std::string, double> all;    // counters over every traced call
  long misses = 0;                      // every traced call
  std::vector<double> hit_lookup_us, miss_lookup_us, execute_us, call_us;
};

class Client {
 public:
  Client(Workload& w, long corrupt_every) : w_(w), corrupt_(corrupt_every) {}

  long attempted = 0;
  long failed = 0;
  std::string first_error;

  // One call: lookup + execute, traced when `tracing` is set. Warm-up calls
  // are not checked; timed calls are verified and recorded.
  CallRecord call(long id, Tracing* tracing, bool timed) {
    CallRecord r;
    Lookup found;
    bool threw = false;
    std::string error;
    int root = -1;
    if (tracing) {
      tel::reset();
      root = tracing->ledger.open(timed ? "call" : "warmup", -1, id);
    }
    const double cpu0 = process_cpu_us();
    const double t0 = now_us();
    try {
      found = w_.call(tracing ? &tracing->ledger : nullptr, id, root);
    } catch (const std::exception& e) {
      threw = true;
      error = e.what();
    }
    const double t1 = now_us();
    const double cpu1 = process_cpu_us();
    r.us = t1 - t0;
    r.cpu_us = cpu1 - cpu0;
    r.miss = found.miss;
    r.summary = found.summary;
    if (tracing) {
      tracing->ledger.close(root);
      const Ledger::Span& s = tracing->ledger.span(root);
      r.us = s.end_us - s.start_us;
      account(*tracing, root, tel::snapshot(), found, r, timed, threw);
      if (!threw && found.miss) tracing->probes.run(w_, *found.summary);
    }
    if (!timed) {
      if (threw) throw std::runtime_error("warm-up call failed: " + error);
      return r;
    }
    ++attempted;
    r.flops = w_.flops();
    r.key = key_id(w_.key());
    if (!threw) {
      if (corrupt_ > 0 && attempted % corrupt_ == 0) w_.corrupt_output();
      r.ok = w_.verify();
      if (!r.ok) error = "output mismatch on " + w_.key();
    }
    if (!r.ok) {
      ++failed;
      if (first_error.empty()) first_error = error;
    }
    return r;
  }

  // Closed loop: prepare, call, verify, until `seconds` have passed.
  std::vector<CallRecord> run_for(double seconds, Tracing* tracing) {
    std::vector<CallRecord> out;
    const double end = now_us() + seconds * 1e6;
    while (now_us() < end) {
      const long id = next_++;
      w_.prepare(id);
      out.push_back(call(id, tracing, true));
      if (attempted == kRssCalls) rss_mb_ = peak_rss_mb();
    }
    return out;
  }

  // Peak RSS over set-up and the first kRssCalls calls, a fixed prefix of
  // the workload, so serving more requests in a faster run does not grow
  // it; the peak so far when the run made fewer calls.
  double peak_rss_over_prefix() const {
    return rss_mb_ > 0 ? rss_mb_ : peak_rss_mb();
  }

  // Set-up: a fresh plan front plus the warm-up calls. Returns seconds of
  // program time (construction and calls, not input generation).
  double setup(Tracing* tracing) {
    double us = 0;
    const double t0 = now_us();
    w_.reset_front();
    us += now_us() - t0;
    for (long i = 0; i < w_.warmup_calls(); ++i) {
      w_.prepare_warmup(i);
      us += call(-1 - i, tracing, false).us;
    }
    return us / 1e6;
  }

  // Execute-only time of the same calls at the default thread count and at
  // one thread, alternating; returns (sum at one thread) / (sum at default).
  double speedup_vs_1t(int samples, double seconds) {
    double tn = 0, t1 = 0;
    const double end = now_us() + seconds * 1e6;
    for (int s = 0; s < samples && now_us() < end; ++s) {
      const long id = next_++;
      w_.prepare(id);
      const CallRecord r = call(id, nullptr, true);
      if (!r.ok) continue;
      auto exec = [&] {
        ctb::execute_plan(r.summary->plan, w_.operands(), 1.0f, 0.0f);
      };
      std::vector<double> n_us, one_us;
      for (int rep = 0; rep < 3; ++rep) {
        double t0 = now_us();
        exec();
        n_us.push_back(now_us() - t0);
        const ctb::ScopedParallelThreads serial(1);
        t0 = now_us();
        exec();
        one_us.push_back(now_us() - t0);
      }
      tn += median(n_us);
      t1 += median(one_us);
    }
    return tn > 0 ? t1 / tn : 0;
  }

  std::size_t keys() const { return key_ids_.size(); }

 private:
  int key_id(const std::string& key) {
    return key_ids_.emplace(key, static_cast<int>(key_ids_.size()))
        .first->second;
  }

  static void account(Tracing& t, int root, const tel::MetricsSnapshot& snap,
                      const Lookup& found, const CallRecord& r, bool timed,
                      bool threw) {
    t.ledger.finish_call(root, snap.spans, timed);
    for (const tel::CounterSample& c : snap.counters)
      for (const char* name : kCounters)
        if (c.name == name) {
          t.all[name] += static_cast<double>(c.value);
          if (timed) t.timed[name] += static_cast<double>(c.value);
        }
    if (threw) return;
    if (found.miss) {
      ++t.misses;
      t.miss_lookup_us.push_back(found.lookup_us);
    } else if (timed) {
      t.hit_lookup_us.push_back(found.lookup_us);
    }
    if (timed) {
      t.execute_us.push_back(found.execute_us);
      t.call_us.push_back(r.us);
    }
  }

  static constexpr long kRssCalls = 2000;

  Workload& w_;
  long corrupt_;
  long next_ = 0;
  double rss_mb_ = 0;
  std::map<std::string, int> key_ids_;
};

constexpr int kSetupReps = 11;

// Library worker threads. On the 4-vCPU reference host, runs at all 4
// threads saw 60-450 steal ticks and a run-to-run IQR/median of 0.22-0.25
// for gflops and call_p50_ms (infer_steady, 5 seeds x 25 s); at 2 threads,
// 10-25 steal ticks and 0.05, at the same median throughput. Two workers
// keep the parallel runtime (fork/join, static block chunking) in every
// call while the figures stay steady enough to gate on.
constexpr int kThreads = 2;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Metrics computed from one phase's call records.
struct LoopSummary {
  double gflops = 0, p50_ms = 0, p99_ms = 0, cpu_per_wall = 0;
  long beyond_p99 = 0, stall_calls = 0, calls = 0;
};

LoopSummary summarize(const std::vector<CallRecord>& calls, std::size_t keys) {
  LoopSummary s;
  std::vector<double> us;
  std::vector<std::vector<double>> by_key(keys);
  double flops = 0, ok_us = 0, cpu = 0, wall = 0;
  for (const CallRecord& r : calls) {
    us.push_back(r.us);
    by_key[static_cast<std::size_t>(r.key)].push_back(r.us);
    cpu += r.cpu_us;
    wall += r.us;
    if (r.ok) {
      flops += r.flops;
      ok_us += r.us;
    }
  }
  s.calls = static_cast<long>(calls.size());
  s.gflops = ok_us > 0 ? flops / ok_us / 1e3 : 0;
  s.p50_ms = median(us) / 1e3;
  s.p99_ms = percentile(us, 99) / 1e3;
  for (double u : us) s.beyond_p99 += u > s.p99_ms * 1e3;
  s.cpu_per_wall = wall > 0 ? cpu / wall : 0;
  std::vector<double> key_median(keys);
  for (std::size_t k = 0; k < keys; ++k) key_median[k] = median(by_key[k]);
  for (const CallRecord& r : calls)
    s.stall_calls += r.us > 10 * key_median[static_cast<std::size_t>(r.key)];
  return s;
}

void print_metric(const Metric& m) {
  std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(12);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": " << v
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

int run(const Args& args) {
  ctb::set_parallel_threads(std::min(kThreads, ctb::parallel_max_threads()));
  std::unique_ptr<Workload> w = make_workload(args.workload, args.seed);
  if (!w) throw std::invalid_argument("unknown workload " + args.workload);
  Client client(*w, args.corrupt);
  std::vector<Metric> metrics;
  std::vector<double> setups;
  const int untraced_setups = args.trace ? kSetupReps - 1 : kSetupReps;
  for (int i = 0; i < untraced_setups; ++i)
    setups.push_back(client.setup(nullptr));
  const int threads = ctb::parallel_max_threads();
  std::printf("workload %s  seed %llu  threads %d  clients 1 (closed loop)\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), threads);
  long violations = 0;

  if (args.trace == 0) {
    // Single-core rate before and after: a drop marks a run on a contended
    // host rather than a slower program.
    const double muladd_before = probe_host().muladd_gflops;
    const long long steal0 = steal_ticks();
    const std::vector<CallRecord> calls = client.run_for(args.seconds, nullptr);
    const long long steal = steal_ticks() - steal0;
    const double muladd_after = probe_host().muladd_gflops;
    const LoopSummary s = summarize(calls, client.keys());
    metrics = {{"gflops", s.gflops, "GFLOP/s"},
               {"call_p50_ms", s.p50_ms, "ms"},
               {"sim_us", w->sim_us(), "us_simulated"},
               {"setup_s", median(setups), "s"},
               {"peak_rss_mb", client.peak_rss_over_prefix(), "MB"}};
    for (const Metric& m : metrics) print_metric(m);
    print_metric({"error_rate", ratio(static_cast<double>(client.failed),
                                      static_cast<double>(client.attempted)),
                  "ratio"});
    print_metric({"call_p99_ms", s.p99_ms, "ms"});
    print_metric({"calls", static_cast<double>(s.calls), "count"});
    print_metric({"calls_beyond_p99", static_cast<double>(s.beyond_p99),
                  "count"});
    print_metric({"util.parallel.cpu_per_wall", s.cpu_per_wall, "ratio"});
    print_metric({"util.parallel.stall_calls",
                  static_cast<double>(s.stall_calls), "count"});
    print_metric({"host.steal_ticks", static_cast<double>(steal), "ticks"});
    print_metric({"host.muladd_gflops.before", muladd_before, "GFLOP/s"});
    print_metric({"host.muladd_gflops.after", muladd_after, "GFLOP/s"});
  } else {
    tel::set_enabled(true);
    Tracing tracing;
    setups.push_back(client.setup(&tracing));
    tel::set_enabled(false);

    const long long steal0 = steal_ticks();
    const std::vector<CallRecord> plain =
        client.run_for(0.45 * args.seconds, nullptr);
    tel::set_enabled(true);
    tel::reset();
    const std::vector<CallRecord> traced =
        client.run_for(0.35 * args.seconds, &tracing);
    tel::set_enabled(false);
    const long long steal = steal_ticks() - steal0;
    const double speedup = client.speedup_vs_1t(32, 0.15 * args.seconds);
    const HostCeiling host = probe_host();
    if (!args.spans.empty()) tracing.ledger.write_csv(args.spans);

    const LoopSummary u = summarize(plain, client.keys());
    const Ledger& L = tracing.ledger;
    violations = L.violations();
    if (violations > 0)
      std::fprintf(stderr, "span check: %ld violations, first: %s\n",
                   violations, L.first_violation().c_str());
    const auto per_call = [&](const char* c) {
      return ratio(tracing.timed[c], static_cast<double>(traced.size()));
    };
    const auto per_miss = [&](const char* c) {
      return ratio(tracing.all[c], static_cast<double>(tracing.misses));
    };
    long hits = 0;
    for (const CallRecord& r : traced) hits += !r.miss;
    const double tile_gflops =
        ratio(tracing.timed["exec.flops"],
              L.span_us_per_call("exec.block") * L.timed_calls()) / 1e3;
    const double pack_gbps =
        ratio(tracing.probes.pack_bytes, tracing.probes.pack_time_us) / 1e3;
    const Probes& p = tracing.probes;
    metrics = {
        {"service.get_hit_us", median(tracing.hit_lookup_us), "us"},
        {"service.get_miss_us", median(tracing.miss_lookup_us), "us"},
        {"service.get_miss_p99_us", percentile(tracing.miss_lookup_us, 99),
         "us"},
        {"service.hit_ratio",
         ratio(static_cast<double>(hits), static_cast<double>(traced.size())),
         "ratio"},
        {"core.tiling_us", median(p.tiling_us), "us"},
        {"core.batching_us", median(p.batching_us), "us"},
        {"core.tiling.candidates", per_miss("tiling.candidates"), "count"},
        {"core.plan.splitk_considered", per_miss("plan.splitk.considered"),
         "count"},
        {"core.plan.splitk_chosen", per_miss("plan.splitk.chosen"), "count"},
        {"core.plan_cache.hit_ratio",
         ratio(tracing.timed["cache.hit"],
               tracing.timed["cache.hit"] + tracing.timed["cache.miss"]),
         "ratio"},
        {"gpusim.time_plan_us", median(p.time_plan_us), "us"},
        {"gpusim.sim_kernels_per_miss", per_miss("sim.kernels"), "count"},
        {"kernels.execute_us", median(tracing.execute_us), "us"},
        {"kernels.audit_us", median(p.audit_us), "us"},
        {"kernels.pack_us", median(p.pack_us), "us"},
        {"kernels.pack_gbps", pack_gbps, "GB/s"},
        {"kernels.pack_pct_copy", 100 * ratio(pack_gbps, host.copy_gbps), "%"},
        {"kernels.pack_bytes", per_call("exec.pack.bytes"), "bytes"},
        {"kernels.block_span_us", L.span_us_per_call("exec.block"), "us"},
        {"kernels.pack_span_us", L.span_us_per_call("exec.pack"), "us"},
        {"kernels.splitk_reduce_span_us",
         L.span_us_per_call("exec.splitk.reduce"), "us"},
        {"kernels.tile_gflops", tile_gflops, "GFLOP/s"},
        {"kernels.tile_pct_ceiling",
         100 * ratio(tile_gflops, host.muladd_gflops), "%"},
        {"kernels.blocks", per_call("exec.blocks"), "count"},
        {"kernels.tiles", per_call("exec.tiles"), "count"},
        {"kernels.splitk_tiles", per_call("exec.splitk.tiles"), "count"},
        {"kernels.generic_share",
         ratio(tracing.timed["exec.dispatch.generic"],
               tracing.timed["exec.dispatch.generic"] +
                   tracing.timed["exec.dispatch.specialized"]),
         "ratio"},
        {"kernels.c_passes", per_call("exec.c.passes"), "count"},
        {"telemetry.spans_dropped", tracing.all["tel.spans.dropped"], "count"},
        {"telemetry.trace_overhead_pct",
         100 * (ratio(median(tracing.call_us), u.p50_ms * 1e3) - 1), "%"},
        {"ledger.span_violations", static_cast<double>(violations), "count"},
        {"util.parallel.threads", static_cast<double>(threads), "count"},
        {"util.parallel.cpu_per_wall", u.cpu_per_wall, "ratio"},
        {"util.parallel.speedup_vs_1t", speedup, "x"},
        {"util.parallel.stall_calls", static_cast<double>(u.stall_calls),
         "count"},
        {"util.parallel.call_p99_ms", u.p99_ms, "ms"},
        {"host.steal_ticks", static_cast<double>(steal), "ticks"},
        {"host.muladd_gflops", host.muladd_gflops, "GFLOP/s"},
        {"host.fma_gflops", host.fma_gflops, "GFLOP/s"},
        {"host.copy_gbps", host.copy_gbps, "GB/s"},
    };
    double planner = 0, execute = 0;
    for (const std::string& layer : Ledger::layers()) {
      const double pct = L.layer_pct(layer);
      metrics.push_back({"ledger." + layer + ".pct", pct, "%"});
      if (layer == "lookup" || layer.rfind("plan.", 0) == 0) planner += pct;
      if (layer.rfind("exec.", 0) == 0) execute += pct;
    }
    metrics.push_back({"ledger.planner_pct", planner, "%"});
    metrics.push_back({"ledger.execute_pct", execute, "%"});
    std::printf("host probe: isa %s, copy working set %zu bytes\n",
                host.isa.c_str(), host.copy_bytes);
    std::printf(
        "traced calls %zu (%ld misses incl. warm-up), untraced %zu (%ld "
        "beyond their p99)\n",
        traced.size(), tracing.misses, plain.size(), u.beyond_p99);
    for (const Metric& m : metrics) print_metric(m);
  }
  const bool correct =
      client.failed == 0 && violations == 0 && client.attempted > 0;
  if (!client.first_error.empty())
    std::fprintf(stderr, "first failure: %s\n", client.first_error.c_str());
  print_result(correct, client.attempted, client.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "ctb_callbench: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ctb_callbench: %s\n", e.what());
    return 1;
  }
}
