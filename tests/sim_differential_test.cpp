// Differential test: the SM engine, work_from_plan and the planner against
// test-only copies of their earlier implementations.
//
// namespace ctb::oracle below holds a verbatim copy of the linear-scan
// simulator (every admission scans all SMs for the least-loaded one that
// fits, every event recounts busy SMs, occupancy() runs per admission), of
// work_from_plan with a fresh tile vector per block, and of the planner
// that re-simulates the auto-offline winner inside the split-K sweep. The
// engine in src/ must reproduce the oracle bit for bit: every SimStats
// field and every trace span compare with ==, not a tolerance, and plans
// must serialize to identical ctb-batchplan-v3 bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <queue>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/baselines.hpp"
#include "core/api.hpp"
#include "core/plan_io.hpp"
#include "core/rf_policy.hpp"
#include "dnn/googlenet.hpp"
#include "dnn/squeezenet.hpp"
#include "gpusim/occupancy.hpp"
#include "gpusim/sm_engine.hpp"
#include "kernels/thread_map.hpp"
#include "kernels/work_builder.hpp"
#include "telemetry/telemetry.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace ctb {
namespace oracle {

// Declarations carry the header's defaults; calls inside the copy are
// qualified so argument-dependent lookup never reaches ctb::simulate.
SimStats simulate(const GpuArch& arch, std::span<const LaunchedKernel> kernels,
                  ExecutionTrace* trace = nullptr);
SimStats simulate_kernel(const GpuArch& arch, const KernelWork& work,
                         ExecutionTrace* trace = nullptr);

namespace {

struct SmState {
  int threads = 0;
  int regs = 0;
  int smem = 0;
  int blocks = 0;
  int active_warps = 0;

  bool fits(const GpuArch& arch, const BlockWork& b) const {
    return threads + b.threads <= arch.max_threads_per_sm &&
           regs + b.regs_per_thread * b.threads <= arch.registers_per_sm &&
           smem + b.smem_bytes <= arch.shared_mem_per_sm &&
           blocks + 1 <= arch.max_blocks_per_sm;
  }
  void add(const GpuArch& arch, const BlockWork& b) {
    threads += b.threads;
    regs += b.regs_per_thread * b.threads;
    smem += b.smem_bytes;
    blocks += 1;
    active_warps += (b.active_threads + arch.warp_size - 1) / arch.warp_size;
  }
  void remove(const GpuArch& arch, const BlockWork& b) {
    threads -= b.threads;
    regs -= b.regs_per_thread * b.threads;
    smem -= b.smem_bytes;
    blocks -= 1;
    active_warps -= (b.active_threads + arch.warp_size - 1) / arch.warp_size;
  }
};

struct KernelState {
  const KernelWork* work = nullptr;
  int stream = 0;
  double submit_us = 0.0;
  bool ready = false;   // stream predecessor finished and submit time reached
  int next_block = 0;   // next block to dispatch (in-order within a kernel)
  int unfinished = 0;   // blocks admitted or pending
};

// Event kinds, ordered so that at equal times releases happen before
// readiness changes and admissions.
enum class EventKind { kBlockFinish = 0, kKernelReady = 1, kLauncherFree = 2 };

struct Event {
  double time_us;
  EventKind kind;
  int kernel;
  int block;  // block index for finish events
  int sm;

  bool operator>(const Event& other) const {
    return std::tie(time_us, kind, kernel, block) >
           std::tie(other.time_us, other.kind, other.kernel, other.block);
  }
};

}  // namespace

SimStats simulate(const GpuArch& arch,
                  std::span<const LaunchedKernel> kernels,
                  ExecutionTrace* trace) {
  CTB_TEL_SPAN("sim.simulate");
  CTB_TEL_COUNT("sim.kernels", kernels.size());
  SimStats stats;
  std::vector<KernelState> ks(kernels.size());
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;

  std::int64_t pending_total = 0;  // dispatchable blocks of ready kernels
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    CTB_CHECK(kernels[i].work != nullptr);
    ks[i].work = kernels[i].work;
    ks[i].submit_us = kernels[i].arrival_us;
    ks[i].unfinished = static_cast<int>(kernels[i].work->blocks.size());
    stats.block_count += ks[i].unfinished;
    for (const auto& b : kernels[i].work->blocks) {
      if (b.tiles.empty()) ++stats.bubble_blocks;
      // Validate launchability once up front.
      const OccupancyResult occ = occupancy(
          arch, BlockResources{b.threads, b.regs_per_thread, b.smem_bytes});
      CTB_CHECK_MSG(occ.blocks_per_sm > 0,
                    "block (threads=" << b.threads << ", regs="
                                      << b.regs_per_thread << ", smem="
                                      << b.smem_bytes
                                      << ") cannot launch on " << arch.name);
    }
    stats.total_flops += kernels[i].work->total_flops();
    stats.total_bytes += kernels[i].work->total_bytes();
    events.push(Event{ks[i].submit_us, EventKind::kKernelReady,
                      static_cast<int>(i), -1, -1});
  }

  std::vector<SmState> sms(static_cast<std::size_t>(arch.sm_count));
  int resident_total = 0;
  double now = 0.0;
  double resident_integral = 0.0;  // Σ resident_blocks * dt
  double busy_integral = 0.0;      // Σ busy_sms * dt
  double hide_sum = 0.0;
  std::int64_t nonbubble_blocks = 0;

  // GigaThread CTA-dispatch throttle: block starts are spaced at least
  // 1 / cta_launch_per_us apart, device-wide.
  const double launch_interval =
      arch.cta_launch_per_us > 0 ? 1.0 / arch.cta_launch_per_us : 0.0;
  double launcher_free = 0.0;
  bool launcher_event_pending = false;

  // Admits as many pending blocks as fit, in kernel/block order. Returns
  // when no ready kernel's head block fits anywhere, or when the launcher
  // is saturated (in which case a wake-up event is scheduled).
  auto admit = [&](double t) {
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t i = 0; i < ks.size(); ++i) {
        KernelState& k = ks[i];
        if (!k.ready ||
            k.next_block >= static_cast<int>(k.work->blocks.size()))
          continue;
        if (t + 1e-12 < launcher_free) {
          // Launcher saturated: resume admission when it frees up.
          if (!launcher_event_pending) {
            launcher_event_pending = true;
            events.push(Event{launcher_free, EventKind::kLauncherFree,
                              -1, -1, -1});
          }
          return;
        }
        const BlockWork& b =
            k.work->blocks[static_cast<std::size_t>(k.next_block)];
        // Least-loaded SM with room; ties break to the lowest index.
        int best = -1;
        for (int s = 0; s < arch.sm_count; ++s) {
          if (!sms[static_cast<std::size_t>(s)].fits(arch, b)) continue;
          if (best < 0 || sms[static_cast<std::size_t>(s)].blocks <
                              sms[static_cast<std::size_t>(best)].blocks)
            best = s;
        }
        if (best < 0) continue;
        SmState& sm = sms[static_cast<std::size_t>(best)];
        sm.add(arch, b);
        ++resident_total;
        --pending_total;
        ++k.next_block;
        launcher_free = std::max(launcher_free, t) + launch_interval;

        // Effective steady-state residency: this SM will keep receiving
        // blocks from the backlog, so the block should be priced against
        // the contention it will actually experience.
        const OccupancyResult occ = occupancy(
            arch, BlockResources{b.threads, b.regs_per_thread, b.smem_bytes});
        const std::int64_t backlog_share =
            pending_total / std::max(1, arch.sm_count);
        const int eff_on_sm = static_cast<int>(std::clamp<std::int64_t>(
            sm.blocks + backlog_share, sm.blocks, occ.blocks_per_sm));
        const std::int64_t eff_total_cap =
            static_cast<std::int64_t>(eff_on_sm) * arch.sm_count;
        const int eff_total = static_cast<int>(std::min<std::int64_t>(
            eff_total_cap, resident_total + pending_total));
        const int block_warps =
            (b.active_threads + arch.warp_size - 1) / arch.warp_size;
        const int eff_warps =
            sm.active_warps + (eff_on_sm - sm.blocks) * block_warps;

        BlockContext ctx;
        ctx.resident_on_sm = eff_on_sm;
        ctx.resident_total = std::max(eff_total, eff_on_sm);
        ctx.active_warps_on_sm = std::max(eff_warps, block_warps);
        const BlockCost cost = block_cost(arch, b, ctx);
        if (!b.tiles.empty()) {
          hide_sum += cost.hide_factor;
          ++nonbubble_blocks;
        }
        const double finish = t + arch.cycles_to_us(cost.total_cycles);
        if (trace != nullptr) {
          trace->spans.push_back(BlockSpan{best, static_cast<int>(i),
                                           k.next_block - 1, t, finish,
                                           b.tiles.empty()});
        }
        events.push(Event{finish, EventKind::kBlockFinish,
                          static_cast<int>(i), k.next_block - 1, best});
        progress = true;
      }
    }
  };

  // Stream bookkeeping: a kernel becomes ready when its submit time passes
  // AND the previous kernel on its stream has fully finished. Kernels are
  // submitted in index order per stream; we find the predecessor lazily.
  // Stream -1 kernels are independent of everything.
  for (std::size_t i = 0; i < kernels.size(); ++i)
    ks[i].stream = kernels[i].stream;
  auto stream_predecessor_done = [&](std::size_t i) {
    if (ks[i].stream < 0) return true;
    for (std::size_t j = i; j-- > 0;) {
      if (ks[j].stream == ks[i].stream) return ks[j].unfinished == 0;
    }
    return true;
  };

  while (!events.empty()) {
    const Event ev = events.top();
    events.pop();
    // Integrate statistics over [now, ev.time].
    const double dt = ev.time_us - now;
    if (dt > 0) {
      resident_integral += resident_total * dt;
      int busy = 0;
      for (const auto& sm : sms) busy += sm.blocks > 0 ? 1 : 0;
      busy_integral += busy * dt;
      now = ev.time_us;
    }
    if (ev.kind == EventKind::kLauncherFree) {
      launcher_event_pending = false;
    } else if (ev.kind == EventKind::kKernelReady) {
      KernelState& k = ks[static_cast<std::size_t>(ev.kernel)];
      if (!k.ready && stream_predecessor_done(static_cast<std::size_t>(
                          ev.kernel))) {
        k.ready = true;
        pending_total += static_cast<int>(k.work->blocks.size()) -
                         k.next_block;
      }
    } else {
      KernelState& k = ks[static_cast<std::size_t>(ev.kernel)];
      const BlockWork& b =
          k.work->blocks[static_cast<std::size_t>(ev.block)];
      sms[static_cast<std::size_t>(ev.sm)].remove(arch, b);
      --resident_total;
      --k.unfinished;
      if (k.unfinished == 0 && k.stream >= 0) {
        // Wake stream successors that were only waiting on us.
        for (std::size_t j = static_cast<std::size_t>(ev.kernel) + 1;
             j < ks.size(); ++j) {
          if (ks[j].stream != k.stream || ks[j].ready) continue;
          if (now >= ks[j].submit_us)
            events.push(Event{now, EventKind::kKernelReady,
                              static_cast<int>(j), -1, -1});
          break;  // only the immediate successor can become ready
        }
      }
    }
    admit(now);
  }

  stats.makespan_us = now;
  if (now > 0) {
    stats.avg_resident_blocks = resident_integral / now;
    stats.sm_busy_fraction = busy_integral / (now * arch.sm_count);
    stats.achieved_gflops = static_cast<double>(stats.total_flops) /
                            (now * 1e3);  // flops / us = kflops -> GFLOP/s
  }
  if (nonbubble_blocks > 0)
    stats.mean_hide_factor = hide_sum / static_cast<double>(nonbubble_blocks);
  CTB_TEL_COUNT("sim.blocks", stats.block_count);
  CTB_TEL_COUNT("sim.bubble_blocks", stats.bubble_blocks);
  CTB_TEL_HIST("sim.busy_pct", 100.0 * stats.sm_busy_fraction + 0.5);
  CTB_TEL_HIST("sim.resident_blocks", stats.avg_resident_blocks + 0.5);
  CTB_TEL_HIST("sim.hide_pct", 100.0 * stats.mean_hide_factor + 0.5);
  return stats;
}

SimStats simulate_kernel(const GpuArch& arch, const KernelWork& work,
                         ExecutionTrace* trace) {
  const LaunchedKernel launch{&work, 0.0};
  return oracle::simulate(arch, std::span<const LaunchedKernel>(&launch, 1),
                          trace);
}

SimStats simulate_serial(const GpuArch& arch,
                         std::span<const KernelWork> kernels) {
  SimStats total;
  for (const auto& k : kernels) {
    const SimStats s = oracle::simulate_kernel(arch, k);
    total.makespan_us += s.makespan_us + arch.kernel_launch_us;
    total.total_flops += s.total_flops;
    total.total_bytes += s.total_bytes;
    total.block_count += s.block_count;
    total.bubble_blocks += s.bubble_blocks;
    // Time-weighted roll-up of utilization metrics.
    total.avg_resident_blocks += s.avg_resident_blocks * s.makespan_us;
    total.sm_busy_fraction += s.sm_busy_fraction * s.makespan_us;
    total.mean_hide_factor += s.mean_hide_factor * s.makespan_us;
  }
  if (total.makespan_us > 0) {
    total.avg_resident_blocks /= total.makespan_us;
    total.sm_busy_fraction /= total.makespan_us;
    total.mean_hide_factor /= total.makespan_us;
    total.achieved_gflops =
        static_cast<double>(total.total_flops) / (total.makespan_us * 1e3);
  }
  return total;
}

SimStats simulate_concurrent(const GpuArch& arch,
                             std::span<const KernelWork> kernels,
                             int num_streams) {
  CTB_CHECK(num_streams >= 1);
  std::vector<LaunchedKernel> launches;
  launches.reserve(kernels.size());
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    launches.push_back(LaunchedKernel{
        &kernels[i],
        arch.kernel_launch_us +
            static_cast<double>(i) * arch.stream_dispatch_us,
        static_cast<int>(i) % num_streams});
  }
  return oracle::simulate(arch, launches);
}

namespace {

BlockWork block_for_tiles(std::span<const Tile> tiles,
                          std::span<const GemmDims> batch, int block_threads,
                          int smem_bytes, int regs_per_thread,
                          Precision precision = Precision::kFp32) {
  BlockWork b;
  b.threads = block_threads;
  b.smem_bytes = smem_bytes;
  b.regs_per_thread = regs_per_thread;
  b.fp16 = precision == Precision::kFp16;
  int active = tiles.empty() ? block_threads : 0;
  for (const Tile& t : tiles) {
    const GemmDims& d = batch[static_cast<std::size_t>(t.gemm)];
    const TilingStrategy& s = *t.strategy;
    const int k_end = t.k_end != 0 ? t.k_end : d.k;
    b.tiles.push_back(
        make_tile_work(s, d, t.ty, t.tx, precision, t.k_begin, k_end));
    const int mc = std::min(s.by, d.m - t.ty * s.by);
    const int nc = std::min(s.bx, d.n - t.tx * s.bx);
    active = std::max(active, active_threads_for_tile(s, mc, nc));
  }
  b.active_threads = std::min(active, block_threads);
  return b;
}

}  // namespace

KernelWork work_from_plan(const BatchPlan& plan,
                          std::span<const GemmDims> batch,
                          Precision precision) {
  KernelWork kernel;
  kernel.blocks.reserve(static_cast<std::size_t>(plan.num_blocks()));
  for (int b = 0; b < plan.num_blocks(); ++b) {
    const auto [begin, end] = plan.block_tiles(b);
    std::vector<Tile> tiles;
    tiles.reserve(static_cast<std::size_t>(end - begin));
    for (int t = begin; t < end; ++t) {
      const int g = plan.gemm_of_tile[static_cast<std::size_t>(t)];
      const TilingStrategy& s = batched_strategy_by_id(
          plan.strategy_of_tile[static_cast<std::size_t>(t)]);
      const auto [kb, ke] =
          plan.tile_k_range(t, batch[static_cast<std::size_t>(g)].k);
      tiles.push_back(Tile{g, plan.y_coord[static_cast<std::size_t>(t)],
                           plan.x_coord[static_cast<std::size_t>(t)],
                           ke - kb, kb, ke, &s});
    }
    kernel.blocks.push_back(block_for_tiles(tiles, batch, plan.block_threads,
                                            plan.smem_bytes,
                                            plan.regs_per_thread, precision));
  }
  return kernel;
}

}  // namespace oracle

namespace {

// The planner before the auto-offline reuse: both heuristics are always
// simulated, and the split-K sweep re-simulates the chosen plan. Timing
// goes through the oracle engine and work builder.
BatchPlan plan_without_reuse(const PlannerConfig& requested,
                             std::span<const GemmDims> dims) {
  PlannerConfig config = requested;
  const GpuArch& arch = gpu_arch(config.gpu);
  if (config.tlp_threshold <= 0)
    config.tlp_threshold = default_tlp_threshold(arch);
  if (config.theta <= 0) config.theta = default_theta(arch);
  auto time_of = [&](const BatchPlan& plan, Precision precision) {
    return oracle::simulate_kernel(
               arch, oracle::work_from_plan(plan, dims, precision))
               .makespan_us +
           arch.kernel_launch_us;
  };

  TilingConfig tiling_config;
  tiling_config.tlp_threshold = config.tlp_threshold;
  const TilingResult tiling = select_tiling(dims, tiling_config);
  const std::vector<Tile> tiles = enumerate_tiles(dims, tiling.per_gemm);
  const int threads = static_cast<int>(tiling.variant);
  BatchingConfig batching_config;
  batching_config.theta = config.theta;
  batching_config.tlp_threshold = config.tlp_threshold;

  BatchingHeuristic heuristic = BatchingHeuristic::kNone;
  BatchPlan plan;
  switch (config.policy) {
    case BatchingPolicy::kTilingOnly:
      heuristic = BatchingHeuristic::kNone;
      break;
    case BatchingPolicy::kThresholdOnly:
      heuristic = BatchingHeuristic::kThreshold;
      break;
    case BatchingPolicy::kBinaryOnly:
      heuristic = BatchingHeuristic::kBinary;
      break;
    case BatchingPolicy::kRandomForest:
      heuristic = rf_choose(*config.forest, dims);
      break;
    case BatchingPolicy::kAutoOffline: {
      const BatchPlan thr = batch_threshold(tiles, threads, batching_config);
      const BatchPlan bin = batch_binary(tiles, threads, batching_config);
      const double t_thr = time_of(thr, Precision::kFp32);
      const double t_bin = time_of(bin, Precision::kFp32);
      heuristic = t_thr <= t_bin ? BatchingHeuristic::kThreshold
                                 : BatchingHeuristic::kBinary;
      plan = t_thr <= t_bin ? thr : bin;
      break;
    }
  }
  if (config.policy != BatchingPolicy::kAutoOffline)
    plan = batch_tiles(heuristic, tiles, threads, batching_config);

  // consider_splitk, timing the unsplit plan afresh.
  if (config.splitk == SplitKMode::kOff || config.max_splitk < 2) return plan;
  const long long launched =
      static_cast<long long>(plan.num_blocks()) * plan.block_threads;
  if (config.splitk == SplitKMode::kAuto &&
      launched >= config.tlp_threshold / 2)
    return plan;
  const double unsplit_us = time_of(plan, config.precision);
  BatchPlan best_split;
  double best_split_us = 0.0;
  std::size_t last_size = tiles.size();
  for (int slices = 2; slices <= config.max_splitk; slices *= 2) {
    const std::vector<Tile> split = split_tiles_k(tiles, slices);
    if (split.size() == last_size) break;
    last_size = split.size();
    BatchPlan candidate =
        batch_tiles(heuristic, split, threads, batching_config);
    const double t = time_of(candidate, config.precision);
    if (best_split.num_tiles() == 0 || t < best_split_us) {
      best_split = std::move(candidate);
      best_split_us = t;
    }
  }
  if (best_split.num_tiles() == 0) return plan;
  if (config.splitk != SplitKMode::kForce && best_split_us >= unsplit_us)
    return plan;
  return best_split;
}

std::string plan_bytes(const BatchPlan& plan) {
  std::ostringstream os;
  save_plan(os, plan);
  return os.str();
}

// Exact: doubles compare with ==, so a last-ulp drift fails.
void expect_same_stats(const SimStats& want, const SimStats& got,
                       const std::string& what) {
  EXPECT_EQ(want.makespan_us, got.makespan_us) << what;
  EXPECT_EQ(want.total_flops, got.total_flops) << what;
  EXPECT_EQ(want.total_bytes, got.total_bytes) << what;
  EXPECT_EQ(want.block_count, got.block_count) << what;
  EXPECT_EQ(want.bubble_blocks, got.bubble_blocks) << what;
  EXPECT_EQ(want.achieved_gflops, got.achieved_gflops) << what;
  EXPECT_EQ(want.avg_resident_blocks, got.avg_resident_blocks) << what;
  EXPECT_EQ(want.sm_busy_fraction, got.sm_busy_fraction) << what;
  EXPECT_EQ(want.mean_hide_factor, got.mean_hide_factor) << what;
}

void expect_same_trace(const ExecutionTrace& want, const ExecutionTrace& got,
                       const std::string& what) {
  ASSERT_EQ(want.spans.size(), got.spans.size()) << what;
  for (std::size_t i = 0; i < want.spans.size(); ++i) {
    const BlockSpan& w = want.spans[i];
    const BlockSpan& g = got.spans[i];
    ASSERT_TRUE(w.sm == g.sm && w.kernel == g.kernel && w.block == g.block &&
                w.start_us == g.start_us && w.end_us == g.end_us &&
                w.bubble == g.bubble)
        << what << ": span " << i << " was sm " << w.sm << " ["
        << w.start_us << ", " << w.end_us << "), now sm " << g.sm << " ["
        << g.start_us << ", " << g.end_us << ")";
  }
}

// One traced launch set through both engines.
void expect_same_launch(const GpuArch& arch,
                        std::span<const LaunchedKernel> launches,
                        const std::string& what) {
  ExecutionTrace want_trace, got_trace;
  const SimStats want = oracle::simulate(arch, launches, &want_trace);
  const SimStats got = simulate(arch, launches, &got_trace);
  expect_same_stats(want, got, what);
  expect_same_trace(want_trace, got_trace, what);
}

// Descriptors from the work builder match the oracle builder's, then the
// kernel simulates identically.
void expect_same_plan_timing(const GpuArch& arch, const BatchPlan& plan,
                             std::span<const GemmDims> dims,
                             Precision precision, const std::string& what) {
  const KernelWork work = work_from_plan(plan, dims, precision);
  ASSERT_TRUE(work == oracle::work_from_plan(plan, dims, precision)) << what;
  const LaunchedKernel launch{&work, 0.0};
  expect_same_launch(arch, std::span<const LaunchedKernel>(&launch, 1), what);
}

// The source batches of the fault-injection fixtures (plan_fuzz input).
std::vector<std::vector<GemmDims>> fuzz_source_batches() {
  return {{{16, 32, 48}, {64, 64, 64}, {40, 24, 96}, {100, 50, 60}},
          std::vector<GemmDims>(6, GemmDims{64, 64, 32}),
          {{96, 80, 64}},
          std::vector<GemmDims>(24, GemmDims{64, 64, 32}),
          {{64, 64, 96}, {40, 24, 100}},
          std::vector<GemmDims>(4, GemmDims{32, 32, 64}),
          {{16, 32, 128}, {64, 64, 64}, {256, 256, 64}, {100, 50, 300}}};
}

// serve_churn-shaped requests: 1-6 GEMMs, every dimension log-uniform in
// [8, 256].
std::vector<std::vector<GemmDims>> churn_batches(int count,
                                                 std::uint64_t seed) {
  Rng rng(seed);
  auto dim = [&] {
    const double l =
        std::log(8.0) + rng.uniform() * (std::log(256.0) - std::log(8.0));
    return static_cast<int>(std::lround(std::exp(l)));
  };
  std::vector<std::vector<GemmDims>> out;
  for (int i = 0; i < count; ++i) {
    std::vector<GemmDims> dims(
        static_cast<std::size_t>(rng.uniform_int(1, 6)));
    for (GemmDims& d : dims) d = GemmDims{dim(), dim(), dim()};
    out.push_back(std::move(dims));
  }
  return out;
}

std::vector<std::vector<GemmDims>> dnn_batches() {
  std::vector<std::vector<GemmDims>> out;
  for (const InceptionModule& m : googlenet_inception_modules()) {
    out.push_back(m.stage_gemms(1));
    out.push_back(m.stage_gemms(2));
  }
  for (const FireModule& f : squeezenet_fire_modules())
    out.push_back(f.expand_gemms());
  return out;
}

const RandomForest& small_forest() {
  static const RandomForest forest = [] {
    RfTrainingConfig config;
    config.num_cases = 40;
    config.forest.num_trees = 8;
    config.ranges.max_batch = 8;
    config.ranges.max_mn = 256;
    config.ranges.max_k = 512;
    return train_batching_forest(config);
  }();
  return forest;
}

const BatchingPolicy kPolicies[] = {
    BatchingPolicy::kThresholdOnly, BatchingPolicy::kBinaryOnly,
    BatchingPolicy::kAutoOffline, BatchingPolicy::kRandomForest,
    BatchingPolicy::kTilingOnly};
const SplitKMode kSplitModes[] = {SplitKMode::kAuto, SplitKMode::kOff,
                                  SplitKMode::kForce};

PlannerConfig config_for(BatchingPolicy policy, SplitKMode splitk,
                         Precision precision, GpuModel gpu = GpuModel::kV100) {
  PlannerConfig config;
  config.gpu = gpu;
  config.policy = policy;
  config.splitk = splitk;
  config.precision = precision;
  if (policy == BatchingPolicy::kRandomForest) config.forest = &small_forest();
  return config;
}

TEST(SimDifferential, FuzzSourcePlansUnderEveryPolicyAndSplitMode) {
  const auto batches = fuzz_source_batches();
  for (const BatchingPolicy policy : kPolicies) {
    for (const SplitKMode splitk : kSplitModes) {
      for (const Precision precision : {Precision::kFp32, Precision::kFp16}) {
        const BatchedGemmPlanner planner(
            config_for(policy, splitk, precision));
        for (std::size_t i = 0; i < batches.size(); ++i) {
          const BatchPlan plan = planner.plan(batches[i]).plan;
          expect_same_plan_timing(
              planner.arch(), plan, batches[i], precision,
              std::string(to_string(policy)) + "/" + to_string(splitk) +
                  " batch " + std::to_string(i));
        }
      }
    }
  }
}

TEST(SimDifferential, ServeChurnStream) {
  const BatchedGemmPlanner planner{PlannerConfig{}};
  const auto batches = churn_batches(150, 1);
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const BatchPlan plan = planner.plan(batches[i]).plan;
    expect_same_plan_timing(planner.arch(), plan, batches[i],
                            Precision::kFp32,
                            "request " + std::to_string(i));
  }
}

TEST(SimDifferential, DnnBatches) {
  for (const BatchingPolicy policy :
       {BatchingPolicy::kAutoOffline, BatchingPolicy::kTilingOnly}) {
    const BatchedGemmPlanner planner(
        config_for(policy, SplitKMode::kAuto, Precision::kFp32));
    const auto batches = dnn_batches();
    for (std::size_t i = 0; i < batches.size(); ++i) {
      const BatchPlan plan = planner.plan(batches[i]).plan;
      expect_same_plan_timing(planner.arch(), plan, batches[i],
                              Precision::kFp32,
                              std::string(to_string(policy)) + " DNN batch " +
                                  std::to_string(i));
    }
  }
}

TEST(SimDifferential, EveryGpuModel) {
  auto batches = churn_batches(12, 7);
  batches.push_back(dnn_batches().front());
  for (const GpuModel gpu : all_gpu_models()) {
    const BatchedGemmPlanner planner(config_for(
        BatchingPolicy::kAutoOffline, SplitKMode::kAuto, Precision::kFp32,
        gpu));
    for (std::size_t i = 0; i < batches.size(); ++i) {
      for (const Precision precision : {Precision::kFp32, Precision::kFp16}) {
        const BatchPlan plan = planner.plan(batches[i]).plan;
        expect_same_plan_timing(planner.arch(), plan, batches[i], precision,
                                planner.arch().name + " batch " +
                                    std::to_string(i));
      }
      // MAGMA's vbatch grid: bubble blocks and a backlog on small GPUs.
      const KernelWork vbatch =
          work_vbatch(batches[i], magma_uniform_strategy(batches[i]));
      const LaunchedKernel launch{&vbatch, 0.0};
      expect_same_launch(planner.arch(),
                         std::span<const LaunchedKernel>(&launch, 1),
                         planner.arch().name + " vbatch " +
                             std::to_string(i));
    }
  }
}

TEST(SimDifferential, MixedShapesSerialAndConcurrent) {
  // Bubble-carrying vbatch grids, persistent plan kernels and one-tile-per-
  // block single-GEMM kernels with different footprints share the device.
  const auto batches = churn_batches(6, 11);
  const BatchedGemmPlanner planner{PlannerConfig{}};
  std::vector<KernelWork> kernels;
  for (const auto& dims : batches) {
    kernels.push_back(work_vbatch(dims, magma_uniform_strategy(dims)));
    kernels.push_back(work_from_plan(planner.plan(dims).plan, dims));
    kernels.push_back(
        work_single_gemm(dims.front(), magma_uniform_strategy(dims)));
  }
  for (const GpuModel gpu : all_gpu_models()) {
    const GpuArch& arch = gpu_arch(gpu);
    expect_same_stats(oracle::simulate_serial(arch, kernels),
                      simulate_serial(arch, kernels), arch.name + " serial");
    for (const int streams : {1, 2, 8}) {
      const std::string what =
          arch.name + " " + std::to_string(streams) + " streams";
      expect_same_stats(oracle::simulate_concurrent(arch, kernels, streams),
                        simulate_concurrent(arch, kernels, streams), what);
      // The same launches, traced: which SM ran which block, and when.
      std::vector<LaunchedKernel> launches;
      for (std::size_t i = 0; i < kernels.size(); ++i)
        launches.push_back(LaunchedKernel{
            &kernels[i],
            arch.kernel_launch_us +
                static_cast<double>(i) * arch.stream_dispatch_us,
            static_cast<int>(i) % streams});
      expect_same_launch(arch, launches, what + " traced");
    }
  }
}

TEST(SimDifferential, PlannerReuseKeepsPlanBytes) {
  auto batches = fuzz_source_batches();
  for (auto& b : churn_batches(30, 2)) batches.push_back(std::move(b));
  batches.push_back(dnn_batches()[4]);
  for (const BatchingPolicy policy : kPolicies) {
    for (const SplitKMode splitk : kSplitModes) {
      for (const Precision precision : {Precision::kFp32, Precision::kFp16}) {
        const PlannerConfig config = config_for(policy, splitk, precision);
        const BatchedGemmPlanner planner(config);
        for (std::size_t i = 0; i < batches.size(); ++i) {
          EXPECT_EQ(plan_bytes(plan_without_reuse(config, batches[i])),
                    plan_bytes(planner.plan(batches[i]).plan))
              << to_string(policy) << "/" << to_string(splitk)
              << (precision == Precision::kFp16 ? " fp16" : " fp32")
              << " batch " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ctb
