#include "gpusim/sm_engine.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <queue>
#include <tuple>

#include "gpusim/occupancy.hpp"
#include "telemetry/telemetry.hpp"
#include "util/assert.hpp"

namespace ctb {

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

// One index-ordered SM bitset per resident-block count. Scanning counts
// upward and, within a count, SM indices upward visits SMs in exactly the
// (fewest blocks, lowest index) order of a linear least-loaded scan, so the
// first SM that fits is the one that scan would pick. SMs at the block-slot
// limit never fit and are not scanned.
class SmBuckets {
 public:
  SmBuckets(int sm_count, int max_blocks)
      : words_((sm_count + 63) / 64),
        max_blocks_(max_blocks),
        bits_(static_cast<std::size_t>(max_blocks + 1) * words_, 0) {
    for (int s = 0; s < sm_count; ++s) set(0, s);
  }

  void move(int sm, int from, int to) {
    word(from, sm) &= ~bit(sm);
    set(to, sm);
  }

  /// First SM, in (count, index) order, for which fits(sm) holds; -1 if none.
  template <typename Fits>
  int first(Fits&& fits) const {
    for (int c = 0; c < max_blocks_; ++c) {
      for (std::size_t w = 0; w < words_; ++w) {
        for (std::uint64_t m = bits_[static_cast<std::size_t>(c) * words_ + w];
             m != 0; m &= m - 1) {
          const int sm = static_cast<int>(w * 64) + std::countr_zero(m);
          if (fits(sm)) return sm;
        }
      }
    }
    return -1;
  }

 private:
  static std::uint64_t bit(int sm) { return std::uint64_t{1} << (sm % 64); }
  std::uint64_t& word(int count, int sm) {
    return bits_[static_cast<std::size_t>(count) * words_ +
                 static_cast<std::size_t>(sm / 64)];
  }
  void set(int count, int sm) { word(count, sm) |= bit(sm); }

  std::size_t words_;
  int max_blocks_;
  std::vector<std::uint64_t> bits_;
};

// occupancy() once per distinct block footprint; a launch has one or two.
class OccupancyMemo {
 public:
  explicit OccupancyMemo(const GpuArch& arch) : arch_(arch) {}

  int blocks_per_sm(const BlockWork& b) {
    const BlockResources r{b.threads, b.regs_per_thread, b.smem_bytes};
    for (const auto& [seen, limit] : seen_)
      if (seen == r) return limit;
    seen_.emplace_back(r, occupancy(arch_, r).blocks_per_sm);
    return seen_.back().second;
  }

 private:
  const GpuArch& arch_;
  std::vector<std::pair<BlockResources, int>> seen_;
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

  OccupancyMemo occupancy_of(arch);
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
      CTB_CHECK_MSG(occupancy_of.blocks_per_sm(b) > 0,
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
  SmBuckets by_blocks(arch.sm_count, arch.max_blocks_per_sm);
  int busy_sms = 0;  // SMs with at least one resident block
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
        const int best = by_blocks.first([&](int s) {
          return sms[static_cast<std::size_t>(s)].fits(arch, b);
        });
        if (best < 0) continue;
        SmState& sm = sms[static_cast<std::size_t>(best)];
        if (sm.blocks == 0) ++busy_sms;
        by_blocks.move(best, sm.blocks, sm.blocks + 1);
        sm.add(arch, b);
        ++resident_total;
        --pending_total;
        ++k.next_block;
        launcher_free = std::max(launcher_free, t) + launch_interval;

        // Effective steady-state residency: this SM will keep receiving
        // blocks from the backlog, so the block should be priced against
        // the contention it will actually experience.
        const std::int64_t backlog_share =
            pending_total / std::max(1, arch.sm_count);
        const int eff_on_sm = static_cast<int>(std::clamp<std::int64_t>(
            sm.blocks + backlog_share, sm.blocks,
            occupancy_of.blocks_per_sm(b)));
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
      busy_integral += busy_sms * dt;
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
      SmState& sm = sms[static_cast<std::size_t>(ev.sm)];
      sm.remove(arch, b);
      by_blocks.move(ev.sm, sm.blocks + 1, sm.blocks);
      if (sm.blocks == 0) --busy_sms;
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
  return simulate(arch, std::span<const LaunchedKernel>(&launch, 1), trace);
}

SimStats simulate_serial(const GpuArch& arch,
                         std::span<const KernelWork> kernels) {
  SimStats total;
  for (const auto& k : kernels) {
    const SimStats s = simulate_kernel(arch, k);
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
  return simulate(arch, launches);
}

}  // namespace ctb
