// CUDA-style occupancy calculator: how many copies of a block fit on one SM
// given its thread, register, and shared-memory footprint.
#pragma once

#include "gpusim/arch.hpp"

namespace ctb {

struct BlockResources {
  int threads = 256;
  int regs_per_thread = 32;
  int smem_bytes = 0;

  bool operator==(const BlockResources&) const = default;
};

struct OccupancyResult {
  int blocks_per_sm = 0;    ///< resident CTA limit on one SM.
  int limit_threads = 0;    ///< limit imposed by the thread budget.
  int limit_regs = 0;       ///< limit imposed by the register file.
  int limit_smem = 0;       ///< limit imposed by shared memory.
  int limit_blocks = 0;     ///< hardware CTA-slot limit.
  const char* limiter = ""; ///< which resource binds.

  /// Occupancy as resident threads / max threads per SM, in [0, 1].
  double thread_occupancy(const GpuArch& arch, int threads) const {
    return static_cast<double>(blocks_per_sm) * threads /
           arch.max_threads_per_sm;
  }
};

/// Computes the resident-block limit. Returns blocks_per_sm == 0 when the
/// block cannot launch at all (e.g. needs more shared memory than one SM
/// has); callers treat that as a launch failure.
OccupancyResult occupancy(const GpuArch& arch, const BlockResources& block);

}  // namespace ctb
