// Work descriptors consumed by the timing model and SM engine.
//
// A kernel is a set of thread blocks; a block executes a chain of tiles (one
// tile for classic GEMM kernels, several under the paper's batching engine).
// Each tile contributes a K-loop of `iters` double-buffered iterations with a
// fixed per-iteration compute and memory cost. These descriptors are produced
// by src/kernels from the same tiling/batching decisions the functional
// executor runs, so timing and correctness always refer to the same plan.
#pragma once

#include <cstdint>
#include <vector>

namespace ctb {

/// One tile's worth of main-loop work inside a block.
struct TileWork {
  int iters = 0;                     ///< ceil(K / BK) main-loop iterations.
  int fmas_per_thread_iter = 0;      ///< FMAs per *active* thread per iter.
  std::int64_t bytes_per_iter = 0;   ///< global bytes the block loads per iter.
  /// Unique (DRAM) bytes per iteration: the A/B bands a tile shares with its
  /// row/column siblings are fetched from DRAM once and re-read from L2, so
  /// this is bytes_per_iter divided by the sharing degree. Defaults to
  /// bytes_per_iter when the builder has no sharing information.
  std::int64_t dram_bytes_per_iter = -1;
  std::int64_t epilogue_bytes = 0;   ///< C write-back (+ beta read) bytes.
  std::int64_t epilogue_flops = 0;   ///< alpha/beta scaling flops.
  std::int64_t flops = 0;            ///< useful FMA flops (2*m*n*k share).

  bool operator==(const TileWork&) const = default;
};

/// One thread block: resource footprint plus its chain of tiles. A block
/// with an empty tile chain is a "bubble" block (MAGMA vbatch padding) that
/// pays scheduling overhead and exits.
struct BlockWork {
  int threads = 256;         ///< launched block size.
  int active_threads = 256;  ///< threads doing useful work (<= threads).
  int regs_per_thread = 32;
  int smem_bytes = 0;
  /// Fig.-2-style kernels double-buffer shared memory and registers, so a
  /// block overlaps its own loads with its own compute. MAGMA's vbatch
  /// template kernels are phase-serialized (load, syncthreads, compute),
  /// so they can only hide memory behind *other* resident blocks.
  bool double_buffered = true;
  /// Relative main-loop instruction efficiency: hand-tuned kernels (Fig. 2)
  /// are 1.0; generic template kernels (MAGMA's gemm_template) spend extra
  /// issue slots on per-iteration indexing and reach ~80%.
  double code_efficiency = 1.0;
  /// FP16 (tensor-core) execution: compute rate scales by the arch's
  /// fp16_rate_multiplier; byte counts must already reflect 2-byte elements
  /// (the work builders handle this).
  bool fp16 = false;
  std::vector<TileWork> tiles;

  bool operator==(const BlockWork&) const = default;

  std::int64_t total_flops() const {
    std::int64_t f = 0;
    for (const auto& t : tiles) f += t.flops + t.epilogue_flops;
    return f;
  }
  std::int64_t total_bytes() const {
    std::int64_t b = 0;
    for (const auto& t : tiles)
      b += t.bytes_per_iter * t.iters + t.epilogue_bytes;
    return b;
  }
};

/// A kernel launch: homogeneous block resources (CUDA semantics) and the
/// per-block work list.
struct KernelWork {
  std::vector<BlockWork> blocks;

  bool operator==(const KernelWork&) const = default;

  std::int64_t total_flops() const {
    std::int64_t f = 0;
    for (const auto& b : blocks) f += b.total_flops();
    return f;
  }
  std::int64_t total_bytes() const {
    std::int64_t b = 0;
    for (const auto& blk : blocks) b += blk.total_bytes();
    return b;
  }
};

}  // namespace ctb
