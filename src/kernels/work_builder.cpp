#include "kernels/work_builder.hpp"

#include <algorithm>

#include "kernels/thread_map.hpp"
#include "util/assert.hpp"

namespace ctb {

TileWork make_tile_work(const TilingStrategy& s, const GemmDims& d, int ty,
                        int tx, Precision precision) {
  return make_tile_work(s, d, ty, tx, precision, 0, d.k);
}

TileWork make_tile_work(const TilingStrategy& s, const GemmDims& d, int ty,
                        int tx, Precision precision, int k_begin, int k_end) {
  CTB_CHECK(d.valid());
  CTB_CHECK_MSG(0 <= k_begin && k_begin < k_end && k_end <= d.k,
                "K range [" << k_begin << "," << k_end << ") outside [0,"
                            << d.k << ")");
  const int mc = std::min(s.by, d.m - ty * s.by);
  const int nc = std::min(s.bx, d.n - tx * s.bx);
  CTB_CHECK_MSG(mc > 0 && nc > 0, "tile outside GEMM");
  const int elem = precision == Precision::kFp16 ? 2 : 4;

  TileWork w;
  // Main-loop iterations cover only this tile's K slice (BK-aligned start,
  // ragged tail ceiling) — for a full tile this is ceil(K / BK) as before.
  w.iters = (k_end + s.bk - 1) / s.bk - k_begin / s.bk;
  w.fmas_per_thread_iter = s.fmas_per_thread_iter();
  // Guarded loads touch only the in-range rows/cols of the A and B tiles.
  w.bytes_per_iter = static_cast<std::int64_t>(mc * s.bk + s.bk * nc) * elem;
  // The A band is shared by the tx_count tiles of this row, the B band by
  // the ty_count tiles of this column: each is fetched from DRAM once and
  // re-read from L2 by the siblings.
  const int ty_count = (d.m + s.by - 1) / s.by;
  const int tx_count = (d.n + s.bx - 1) / s.bx;
  w.dram_bytes_per_iter = static_cast<std::int64_t>(
      (static_cast<double>(mc * s.bk) / tx_count +
       static_cast<double>(s.bk * nc) / ty_count) *
      elem);
  w.epilogue_bytes = static_cast<std::int64_t>(mc) * nc * elem;
  w.epilogue_flops = 2LL * mc * nc;  // alpha scale + beta accumulate
  w.flops = 2LL * mc * nc * (k_end - k_begin);
  return w;
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
  b.tiles.reserve(tiles.size());
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

KernelWork work_single_gemm(const GemmDims& d, const TilingStrategy& s) {
  KernelWork kernel;
  const int ty_count = (d.m + s.by - 1) / s.by;
  const int tx_count = (d.n + s.bx - 1) / s.bx;
  kernel.blocks.reserve(static_cast<std::size_t>(ty_count) * tx_count);
  for (int ty = 0; ty < ty_count; ++ty) {
    for (int tx = 0; tx < tx_count; ++tx) {
      const Tile tile{0, ty, tx, d.k, 0, 0, &s};
      kernel.blocks.push_back(block_for_tiles(
          std::span<const Tile>(&tile, 1), std::span<const GemmDims>(&d, 1),
          s.threads, s.smem_bytes(), s.regs_per_thread()));
    }
  }
  return kernel;
}

KernelWork work_vbatch(std::span<const GemmDims> batch,
                       const TilingStrategy& s, bool double_buffered,
                       double code_efficiency) {
  KernelWork kernel;
  int max_ty = 0, max_tx = 0;
  for (const auto& d : batch) {
    max_ty = std::max(max_ty, (d.m + s.by - 1) / s.by);
    max_tx = std::max(max_tx, (d.n + s.bx - 1) / s.bx);
  }
  kernel.blocks.reserve(static_cast<std::size_t>(max_ty) * max_tx *
                        batch.size());
  for (std::size_t z = 0; z < batch.size(); ++z) {
    const GemmDims& d = batch[z];
    const int ty_count = (d.m + s.by - 1) / s.by;
    const int tx_count = (d.n + s.bx - 1) / s.bx;
    for (int ty = 0; ty < max_ty; ++ty) {
      for (int tx = 0; tx < max_tx; ++tx) {
        if (ty >= ty_count || tx >= tx_count) {
          // Bubble block: full resource footprint, no tiles.
          BlockWork bubble;
          bubble.threads = s.threads;
          bubble.active_threads = 0;
          bubble.smem_bytes = s.smem_bytes();
          bubble.regs_per_thread = s.regs_per_thread();
          bubble.double_buffered = double_buffered;
          bubble.code_efficiency = code_efficiency;
          kernel.blocks.push_back(std::move(bubble));
          continue;
        }
        const Tile tile{static_cast<int>(z), ty, tx, d.k, 0, 0, &s};
        BlockWork blk = block_for_tiles(
            std::span<const Tile>(&tile, 1), batch, s.threads,
            s.smem_bytes(), s.regs_per_thread());
        blk.double_buffered = double_buffered;
        blk.code_efficiency = code_efficiency;
        kernel.blocks.push_back(std::move(blk));
      }
    }
  }
  return kernel;
}

KernelWork work_from_plan(const BatchPlan& plan,
                          std::span<const GemmDims> batch,
                          Precision precision) {
  KernelWork kernel;
  kernel.blocks.reserve(static_cast<std::size_t>(plan.num_blocks()));
  std::vector<Tile> tiles;  // scratch, reused across blocks
  for (int b = 0; b < plan.num_blocks(); ++b) {
    const auto [begin, end] = plan.block_tiles(b);
    tiles.clear();
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

}  // namespace ctb
