#include "kernels/functional.hpp"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "kernels/microkernel.hpp"
#include "kernels/pack_cache.hpp"
#include "kernels/packing.hpp"
#include "kernels/simd.hpp"
#include "kernels/thread_map.hpp"
#include "linalg/half.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace ctb {

namespace {

// Largest tile is 128x128 with BK=8: shared-memory emulation buffers.
constexpr int kMaxBy = 128;
constexpr int kMaxBx = 128;
constexpr int kMaxBk = 8;
// Widest per-thread sub-tile across Tables 1 and 2.
constexpr int kMaxSubX = 8;

/// Emulated shared memory for one block: the staged A tile (BY x BK) and
/// B tile (BK x BX). The per-element values come from staged_a_value /
/// staged_b_value (packing.hpp) — the same functions the packing pass
/// resolves once per panel — so the generic and packed paths consume
/// bit-identical operand values by construction.
struct SharedTiles {
  float a[kMaxBy * kMaxBk];
  float b[kMaxBk * kMaxBx];

  void stage(const TilingStrategy& s, const GemmOperands& g, int row0,
             int col0, int k0) {
    for (int i = 0; i < s.by; ++i)
      for (int p = 0; p < s.bk; ++p)
        a[i * s.bk + p] = staged_a_value(g, row0 + i, k0 + p);
    for (int p = 0; p < s.bk; ++p)
      for (int j = 0; j < s.bx; ++j)
        b[p * s.bx + j] = staged_b_value(g, k0 + p, col0 + j);
  }
};

/// Per-call packing decision for one GEMM: the dispatched kernel (with the
/// ISA that selected it) and the packed panels it reads — shared with the
/// cross-call cache, so panels a concurrent invalidate evicts stay alive
/// for the rest of this call. `kernel.fn == nullptr` means generic.
struct PackedDispatch {
  TileKernel kernel;
  std::shared_ptr<const PackedGemm> pack;
  bool need_pack = false;  ///< admitted but not in the cache: materialize
  bool specialized() const {
    return kernel.fn != nullptr && pack != nullptr && pack->valid();
  }
};

/// Serial half of the packing decision for one GEMM: kernel lookup, budget
/// admission, and cache probe. Admission requires the footprint to fit both
/// the per-GEMM cap (one oversized GEMM falls back to generic without
/// starving the rest of the batch) and the call's remaining cumulative
/// arena budget; `used` accumulates in batch order, keeping the decision
/// deterministic. A cache hit charges `used` exactly like a fresh pack, so
/// which GEMMs are admitted never depends on what the cache happens to
/// hold. The panel materialization itself (pack_gemm) is deferred so the
/// batched paths can run it for many GEMMs concurrently.
PackedDispatch pack_decision(const TilingStrategy& s, const GemmOperands& g,
                             std::size_t& used) {
  PackedDispatch d;
  d.kernel = tile_kernel_for(s);
  if (d.kernel.fn == nullptr) return d;
  const std::size_t bytes = pack_footprint_bytes(s, g.dims);
  const std::size_t budget = pack_arena_budget();
  if (bytes > pack_gemm_budget() || bytes > budget ||
      used > budget - bytes) {
    d.kernel = {};
    return d;
  }
  used += bytes;
  d.pack = pack_cache_lookup(s, g);
  d.need_pack = d.pack == nullptr;
  return d;
}

/// Deferred materialization for one admitted cache miss. Safe inside a
/// parallel_for worker: pack_gemm only reads `g` and fills the fresh
/// buffers. Publication to the cache stays with the caller (serial, batch
/// order) so eviction order is deterministic.
void materialize_pack(const TilingStrategy& s, const GemmOperands& g,
                      PackedDispatch& d) {
  if (d.need_pack) d.pack = std::make_shared<PackedGemm>(pack_gemm(s, g));
}

/// Serial tail of the decision: publishes a freshly packed miss to the
/// cross-call cache (no-op when the cache is off or `g` is uncacheable).
void publish_pack(const TilingStrategy& s, const GemmOperands& g,
                  PackedDispatch& d) {
  if (d.need_pack) pack_cache_insert(s, g, d.pack);
}

/// Per-ISA tile accounting: exec.simd.* partitions every executed tile by
/// the ISA that ran it (generic-executor tiles count as scalar), so the
/// four counters always sum to the call's total tiles.
void count_simd_tiles(SimdIsa isa, long long tiles) {
  switch (isa) {
    case SimdIsa::kAvx512:
      CTB_TEL_COUNT("exec.simd.avx512", tiles);
      return;
    case SimdIsa::kAvx2:
      CTB_TEL_COUNT("exec.simd.avx2", tiles);
      return;
    case SimdIsa::kNeon:
      CTB_TEL_COUNT("exec.simd.neon", tiles);
      return;
    case SimdIsa::kScalar:
      break;
  }
  CTB_TEL_COUNT("exec.simd.scalar", tiles);
}

/// Dispatch + staging-reuse accounting for `tiles` tiles of one GEMM that
/// resolved to `d`. Each tile reads one A and one B panel; panels were
/// packed (or fetched from the cache) once, so all but one read per panel
/// is a staging the generic path would have repeated.
void count_dispatch(const PackedDispatch& d, long long tiles) {
  if (d.specialized()) {
    CTB_TEL_COUNT("exec.dispatch.specialized", tiles);
    CTB_TEL_COUNT("exec.pack.reuse",
                  2 * tiles - d.pack->ty_count - d.pack->tx_count);
    count_simd_tiles(d.kernel.isa, tiles);
  } else {
    CTB_TEL_COUNT("exec.dispatch.generic", tiles);
    count_simd_tiles(SimdIsa::kScalar, tiles);
  }
}

/// Conventional useful-FLOP count of one pass over the batch (2*m*n*k per
/// GEMM; beta*C not charged) — feeds the "exec.flops" counter that perf
/// reports turn into GFLOP/s. Only evaluated when telemetry is enabled.
[[maybe_unused]] long long flops_of(std::span<const GemmOperands> batch) {
  long long total = 0;
  for (const auto& g : batch)
    total += 2LL * g.dims.m * g.dims.n * g.dims.k;
  return total;
}

// ----------------------------------------------------------- split-K ----
//
// A split tile executes only the K range [k_lo, k_hi) of its coordinate.
// Bit-exactness with the unsplit path demands that every C element still
// accumulate as ONE ascending (k0, p) chain, and float addition is not
// associative, so zero-based per-slice partials cannot be recombined.
// Instead the chain is *carried*: one task owns the whole coordinate. The
// single-GEMM and vbatch split paths walk its slices in ascending k order
// through one row-major BY x BX accumulator (the k_begin == 0 slice starts
// from zero; float store/reload between slices is bit-preserving), then
// apply the standard alpha/beta epilogue. run_batched_plan goes further and
// runs the coordinate as one full-K tile in the block holding its seed
// slice. Either way the reduction tree is the unique order-preserving
// (left-spine) tree; no atomics, one deterministic owner per C tile.

/// One K-slice of a tile's K loop, [k_lo, k_hi).
struct KSlice {
  int k_lo = 0;
  int k_hi = 0;
};

/// Even BK-aligned partition of [0, K) into up to `splitk` slices (the
/// in-executor analogue of split_tiles_k's per-tile split).
std::vector<KSlice> k_slices(int K, int bk, int splitk) {
  const int nsteps = (K + bk - 1) / bk;
  const int n = std::min(splitk, nsteps);
  if (n <= 1) return {{0, K}};
  std::vector<KSlice> out;
  out.reserve(static_cast<std::size_t>(n));
  const int q = nsteps / n;
  const int r = nsteps % n;
  int step = 0;
  for (int s = 0; s < n; ++s) {
    const int take = q + (s < r ? 1 : 0);
    out.push_back({step * bk, std::min((step + take) * bk, K)});
    step += take;
  }
  return out;
}

/// Generic staged accumulation of K range [k_lo, k_hi) of tile (ty, tx)
/// into a row-major BY x BX accumulator. Identical arithmetic to
/// execute_tile's main loop — same staged values, same per-element
/// ascending (k0, p) chain — only the accumulator layout is canonical
/// row-major so slices can hand the chain across workers.
void accumulate_tile_generic(const TilingStrategy& s, const GemmOperands& g,
                             int ty, int tx, int k_lo, int k_hi, bool first,
                             float* acc) {
  const int row0 = ty * s.by;
  const int col0 = tx * s.bx;
  if (first) std::fill_n(acc, s.by * s.bx, 0.0f);
  static thread_local SharedTiles shared;
  for (int k0 = k_lo; k0 < k_hi; k0 += s.bk) {
    shared.stage(s, g, row0, col0, k0);
    for (int t = 0; t < s.threads; ++t) {
      const SubTileOrigin o = thread_sub_tile(s, t);
      CTB_DCHECK(s.sub_x <= kMaxSubX);
      if (s.sub_x == 1) {
        const float* sbcol = &shared.b[o.col];
        for (int i = 0; i < s.sub_y; ++i) {
          const float* sa = &shared.a[(o.row + i) * s.bk];
          float sum = acc[(o.row + i) * s.bx + o.col];
          for (int p = 0; p < s.bk; ++p) sum += sa[p] * sbcol[p * s.bx];
          acc[(o.row + i) * s.bx + o.col] = sum;
        }
        continue;
      }
      for (int i = 0; i < s.sub_y; ++i) {
        const float* sa = &shared.a[(o.row + i) * s.bk];
        float* arow = &acc[(o.row + i) * s.bx + o.col];
        float row[kMaxSubX];
        for (int j = 0; j < s.sub_x; ++j) row[j] = arow[j];
        for (int p = 0; p < s.bk; ++p) {
          const float av = sa[p];
          const float* sb = &shared.b[p * s.bx + o.col];
          for (int j = 0; j < s.sub_x; ++j) row[j] += av * sb[j];
        }
        for (int j = 0; j < s.sub_x; ++j) arow[j] = row[j];
      }
    }
  }
}

/// Scalar packed-panel accumulation of panel steps [step_lo, step_hi) —
/// the runtime-bound twin of packed_microkernel's interior loop: per C
/// element the adds arrive in ascending (step, p) order over the same
/// packed values, so the bits match the compile-time kernels exactly.
void accumulate_tile_packed_scalar(const PackedGemm& pk,
                                   const TilingStrategy& s, int ty, int tx,
                                   int step_lo, int step_hi, bool first,
                                   float* acc) {
  if (first) std::fill_n(acc, s.by * s.bx, 0.0f);
  const float* pa = pk.a_panel(ty);
  const float* pb = pk.b_panel(tx);
  for (int step = step_lo; step < step_hi; ++step) {
    const float* sa_blk = pa + static_cast<std::size_t>(step) * (s.by * s.bk);
    const float* sb_blk = pb + static_cast<std::size_t>(step) * (s.bk * s.bx);
    for (int i = 0; i < s.by; ++i) {
      float* arow = acc + static_cast<std::size_t>(i) * s.bx;
      for (int p = 0; p < s.bk; ++p) {
        const float av = sa_blk[i * s.bk + p];
        const float* sb = sb_blk + p * s.bx;
        for (int j = 0; j < s.bx; ++j) arow[j] += av * sb[j];
      }
    }
  }
}

/// Accumulates K range [k_lo, k_hi) of tile (ty, tx) into `acc` through
/// the GEMM's dispatched path: SIMD tile loop (overwrite for the first
/// slice, accumulate-in continuation after), the scalar packed loop, or
/// the generic staged kernel. All paths produce bit-identical chains, so
/// a slice sequence ending at K equals one unsplit pass exactly.
void accumulate_tile_range(const TilingStrategy& s, const GemmOperands& g,
                           const PackedDispatch& d, int ty, int tx, int k_lo,
                           int k_hi, bool first, float* acc) {
  if (d.specialized()) {
    const PackedGemm& pk = *d.pack;
    const int step_lo = k_lo / s.bk;
    const int step_hi = k_hi >= g.dims.k ? pk.nsteps : k_hi / s.bk;
    if (d.kernel.isa != SimdIsa::kScalar) {
      const SimdTileLoopFn loop =
          first ? simd_tile_loop(d.kernel.isa, s.by, s.bx, s.bk)
                : simd_tile_loop_acc(d.kernel.isa, s.by, s.bx, s.bk);
      if (loop != nullptr) {
        loop(pk.a_panel(ty) +
                 static_cast<std::size_t>(step_lo) * (s.by * s.bk),
             pk.b_panel(tx) +
                 static_cast<std::size_t>(step_lo) * (s.bk * s.bx),
             step_hi - step_lo, acc);
        return;
      }
    }
    accumulate_tile_packed_scalar(pk, s, ty, tx, step_lo, step_hi, first,
                                  acc);
    return;
  }
  accumulate_tile_generic(s, g, ty, tx, k_lo, k_hi, first, acc);
}

// ---------------------------------------------------- fused epilogue ----

/// Scalar application of the value-op chain to one element's base value at
/// logical (gi, gj). fp16 rounds after every value op — the fused chain
/// emulates a sequence of binary16 stores, so it stays bit-identical to
/// running the same ops as separate passes over a half-precision C.
float apply_epilogue_value(float v, int spec, const EpilogueArgs& ea,
                           bool fp16, int gi, int gj, int n) {
  const int nops = epilogue_num_ops(spec);
  for (int o = 0; o < nops; ++o) {
    switch (epilogue_op_at(spec, o)) {
      case EpilogueOp::kBias:
        v += ea.bias[gi];
        break;
      case EpilogueOp::kRelu:
        v = v > 0.0f ? v : 0.0f;
        break;
      case EpilogueOp::kResidual:
        v += ea.residual[static_cast<std::size_t>(gi) * n + gj];
        break;
      default:
        continue;  // permutations affect addressing, not the value
    }
    if (fp16) v = round_to_half(v);
  }
  return v;
}

/// A permuted destination cannot express the beta prior read as a
/// tile-local chain (the prior lives at the scatter target, which another
/// tile may own); the executors reject the combination up front.
void check_epilogue_beta(const GemmOperands& g, float beta, std::size_t i) {
  CTB_CHECK_MSG(beta == 0.0f ||
                    (!epilogue_has_op(g.epilogue, EpilogueOp::kRowPerm) &&
                     !epilogue_has_op(g.epilogue, EpilogueOp::kColPerm)),
                "GEMM " << i
                        << ": beta != 0 with a permuted epilogue store");
}

/// Runtime-bound twin of store_tile_rowmajor (microkernel.hpp): the
/// alpha/beta epilogue over a row-major accumulator with edge guards,
/// beta == 0 short-circuit, and fp16 rounding — the identical per-element
/// expression every other executor path applies. When `g` carries a fused
/// epilogue chain it is applied here, per element, before the (possibly
/// permuted) store; this function is also the final store of a split
/// coordinate's carried chain, which is exactly what puts the epilogue
/// strictly after the last K slice at any thread count.
void store_tile_rowmajor_rt(const TilingStrategy& s, const GemmOperands& g,
                            int ty, int tx, float alpha, float beta,
                            const float* acc) {
  const auto& d = g.dims;
  const int row0 = ty * s.by;
  const int col0 = tx * s.bx;
  const bool fp16 = g.precision == Precision::kFp16;
  const int spec = g.epilogue;
  if (spec == 0) {
    for (int i = 0; i < s.by; ++i) {
      const int gi = row0 + i;
      if (gi >= d.m) break;
      const float* arow = acc + static_cast<std::size_t>(i) * s.bx;
      for (int j = 0; j < s.bx; ++j) {
        const int gj = col0 + j;
        if (gj >= d.n) break;
        float* cell = &g.c[static_cast<std::size_t>(gi) * d.n + gj];
        if (fp16) {
          const float prior =
              beta == 0.0f ? 0.0f : beta * round_to_half(*cell);
          *cell = round_to_half(alpha * arow[j] + prior);
        } else {
          const float prior = beta == 0.0f ? 0.0f : beta * *cell;
          *cell = alpha * arow[j] + prior;
        }
      }
    }
    return;
  }

  const EpilogueArgs& ea = g.epilogue_args;
  const int nops = epilogue_num_ops(spec);
  const bool rowperm = epilogue_has_op(spec, EpilogueOp::kRowPerm);
  const bool colperm = epilogue_has_op(spec, EpilogueOp::kColPerm);
  const int rows = std::min(s.by, d.m - row0);
  const int cols = std::min(s.bx, d.n - col0);
  CTB_TEL_COUNT("exec.epilogue.fused", 1);
  CTB_TEL_COUNT("exec.epilogue.ops", nops);

  // Vector path: fp32 rows with contiguous destinations (a row permutation
  // only relocates whole rows, so it stays eligible; a column permutation
  // scatters within the row and drops to the scalar chain). Ragged border
  // columns are masked tail chunks inside the row kernel, not a fallback.
  if (!fp16 && !colperm) {
    const SimdEpilogueRowFn rowfn = simd_epilogue_row(active_simd_isa());
    if (rowfn != nullptr) {
      EpilogueRowArgs r;
      r.n = cols;
      r.alpha = alpha;
      r.beta = beta;
      r.nops = nops;
      for (int o = 0; o < nops; ++o)
        r.ops[o] = static_cast<int>(epilogue_op_at(spec, o));
      for (int i = 0; i < rows; ++i) {
        const int gi = row0 + i;
        const int di = rowperm ? ea.row_perm[gi] : gi;
        r.acc = acc + static_cast<std::size_t>(i) * s.bx;
        r.c = g.c + static_cast<std::size_t>(di) * d.n + col0;
        r.residual =
            ea.residual != nullptr
                ? ea.residual + static_cast<std::size_t>(gi) * d.n + col0
                : nullptr;
        r.bias = ea.bias != nullptr ? ea.bias[gi] : 0.0f;
        rowfn(r);
      }
      return;
    }
  }

  // Scalar fused chain (fp16, column permutations, or no vector unit).
  for (int i = 0; i < rows; ++i) {
    const int gi = row0 + i;
    const int di = rowperm ? ea.row_perm[gi] : gi;
    const float* arow = acc + static_cast<std::size_t>(i) * s.bx;
    for (int j = 0; j < cols; ++j) {
      const int gj = col0 + j;
      const int dj = colperm ? ea.col_perm[gj] : gj;
      float* cell = &g.c[static_cast<std::size_t>(di) * d.n + dj];
      // check_epilogue_beta rejected beta != 0 for permuted stores, so the
      // prior read below always hits the logical == destination cell.
      float v;
      if (fp16) {
        const float prior = beta == 0.0f ? 0.0f : beta * round_to_half(*cell);
        v = round_to_half(alpha * arow[j] + prior);
      } else {
        const float prior = beta == 0.0f ? 0.0f : beta * *cell;
        v = alpha * arow[j] + prior;
      }
      *cell = apply_epilogue_value(v, spec, ea, fp16, gi, gj, d.n);
    }
  }
}

/// Executes one C tile as a chain of K slices through a thread-local
/// workspace: one owner carries the chain through every slice. Used by the
/// single-GEMM and vbatch split-K paths and by every fused-epilogue tile.
void execute_tile_sliced(const TilingStrategy& s, const GemmOperands& g,
                         const PackedDispatch& d, int ty, int tx,
                         std::span<const KSlice> slices, float alpha,
                         float beta) {
  static thread_local float acc[kMaxBy * kMaxBx];
  bool first = true;
  for (const KSlice& sl : slices) {
    accumulate_tile_range(s, g, d, ty, tx, sl.k_lo, sl.k_hi, first, acc);
    first = false;
  }
  store_tile_rowmajor_rt(s, g, ty, tx, alpha, beta, acc);
}

}  // namespace

void execute_tile(const TilingStrategy& s, const GemmOperands& g, int ty,
                  int tx, float alpha, float beta) {
  CTB_CHECK(g.a != nullptr && g.c != nullptr);
  CTB_CHECK_MSG(g.b != nullptr || g.b_gather,
                "B operand needs storage or a gather");
  CTB_CHECK(g.dims.valid());
  const int row0 = ty * s.by;
  const int col0 = tx * s.bx;
  CTB_CHECK_MSG(row0 < g.dims.m && col0 < g.dims.n,
                "tile (" << ty << "," << tx << ") outside GEMM");
  if (g.epilogue != 0) {
    // Fused tiles route through the sliced path: same staged accumulation,
    // but the store goes through the epilogue-aware row-major store.
    check_epilogue_beta(g, beta, 0);
    const KSlice full{0, g.dims.k};
    execute_tile_sliced(s, g, PackedDispatch{}, ty, tx, {&full, 1}, alpha,
                        beta);
    return;
  }

  // Per-thread C accumulators ("reg_C" in Fig. 2), zero-initialized. The
  // block's threads together cover the whole BY x BX tile, so the combined
  // footprint never exceeds the largest tile; a thread-local scratch sized
  // for that maximum (mirroring SharedTiles) makes the executor
  // allocation-free per tile.
  const int acc_per_thread = s.sub_y * s.sub_x;
  const int acc_total = s.threads * acc_per_thread;
  CTB_DCHECK(acc_total <= kMaxBy * kMaxBx);
  static thread_local float reg_c[kMaxBy * kMaxBx];
  std::fill_n(reg_c, acc_total, 0.0f);

  static thread_local SharedTiles shared;

  // Main loop along the K dimension in BK steps.
  for (int k0 = 0; k0 < g.dims.k; k0 += s.bk) {
    shared.stage(s, g, row0, col0, k0);
    // All threads of the block consume the staged tiles. The j-innermost
    // loop walks a contiguous row of the staged B tile so the compiler can
    // vectorize it; each C element still accumulates its FMAs in ascending
    // p order, so results are bit-identical to the p-innermost chain of the
    // real kernel.
    for (int t = 0; t < s.threads; ++t) {
      const SubTileOrigin o = thread_sub_tile(s, t);
      float* acc = &reg_c[static_cast<std::size_t>(t) * acc_per_thread];
      CTB_DCHECK(s.sub_x <= kMaxSubX);
      if (s.sub_x == 1) {
        // One C element per row: the j-inner form would pay a degenerate
        // inner loop per FMA, so reduce to a plain dot product (same
        // ascending-p order, so still bit-identical).
        const float* sbcol = &shared.b[o.col];
        for (int i = 0; i < s.sub_y; ++i) {
          const float* sa = &shared.a[(o.row + i) * s.bk];
          float sum = acc[i];
          for (int p = 0; p < s.bk; ++p) sum += sa[p] * sbcol[p * s.bx];
          acc[i] = sum;
        }
        continue;
      }
      for (int i = 0; i < s.sub_y; ++i) {
        const float* sa = &shared.a[(o.row + i) * s.bk];
        float* arow = &acc[i * s.sub_x];
        // Accumulate the row in a local block (the per-thread "registers"):
        // it cannot alias the staged tiles, so the whole BK-step stays in
        // vector registers instead of round-tripping through reg_c.
        float row[kMaxSubX];
        for (int j = 0; j < s.sub_x; ++j) row[j] = arow[j];
        for (int p = 0; p < s.bk; ++p) {
          const float av = sa[p];
          const float* sb = &shared.b[p * s.bx + o.col];
          for (int j = 0; j < s.sub_x; ++j) row[j] += av * sb[j];
        }
        for (int j = 0; j < s.sub_x; ++j) arow[j] = row[j];
      }
    }
  }

  // Epilogue: C = alpha * acc + beta * C, guarded against the matrix edge.
  for (int t = 0; t < s.threads; ++t) {
    const SubTileOrigin o = thread_sub_tile(s, t);
    const float* acc = &reg_c[static_cast<std::size_t>(t) * acc_per_thread];
    for (int i = 0; i < s.sub_y; ++i) {
      const int gi = row0 + o.row + i;
      if (gi >= g.dims.m) continue;
      for (int j = 0; j < s.sub_x; ++j) {
        const int gj = col0 + o.col + j;
        if (gj >= g.dims.n) continue;
        float* cell = &g.c[static_cast<std::size_t>(gi) * g.dims.n + gj];
        if (g.precision == Precision::kFp16) {
          const float prior =
              beta == 0.0f ? 0.0f : beta * round_to_half(*cell);
          *cell = round_to_half(alpha * acc[i * s.sub_x + j] + prior);
        } else {
          const float prior = beta == 0.0f ? 0.0f : beta * *cell;
          *cell = alpha * acc[i * s.sub_x + j] + prior;
        }
      }
    }
  }
}

void run_single_gemm(const TilingStrategy& s, const GemmOperands& g,
                     float alpha, float beta) {
  // Blocks write disjoint C tiles, so they run concurrently; each tile's
  // per-element FMA chain is untouched, keeping results bit-identical to
  // the serial walk.
  const int ty_count = (g.dims.m + s.by - 1) / s.by;
  const int tx_count = (g.dims.n + s.bx - 1) / s.bx;
  const long long tiles = static_cast<long long>(ty_count) * tx_count;
  CTB_TEL_COUNT("exec.flops",
                2LL * g.dims.m * g.dims.n * g.dims.k);
  CTB_TEL_COUNT("exec.c.passes", 1);

  std::size_t used = 0;
  PackedDispatch d = pack_decision(s, g, used);
  materialize_pack(s, g, d);
  publish_pack(s, g, d);
  count_dispatch(d, tiles);
  if (g.epilogue != 0) {
    // Fused GEMM: the compile-time microkernels store without the epilogue,
    // so every tile runs the dispatched accumulation (SIMD loop, scalar
    // packed, or generic — unchanged arithmetic) through the sliced path,
    // whose store applies the fused chain.
    check_epilogue_beta(g, beta, 0);
    const KSlice full{0, g.dims.k};
    parallel_for(tiles, [&](long long block) {
      execute_tile_sliced(s, g, d, static_cast<int>(block / tx_count),
                          static_cast<int>(block % tx_count), {&full, 1},
                          alpha, beta);
    });
    return;
  }
  if (d.specialized()) {
    parallel_for(tiles, [&](long long block) {
      d.kernel.fn(g, *d.pack, static_cast<int>(block / tx_count),
                  static_cast<int>(block % tx_count), alpha, beta);
    });
    return;
  }
  parallel_for(tiles, [&](long long block) {
    const int ty = static_cast<int>(block / tx_count);
    const int tx = static_cast<int>(block % tx_count);
    execute_tile(s, g, ty, tx, alpha, beta);
  });
}

void run_single_gemm(const TilingStrategy& s, const GemmOperands& g,
                     float alpha, float beta, int splitk) {
  const auto slices = k_slices(g.dims.k, s.bk, splitk);
  if (slices.size() <= 1) {
    run_single_gemm(s, g, alpha, beta);
    return;
  }
  const int ty_count = (g.dims.m + s.by - 1) / s.by;
  const int tx_count = (g.dims.n + s.bx - 1) / s.bx;
  const long long tiles = static_cast<long long>(ty_count) * tx_count;
  check_epilogue_beta(g, beta, 0);
  CTB_TEL_COUNT("exec.flops", 2LL * g.dims.m * g.dims.n * g.dims.k);
  CTB_TEL_COUNT("exec.c.passes", 1);
  CTB_TEL_COUNT("exec.splitk.tiles",
                tiles * static_cast<long long>(slices.size()));
  CTB_TEL_COUNT("exec.splitk.groups", tiles);

  std::size_t used = 0;
  PackedDispatch d = pack_decision(s, g, used);
  materialize_pack(s, g, d);
  publish_pack(s, g, d);
  count_dispatch(d, tiles);
  parallel_for(tiles, [&](long long block) {
    execute_tile_sliced(s, g, d, static_cast<int>(block / tx_count),
                        static_cast<int>(block % tx_count), slices, alpha,
                        beta);
  });
}

void run_vbatch(const TilingStrategy& s, std::span<const GemmOperands> batch,
                float alpha, float beta) {
  // Grid X/Y sized by the largest GEMM (paper Fig. 3a); smaller GEMMs leave
  // bubble blocks, which the guard below skips.
  int max_ty = 0, max_tx = 0;
  for (std::size_t z = 0; z < batch.size(); ++z) {
    const auto& g = batch[z];
    check_epilogue_beta(g, beta, z);
    max_ty = std::max(max_ty, (g.dims.m + s.by - 1) / s.by);
    max_tx = std::max(max_tx, (g.dims.n + s.bx - 1) / s.bx);
  }

  CTB_TEL_COUNT("exec.flops", flops_of(batch));
  CTB_TEL_COUNT("exec.c.passes", batch.size());

  // One uniform strategy: budget decisions stay serial in batch order
  // (deterministic accounting), then the panel materialization fans out one
  // GEMM per parallel_for task. Each pack_gemm writes only its own
  // PackedGemm buffers and resolves every panel element identically
  // regardless of which worker runs it, so results are bit-exact across
  // thread counts.
  std::vector<PackedDispatch> packs(batch.size());
  std::size_t used = 0;
  for (std::size_t z = 0; z < batch.size(); ++z)
    packs[z] = pack_decision(s, batch[z], used);
  parallel_for(static_cast<long long>(batch.size()), [&](long long z) {
    materialize_pack(s, batch[static_cast<std::size_t>(z)],
                     packs[static_cast<std::size_t>(z)]);
  });
  for (std::size_t z = 0; z < batch.size(); ++z) {
    publish_pack(s, batch[z], packs[z]);
    count_dispatch(packs[z], s.tiles_for(batch[z].dims.m, batch[z].dims.n));
  }

  // Every (z, ty, tx) grid block is independent — each GEMM has its own C
  // and the tiles within a GEMM are disjoint — so the whole grid runs as
  // one parallel-for. The z divisor is hoisted as long long: max_ty *
  // max_tx as an int product could overflow before widening on large grids.
  const long long zdiv = static_cast<long long>(max_ty) * max_tx;
  const long long grid = static_cast<long long>(batch.size()) * zdiv;
  parallel_for(grid, [&](long long block) {
    const std::size_t z = static_cast<std::size_t>(block / zdiv);
    const int ty = static_cast<int>(block / max_tx % max_ty);
    const int tx = static_cast<int>(block % max_tx);
    const auto& g = batch[z];
    const int ty_count = (g.dims.m + s.by - 1) / s.by;
    const int tx_count = (g.dims.n + s.bx - 1) / s.bx;
    if (ty >= ty_count || tx >= tx_count) return;  // bubble block
    const PackedDispatch& d = packs[z];
    if (g.epilogue != 0) {
      const KSlice full{0, g.dims.k};
      execute_tile_sliced(s, g, d, ty, tx, {&full, 1}, alpha, beta);
    } else if (d.specialized()) {
      d.kernel.fn(g, *d.pack, ty, tx, alpha, beta);
    } else {
      execute_tile(s, g, ty, tx, alpha, beta);
    }
  });
}

void run_vbatch(const TilingStrategy& s, std::span<const GemmOperands> batch,
                float alpha, float beta, int splitk) {
  if (splitk <= 1) {
    run_vbatch(s, batch, alpha, beta);
    return;
  }
  int max_ty = 0, max_tx = 0;
  for (std::size_t z = 0; z < batch.size(); ++z) {
    const auto& g = batch[z];
    check_epilogue_beta(g, beta, z);
    max_ty = std::max(max_ty, (g.dims.m + s.by - 1) / s.by);
    max_tx = std::max(max_tx, (g.dims.n + s.bx - 1) / s.bx);
  }
  CTB_TEL_COUNT("exec.flops", flops_of(batch));
  CTB_TEL_COUNT("exec.c.passes", batch.size());

  std::vector<PackedDispatch> packs(batch.size());
  std::size_t used = 0;
  for (std::size_t z = 0; z < batch.size(); ++z)
    packs[z] = pack_decision(s, batch[z], used);
  parallel_for(static_cast<long long>(batch.size()), [&](long long z) {
    materialize_pack(s, batch[static_cast<std::size_t>(z)],
                     packs[static_cast<std::size_t>(z)]);
  });
  std::vector<std::vector<KSlice>> slices(batch.size());
  for (std::size_t z = 0; z < batch.size(); ++z) {
    publish_pack(s, batch[z], packs[z]);
    const long long tiles = s.tiles_for(batch[z].dims.m, batch[z].dims.n);
    count_dispatch(packs[z], tiles);
    slices[z] = k_slices(batch[z].dims.k, s.bk, splitk);
    if (slices[z].size() > 1) {
      CTB_TEL_COUNT("exec.splitk.tiles",
                    tiles * static_cast<long long>(slices[z].size()));
      CTB_TEL_COUNT("exec.splitk.groups", tiles);
    }
  }

  const long long zdiv = static_cast<long long>(max_ty) * max_tx;
  const long long grid = static_cast<long long>(batch.size()) * zdiv;
  parallel_for(grid, [&](long long block) {
    const std::size_t z = static_cast<std::size_t>(block / zdiv);
    const int ty = static_cast<int>(block / max_tx % max_ty);
    const int tx = static_cast<int>(block % max_tx);
    const auto& g = batch[z];
    const int ty_count = (g.dims.m + s.by - 1) / s.by;
    const int tx_count = (g.dims.n + s.bx - 1) / s.bx;
    if (ty >= ty_count || tx >= tx_count) return;  // bubble block
    const PackedDispatch& d = packs[z];
    if (slices[z].size() > 1) {
      execute_tile_sliced(s, g, d, ty, tx, slices[z], alpha, beta);
    } else if (g.epilogue != 0) {
      const KSlice full{0, g.dims.k};
      execute_tile_sliced(s, g, d, ty, tx, {&full, 1}, alpha, beta);
    } else if (d.specialized()) {
      d.kernel.fn(g, *d.pack, ty, tx, alpha, beta);
    } else {
      execute_tile(s, g, ty, tx, alpha, beta);
    }
  });
}

namespace {

/// Validates one permutation operand: present, sized to its axis, every
/// entry in range, and bijective (no two sources map to one destination —
/// the property that keeps parallel tiles writing disjoint C regions).
void audit_perm(const int* perm, int len, int extent, const char* axis,
                std::size_t i) {
  CTB_CHECK_MSG(perm != nullptr && len == extent,
                "GEMM " << i << ' ' << axis << "-permutation: need "
                        << extent << " entries, have "
                        << (perm != nullptr ? len : 0));
  std::vector<char> seen(static_cast<std::size_t>(extent), 0);
  for (int v = 0; v < extent; ++v) {
    const int p = perm[v];
    CTB_CHECK_MSG(p >= 0 && p < extent,
                  "GEMM " << i << ' ' << axis << "-permutation entry " << v
                          << " = " << p << " out of range [0," << extent
                          << ")");
    CTB_CHECK_MSG(!seen[static_cast<std::size_t>(p)],
                  "GEMM " << i << ' ' << axis
                          << "-permutation maps two sources to " << p);
    seen[static_cast<std::size_t>(p)] = 1;
  }
}

/// Epilogue half of the operand audit: the spec is a canonical chain, every
/// op it names has its operand present with the exact extent, and each
/// permutation axis appears at most once (a repeated axis would make the
/// destination ambiguous). Runs before any matrix element is touched.
void audit_epilogue(const GemmOperands& g, std::size_t i) {
  const int spec = g.epilogue;
  CTB_CHECK_MSG(epilogue_packed_valid(spec),
                "GEMM " << i << " has malformed epilogue spec " << spec);
  if (spec == 0) return;
  const EpilogueArgs& ea = g.epilogue_args;
  const auto& d = g.dims;
  int rowperms = 0, colperms = 0;
  const int nops = epilogue_num_ops(spec);
  for (int o = 0; o < nops; ++o) {
    switch (epilogue_op_at(spec, o)) {
      case EpilogueOp::kBias:
        CTB_CHECK_MSG(ea.bias != nullptr && ea.bias_len == d.m,
                      "GEMM " << i << " bias operand: need " << d.m
                              << " values, have "
                              << (ea.bias != nullptr ? ea.bias_len : 0));
        break;
      case EpilogueOp::kResidual:
        CTB_CHECK_MSG(ea.residual != nullptr && ea.residual_rows == d.m &&
                          ea.residual_cols == d.n,
                      "GEMM " << i << " residual operand: need " << d.m
                              << 'x' << d.n << ", have "
                              << ea.residual_rows << 'x'
                              << ea.residual_cols);
        break;
      case EpilogueOp::kRowPerm:
        ++rowperms;
        break;
      case EpilogueOp::kColPerm:
        ++colperms;
        break;
      default:
        break;
    }
  }
  CTB_CHECK_MSG(rowperms <= 1 && colperms <= 1,
                "GEMM " << i << " epilogue repeats a permutation axis");
  if (rowperms > 0) audit_perm(ea.row_perm, ea.row_perm_len, d.m, "row", i);
  if (colperms > 0) audit_perm(ea.col_perm, ea.col_perm_len, d.n, "col", i);
}

}  // namespace

void audit_operands(std::span<const GemmOperands> batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const GemmOperands& g = batch[i];
    CTB_CHECK_MSG(g.dims.valid(), "GEMM " << i << " has degenerate dims "
                                          << g.dims.m << 'x' << g.dims.n
                                          << 'x' << g.dims.k);
    CTB_CHECK_MSG(g.a != nullptr, "GEMM " << i << " has no A storage");
    CTB_CHECK_MSG(g.b != nullptr || g.b_gather,
                  "GEMM " << i << " needs B storage or a gather");
    CTB_CHECK_MSG(g.c != nullptr, "GEMM " << i << " has no C storage");
    audit_epilogue(g, i);
  }
}

void audit_plan_operands(const BatchPlan& plan,
                         std::span<const GemmOperands> batch) {
  audit_operands(batch);
  std::vector<GemmDims> dims(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) dims[i] = batch[i].dims;
  validate_plan(plan, dims);
  // The plan's per-GEMM epilogue record must agree with what the operands
  // carry — a stale fused plan meeting a reshaped (or de-fused) batch is
  // rejected here, exactly like a dims mismatch.
  for (std::size_t i = 0; i < batch.size(); ++i)
    CTB_CHECK_MSG(plan.gemm_epilogue(static_cast<int>(i)) ==
                      batch[i].epilogue,
                  "GEMM " << i << " epilogue mismatch: plan has "
                          << epilogue_to_string(
                                 plan.gemm_epilogue(static_cast<int>(i)))
                          << ", operands carry "
                          << epilogue_to_string(batch[i].epilogue));
}

void reference_gemm(const GemmOperands& g, float alpha, float beta) {
  CTB_CHECK(g.a != nullptr && g.c != nullptr);
  CTB_CHECK_MSG(g.b != nullptr || g.b_gather,
                "B operand needs storage or a gather");
  CTB_CHECK(g.dims.valid());
  const auto& d = g.dims;
  auto at_a = [&](int i, int k) {
    return g.op_a == Op::kN ? g.a[static_cast<std::size_t>(i) * d.k + k]
                            : g.a[static_cast<std::size_t>(k) * d.m + i];
  };
  auto at_b = [&](int k, int j) {
    if (g.b_gather) return g.b_gather(k, j);
    return g.op_b == Op::kN ? g.b[static_cast<std::size_t>(k) * d.n + j]
                            : g.b[static_cast<std::size_t>(j) * d.k + k];
  };
  const bool fp16 = g.precision == Precision::kFp16;
  const int spec = g.epilogue;
  const EpilogueArgs& ea = g.epilogue_args;
  const bool rowperm = epilogue_has_op(spec, EpilogueOp::kRowPerm);
  const bool colperm = epilogue_has_op(spec, EpilogueOp::kColPerm);
  check_epilogue_beta(g, beta, 0);
  for (int i = 0; i < d.m; ++i) {
    for (int j = 0; j < d.n; ++j) {
      float acc = 0.0f;
      if (fp16) {
        for (int k = 0; k < d.k; ++k)
          acc += round_to_half(at_a(i, k)) * round_to_half(at_b(k, j));
      } else {
        for (int k = 0; k < d.k; ++k) acc += at_a(i, k) * at_b(k, j);
      }
      // The beta prior reads the logical cell; under a permutation beta is
      // rejected above, so logical == destination whenever it is read.
      float* cell = &g.c[static_cast<std::size_t>(i) * d.n + j];
      float v;
      if (fp16) {
        const float prior =
            beta == 0.0f ? 0.0f : beta * round_to_half(*cell);
        v = round_to_half(alpha * acc + prior);
      } else {
        const float prior = beta == 0.0f ? 0.0f : beta * *cell;
        v = alpha * acc + prior;
      }
      if (spec != 0) {
        v = apply_epilogue_value(v, spec, ea, fp16, i, j, d.n);
        const int di = rowperm ? ea.row_perm[i] : i;
        const int dj = colperm ? ea.col_perm[j] : j;
        g.c[static_cast<std::size_t>(di) * d.n + dj] = v;
      } else {
        *cell = v;
      }
    }
  }
}

void run_batched_plan(const BatchPlan& plan,
                      std::span<const GemmOperands> batch, float alpha,
                      float beta) {
  CTB_TEL_SPAN("exec.run_batched_plan");
  try {
    CTB_TEL_SPAN("exec.audit");
    audit_plan_operands(plan, batch);
  } catch (const CheckError&) {
    // An audit rejection is a postmortem moment: the plan passed validation
    // but its aux arrays do not fit these operands. Leave a flight trail
    // (and persist it when a dump directory is configured) before the
    // exception unwinds to the caller's fallback.
    CTB_TEL_FLIGHT(kGuardReject, "audit_plan_operands",
                   static_cast<std::int64_t>(batch.size()),
                   plan.num_tiles());
    telemetry::flight_autodump("audit_reject");
    throw;
  }
  for (std::size_t i = 0; i < batch.size(); ++i)
    check_epilogue_beta(batch[i], beta, i);
  CTB_TEL_FLIGHT(kExec, "run_batched_plan", plan.num_blocks(),
                 plan.num_tiles());
  CTB_TEL_COUNT("exec.plan_runs", 1);
  CTB_TEL_COUNT("exec.blocks", plan.num_blocks());
  CTB_TEL_COUNT("exec.tiles", plan.num_tiles());
  CTB_TEL_COUNT("exec.flops", flops_of(batch));
  CTB_TEL_COUNT("exec.c.passes", batch.size());

  // Packing pass: a validated plan assigns each GEMM a single strategy, but
  // strategies vary across GEMMs, so packs are keyed by (gemm, strategy).
  // Walk the tile array once to find each GEMM's strategy and tile count,
  // make the budget decisions serially in GEMM order (deterministic
  // accounting), then materialize the panels one GEMM per parallel_for task
  // — disjoint PackedGemm buffers and order-independent panel contents keep
  // the pass bit-exact across thread counts.
  std::vector<int> strategy_of_gemm(batch.size(), -1);
  std::vector<PackedDispatch> packs(batch.size());
  {
    CTB_TEL_SPAN("exec.pack");
    std::vector<long long> tiles_of_gemm(batch.size(), 0);
    for (std::size_t t = 0; t < plan.gemm_of_tile.size(); ++t) {
      const auto gi = static_cast<std::size_t>(plan.gemm_of_tile[t]);
      strategy_of_gemm[gi] = plan.strategy_of_tile[t];
      ++tiles_of_gemm[gi];
    }
    std::size_t used = 0;
    for (std::size_t gi = 0; gi < batch.size(); ++gi) {
      if (strategy_of_gemm[gi] < 0) continue;  // GEMM unused by the plan
      packs[gi] = pack_decision(batched_strategy_by_id(strategy_of_gemm[gi]),
                                batch[gi], used);
    }
    parallel_for(static_cast<long long>(batch.size()), [&](long long z) {
      const auto gi = static_cast<std::size_t>(z);
      if (strategy_of_gemm[gi] >= 0)
        materialize_pack(batched_strategy_by_id(strategy_of_gemm[gi]),
                         batch[gi], packs[gi]);
    });
    for (std::size_t gi = 0; gi < batch.size(); ++gi) {
      if (strategy_of_gemm[gi] < 0) continue;
      publish_pack(batched_strategy_by_id(strategy_of_gemm[gi]), batch[gi],
                   packs[gi]);
      count_dispatch(packs[gi], tiles_of_gemm[gi]);
    }
  }

  // Split-K counters, derived from the plan alone: partial-K slices, and
  // the coordinates they split (one k_begin == 0 seed each).
  if (plan.has_split()) {
    long long split_tiles = 0, split_coords = 0;
    for (int t = 0; t < plan.num_tiles(); ++t) {
      const auto g = static_cast<std::size_t>(
          plan.gemm_of_tile[static_cast<std::size_t>(t)]);
      const int K = batch[g].dims.k;
      const auto [kb, ke] = plan.tile_k_range(t, K);
      if (kb == 0 && ke == K) continue;
      ++split_tiles;
      if (kb == 0) ++split_coords;
    }
    CTB_TEL_COUNT("exec.splitk.tiles", split_tiles);
    CTB_TEL_COUNT("exec.splitk.groups", split_coords);
  }

  // Fig. 7: each block walks its tile range from the aux arrays. Blocks run
  // concurrently — validate_plan guarantees complete single coverage, so no
  // two blocks touch the same C tile — while each block's tile chain stays
  // serial, exactly like persistent thread blocks on the device. Per-block
  // spans land in parallel_for-safe thread-local buffers. A split-K
  // coordinate runs whole in the block holding its k_begin == 0 slice:
  // validate_plan guarantees the coordinate's slices partition [0, K)
  // exactly, so that block executes the full-K tile — the one ascending
  // (k0, p) chain the unsplit plan runs — and the continuation slices are
  // no-ops wherever they sit.
  parallel_for(plan.num_blocks(), [&](long long b) {
    CTB_TEL_SPAN("exec.block");
    const auto [begin, end] = plan.block_tiles(static_cast<int>(b));
    for (int t = begin; t < end; ++t) {
      const int g = plan.gemm_of_tile[static_cast<std::size_t>(t)];
      CTB_CHECK_MSG(g >= 0 && g < static_cast<int>(batch.size()),
                    "plan references GEMM " << g << " beyond the batch");
      if (plan.has_split() && plan.k_begin[static_cast<std::size_t>(t)] != 0)
        continue;  // continuation slice: its seed block runs the chain
      const int sid = plan.strategy_of_tile[static_cast<std::size_t>(t)];
      const int ty = plan.y_coord[static_cast<std::size_t>(t)];
      const int tx = plan.x_coord[static_cast<std::size_t>(t)];
      const PackedDispatch& d = packs[static_cast<std::size_t>(g)];
      if (batch[static_cast<std::size_t>(g)].epilogue != 0) {
        // Fused tile: dispatched accumulation + the epilogue-aware store
        // (the microkernels' own store has no epilogue hook).
        const KSlice full{0, batch[static_cast<std::size_t>(g)].dims.k};
        execute_tile_sliced(batched_strategy_by_id(sid),
                            batch[static_cast<std::size_t>(g)], d, ty, tx,
                            {&full, 1}, alpha, beta);
      } else if (d.specialized() &&
                 sid == strategy_of_gemm[static_cast<std::size_t>(g)]) {
        d.kernel.fn(batch[static_cast<std::size_t>(g)], *d.pack, ty, tx,
                    alpha, beta);
      } else {
        execute_tile(batched_strategy_by_id(sid),
                     batch[static_cast<std::size_t>(g)], ty, tx, alpha,
                     beta);
      }
    }
  });
}

GemmOperands operands(const Matrixf& a, const Matrixf& b, Matrixf& c) {
  return operands(a, b, c, Op::kN, Op::kN);
}

GemmOperands operands(const Matrixf& a, const Matrixf& b, Matrixf& c,
                      Op op_a, Op op_b) {
  GemmOperands g;
  g.dims = gemm_dims_for(op_a, op_b, a, b);
  CTB_CHECK_MSG(static_cast<int>(c.rows()) == g.dims.m &&
                    static_cast<int>(c.cols()) == g.dims.n,
                "operand shape mismatch");
  g.a = a.data();
  g.b = b.data();
  g.c = c.data();
  g.op_a = op_a;
  g.op_b = op_b;
  return g;
}

}  // namespace ctb
