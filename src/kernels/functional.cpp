#include "kernels/functional.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

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

/// The row-major BY x BX accumulator every tile runs through ("reg_C" in
/// Fig. 2): one thread-local scratch sized for the largest tile keeps tile
/// execution allocation-free.
float* tile_scratch() {
  static thread_local float acc[kMaxBy * kMaxBx];
  return acc;
}

/// Generic staged accumulation of tile (ty, tx) over the whole K extent
/// into a zeroed row-major BY x BX accumulator: the Fig. 2 kernel body —
/// stage BY x BK / BK x BX tiles through emulated shared memory, then each
/// emulated thread accumulates its sub-tile. Per C element the adds arrive
/// in ascending (k0, p) order over staged values, the chain every other
/// path reproduces. The j-innermost loop walks a contiguous staged B row so
/// the compiler can vectorize it without changing any element's chain.
void accumulate_tile_generic(const TilingStrategy& s, const GemmOperands& g,
                             int ty, int tx, float* acc) {
  CTB_DCHECK(s.by <= kMaxBy && s.bx <= kMaxBx && s.bk <= kMaxBk);
  CTB_DCHECK(s.sub_x <= kMaxSubX);
  const int row0 = ty * s.by;
  const int col0 = tx * s.bx;
  std::fill_n(acc, s.by * s.bx, 0.0f);
  static thread_local SharedTiles shared;
  for (int k0 = 0; k0 < g.dims.k; k0 += s.bk) {
    shared.stage(s, g, row0, col0, k0);
    for (int t = 0; t < s.threads; ++t) {
      const SubTileOrigin o = thread_sub_tile(s, t);
      if (s.sub_x == 1) {
        // One C element per row: a plain dot product (same ascending-p
        // chain) instead of a degenerate j-inner loop per FMA.
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
        // The per-thread "registers": a local block that cannot alias the
        // staged tiles, so the BK step stays in vector registers.
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

/// Scalar packed-panel accumulation of tile (ty, tx) over every panel step
/// into a zeroed row-major accumulator — the loop the scalar ISA, and any
/// geometry without a SIMD tile loop, runs. Per C element the adds arrive
/// in ascending (step, p) order over the packed values, which are the
/// staged values, so the bits match the generic path exactly.
void accumulate_tile_packed_scalar(const TilingStrategy& s,
                                   const PackedGemm& pk, int ty, int tx,
                                   float* acc) {
  CTB_DCHECK(s.by <= kMaxBy && s.bx <= kMaxBx);
  std::fill_n(acc, s.by * s.bx, 0.0f);
  const float* pa = pk.a_panel(ty);
  const float* pb = pk.b_panel(tx);
  for (int step = 0; step < pk.nsteps; ++step) {
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

/// The one tile store: C = alpha * acc + beta * C over a row-major
/// accumulator, clipped to the matrix edge, then any fused epilogue chain
/// of `g` per element before the (possibly permuted) write. fp32 rows with
/// a contiguous destination (a row permutation only relocates whole rows;
/// a plain GEMM is the zero-op chain) go through the active ISA's row
/// kernel, whose masked tail chunk covers a ragged border column. fp16
/// rows, column permutations and hosts without a vector unit run the
/// scalar chain. Both apply the identical per-element expression (beta ==
/// 0 short-circuits the prior read, fp16 rounds after every op), and it
/// runs once per tile after the full K chain, so the epilogue follows the
/// last K step at any thread count.
void store_tile_rowmajor_rt(const TilingStrategy& s, const GemmOperands& g,
                            int ty, int tx, float alpha, float beta,
                            const float* acc) {
  const auto& d = g.dims;
  const int row0 = ty * s.by;
  const int col0 = tx * s.bx;
  const bool fp16 = g.precision == Precision::kFp16;
  const int spec = g.epilogue;
  const EpilogueArgs& ea = g.epilogue_args;
  const int nops = epilogue_num_ops(spec);
  const bool rowperm = epilogue_has_op(spec, EpilogueOp::kRowPerm);
  const bool colperm = epilogue_has_op(spec, EpilogueOp::kColPerm);
  const int rows = std::min(s.by, d.m - row0);
  const int cols = std::min(s.bx, d.n - col0);
  if (spec != 0) {
    CTB_TEL_COUNT("exec.epilogue.fused", 1);
    CTB_TEL_COUNT("exec.epilogue.ops", nops);
  }

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

// ------------------------------------------------- per-GEMM prepare ----

/// One GEMM's execution state for one executor call: its strategy, the
/// packed panels its tiles read (shared with the cross-call cache, so
/// panels a concurrent invalidate evicts stay alive for the rest of this
/// call; null runs the generic staged path), and the tile loop for those
/// panels (null runs the scalar packed loop).
struct PreparedGemm {
  const TilingStrategy* s = nullptr;  ///< null: the plan never uses it
  std::shared_ptr<const PackedGemm> pack;
  SimdTileLoopFn loop = nullptr;
  SimdIsa isa = SimdIsa::kScalar;  ///< the ISA `loop` runs (exec.simd.*)
  bool need_pack = false;  ///< admitted but not in the cache: materialize
};

/// Per-ISA tile accounting: exec.simd.* partitions every executed tile by
/// the ISA that ran it (generic-path tiles count as scalar), so the four
/// counters always sum to the call's total tiles.
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

/// Dispatch + staging-reuse accounting for `tiles` tiles of one GEMM. Each
/// tile reads one A and one B panel; panels were packed (or fetched from
/// the cache) once, so all but one read per panel is a staging the generic
/// path would have repeated.
void count_dispatch(const PreparedGemm& d, long long tiles) {
  if (d.pack != nullptr) {
    CTB_TEL_COUNT("exec.dispatch.specialized", tiles);
    CTB_TEL_COUNT("exec.pack.reuse",
                  2 * tiles - d.pack->ty_count - d.pack->tx_count);
  } else {
    CTB_TEL_COUNT("exec.dispatch.generic", tiles);
  }
  count_simd_tiles(d.isa, tiles);
}

/// The per-GEMM prepare pass both executors share. `gemms[i].s` names GEMM
/// i's strategy (null: skipped), `tiles[i]` its tile count.
///   1. Serial, in batch order: budget admission and cache probe. A GEMM is
///      packed iff its footprint fits both the per-GEMM cap (one oversized
///      GEMM runs generic without starving the rest of the batch) and the
///      call's remaining cumulative arena budget. A cache hit charges the
///      budget exactly like a fresh pack, so which GEMMs are admitted never
///      depends on what the cache holds.
///   2. Parallel, one GEMM per task: pack_gemm for admitted misses. Each
///      writes only its own buffers and resolves every panel element the
///      same way on any worker, so results are bit-exact across thread
///      counts.
///   3. Serial, in batch order: cache publication (deterministic eviction
///      order) and dispatch counting.
void prepare_gemms(std::span<const GemmOperands> batch,
                   std::span<PreparedGemm> gemms,
                   std::span<const long long> tiles) {
  const std::size_t budget = pack_arena_budget();
  const SimdIsa active = active_simd_isa();
  std::size_t used = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    PreparedGemm& d = gemms[i];
    if (d.s == nullptr) continue;
    const TilingStrategy& s = *d.s;
    const std::size_t bytes = pack_footprint_bytes(s, batch[i].dims);
    if (bytes > pack_gemm_budget() || bytes > budget ||
        used > budget - bytes)
      continue;
    used += bytes;
    d.pack = pack_cache_lookup(s, batch[i]);
    d.need_pack = d.pack == nullptr;
    d.loop = simd_tile_loop(active, s.by, s.bx, s.bk);
    if (d.loop != nullptr) d.isa = active;
  }
  parallel_for(static_cast<long long>(batch.size()), [&](long long z) {
    PreparedGemm& d = gemms[static_cast<std::size_t>(z)];
    if (d.need_pack)
      d.pack = std::make_shared<PackedGemm>(
          pack_gemm(*d.s, batch[static_cast<std::size_t>(z)]));
  });
  for (std::size_t i = 0; i < batch.size(); ++i) {
    PreparedGemm& d = gemms[i];
    if (d.s == nullptr) continue;
    if (d.need_pack) pack_cache_insert(*d.s, batch[i], d.pack);
    count_dispatch(d, tiles[i]);
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

/// One C tile of a prepared GEMM: a full-K accumulate through the GEMM's
/// path (SIMD or scalar packed loop, or generic staging), then the one
/// store. Every executor's block runs its tiles through here.
void run_tile(const TilingStrategy& s, const GemmOperands& g,
              const PreparedGemm& d, int ty, int tx, float alpha,
              float beta) {
  if (d.pack != nullptr)
    execute_packed_tile(s, g, *d.pack, d.loop, ty, tx, alpha, beta);
  else
    execute_tile(s, g, ty, tx, alpha, beta);
}

}  // namespace

void execute_tile(const TilingStrategy& s, const GemmOperands& g, int ty,
                  int tx, float alpha, float beta) {
  CTB_CHECK(g.a != nullptr && g.c != nullptr);
  CTB_CHECK_MSG(g.b != nullptr || g.gather,
                "B operand needs storage or a gather");
  CTB_CHECK(g.dims.valid());
  CTB_CHECK_MSG(ty * s.by < g.dims.m && tx * s.bx < g.dims.n,
                "tile (" << ty << "," << tx << ") outside GEMM");
  check_epilogue_beta(g, beta, 0);
  float* acc = tile_scratch();
  accumulate_tile_generic(s, g, ty, tx, acc);
  store_tile_rowmajor_rt(s, g, ty, tx, alpha, beta, acc);
}

void execute_packed_tile(const TilingStrategy& s, const GemmOperands& g,
                         const PackedGemm& pk, SimdTileLoopFn loop, int ty,
                         int tx, float alpha, float beta) {
  float* acc = tile_scratch();
  if (loop != nullptr)
    loop(pk.a_panel(ty), pk.b_panel(tx), pk.nsteps, acc);
  else
    accumulate_tile_packed_scalar(s, pk, ty, tx, acc);
  store_tile_rowmajor_rt(s, g, ty, tx, alpha, beta, acc);
}

void run_single_gemm(const TilingStrategy& s, const GemmOperands& g,
                     float alpha, float beta) {
  run_vbatch(s, {&g, 1}, alpha, beta);
}

void run_vbatch(const TilingStrategy& s, std::span<const GemmOperands> batch,
                float alpha, float beta) {
  audit_operands(batch);
  // Grid X/Y sized by the largest GEMM (paper Fig. 3a); smaller GEMMs leave
  // bubble blocks, which the guard below skips.
  int max_ty = 0, max_tx = 0;
  std::vector<long long> tiles(batch.size());
  for (std::size_t z = 0; z < batch.size(); ++z) {
    const auto& g = batch[z];
    check_epilogue_beta(g, beta, z);
    max_ty = std::max(max_ty, (g.dims.m + s.by - 1) / s.by);
    max_tx = std::max(max_tx, (g.dims.n + s.bx - 1) / s.bx);
    tiles[z] = s.tiles_for(g.dims.m, g.dims.n);
  }
  CTB_TEL_COUNT("exec.flops", flops_of(batch));
  CTB_TEL_COUNT("exec.c.passes", batch.size());

  std::vector<PreparedGemm> gemms(batch.size());
  for (PreparedGemm& d : gemms) d.s = &s;
  prepare_gemms(batch, gemms, tiles);

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
    if (ty * s.by >= g.dims.m || tx * s.bx >= g.dims.n) return;  // bubble
    run_tile(s, g, gemms[z], ty, tx, alpha, beta);
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

/// A conv gather must produce exactly the GEMM's K x N B from a shape whose
/// address arithmetic stays in int range; checked before any read.
void audit_gather(const GemmOperands& g, std::size_t i) {
  const ConvGather& cv = *g.gather;
  CTB_CHECK_MSG(g.b == nullptr,
                "GEMM " << i << " sets both B storage and a gather");
  CTB_CHECK_MSG(g.op_b == Op::kN, "GEMM " << i << " gathers a transposed B");
  CTB_CHECK_MSG(cv.input != nullptr, "GEMM " << i << " gathers a null input");
  CTB_CHECK_MSG(cv.kernel >= 1 && cv.stride >= 1 && cv.pad >= 0,
                "GEMM " << i << " gather has kernel " << cv.kernel
                        << ", stride " << cv.stride << ", pad " << cv.pad);
  CTB_CHECK_MSG(cv.images >= 1 && cv.channels >= 1 && cv.in_h >= 1 &&
                    cv.in_w >= 1,
                "GEMM " << i << " gather has an empty input "
                        << cv.images << 'x' << cv.channels << 'x' << cv.in_h
                        << 'x' << cv.in_w);
  const long long span_h = cv.in_h + 2LL * cv.pad;
  const long long span_w = cv.in_w + 2LL * cv.pad;
  CTB_CHECK_MSG(span_h >= cv.kernel && span_w >= cv.kernel &&
                    span_h <= std::numeric_limits<int>::max() &&
                    span_w <= std::numeric_limits<int>::max(),
                "GEMM " << i << " gather kernel " << cv.kernel
                        << " does not fit its padded input");
  // Each factor is below 2^31, so every product below stays in range once
  // its smaller factor has been checked against the dims.
  const long long taps = 1LL * cv.kernel * cv.kernel;
  const long long plane = ((span_h - cv.kernel) / cv.stride + 1) *
                          ((span_w - cv.kernel) / cv.stride + 1);
  const long long k = taps <= g.dims.k ? cv.channels * taps : -1;
  const long long n = plane <= g.dims.n ? cv.images * plane : -1;
  CTB_CHECK_MSG(k == g.dims.k && n == g.dims.n,
                "GEMM " << i << " gather of " << cv.channels << " channels x "
                        << taps << " taps over " << cv.images << " images x "
                        << plane << " pixels does not yield the "
                        << g.dims.k << 'x' << g.dims.n << " B of its dims");
}

}  // namespace

void audit_operands(std::span<const GemmOperands> batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const GemmOperands& g = batch[i];
    CTB_CHECK_MSG(g.dims.valid(), "GEMM " << i << " has degenerate dims "
                                          << g.dims.m << 'x' << g.dims.n
                                          << 'x' << g.dims.k);
    CTB_CHECK_MSG(g.a != nullptr, "GEMM " << i << " has no A storage");
    CTB_CHECK_MSG(g.b != nullptr || g.gather,
                  "GEMM " << i << " needs B storage or a gather");
    if (g.gather) audit_gather(g, i);
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
  audit_operands({&g, 1});
  const auto& d = g.dims;
  auto at_a = [&](int i, int k) {
    return g.op_a == Op::kN ? g.a[static_cast<std::size_t>(i) * d.k + k]
                            : g.a[static_cast<std::size_t>(k) * d.m + i];
  };
  auto at_b = [&](int k, int j) {
    if (g.gather) return conv_gather_value(*g.gather, k, j);
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

  // A validated plan assigns each GEMM one strategy (strategies vary across
  // GEMMs); one walk of the tile array finds it and the GEMM's tile count.
  std::vector<PreparedGemm> gemms(batch.size());
  {
    CTB_TEL_SPAN("exec.pack");
    std::vector<long long> tiles(batch.size(), 0);
    for (std::size_t t = 0; t < plan.gemm_of_tile.size(); ++t) {
      const auto gi = static_cast<std::size_t>(plan.gemm_of_tile[t]);
      gemms[gi].s = &batched_strategy_by_id(plan.strategy_of_tile[t]);
      ++tiles[gi];
    }
    prepare_gemms(batch, gemms, tiles);
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
  // spans land in parallel_for-safe thread-local buffers.
  //
  // Split-K (DESIGN.md §11): a split tile covers only [k_begin, k_end) of
  // its coordinate, but bit-exactness with the unsplit plan demands that
  // every C element accumulate as ONE ascending (k0, p) chain — float
  // addition is not associative, so zero-based per-slice partials cannot be
  // recombined. validate_plan guarantees a coordinate's slices partition
  // [0, K) exactly, so the block holding its k_begin == 0 (seed) slice runs
  // the whole coordinate as one full-K tile — the unique order-preserving
  // reduction, no atomics, one owner per C tile — and the continuation
  // slices are no-ops wherever they sit.
  parallel_for(plan.num_blocks(), [&](long long b) {
    CTB_TEL_SPAN("exec.block");
    const auto [begin, end] = plan.block_tiles(static_cast<int>(b));
    for (int t = begin; t < end; ++t) {
      const auto ti = static_cast<std::size_t>(t);
      const int g = plan.gemm_of_tile[ti];
      CTB_CHECK_MSG(g >= 0 && g < static_cast<int>(batch.size()),
                    "plan references GEMM " << g << " beyond the batch");
      if (plan.has_split() && plan.k_begin[ti] != 0)
        continue;  // continuation slice: its seed block runs the chain
      const PreparedGemm& d = gemms[static_cast<std::size_t>(g)];
      run_tile(*d.s, batch[static_cast<std::size_t>(g)], d, plan.y_coord[ti],
               plan.x_coord[ti], alpha, beta);
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
