// Operand panel packing for the packed tile loops.
//
// The generic executor re-stages the same A row-panel for every tile in a
// C-tile row and the same B column-panel for every tile in a C-tile column,
// paying per-element bounds/transpose/fp16/gather branches each time. The
// packing pass resolves all of that exactly once per (GEMM, strategy): A is
// laid out as ty_count row panels and B as tx_count column panels, each
// panel a sequence of K-step blocks in precisely the layout the emulated
// shared memory uses (A block `a[i * BK + p]`, B block `b[p * BX + j]`,
// zero-padded past the matrix edges, values rounded through binary16 on the
// fp16 path, a conv gather's B materialized). The K loops of the packed tile
// paths (the SIMD tile loops and the scalar packed loop) then read
// branch-free contiguous memory.
//
// Bit-exactness: `staged_a_value` / `staged_b_value` are the specification
// of staged operand values — the generic executor's SharedTiles staging
// calls them, and so does the packing pass for fp16 operands. fp32
// operands take bulk paths that produce the same bytes: op N blocks copy
// each panel row as one contiguous run, op T blocks walk the source
// contiguously and scatter into the block, a conv gather's B copies the input in runs with its padding taps
// written as zeros (one run per image for an unpadded stride-1 1x1 conv,
// one per output row otherwise),
// and the ragged remainder is written as zeros.
// Since fp32 staging is a plain copy, a packed panel block is
// byte-identical to the tile the generic path would have staged either
// way, and the FMA chains downstream see identical inputs (microkernel_test
// pins this across every strategy, op, precision and conv gather shape).
//
// Every element of every panel block, padding included, is written by
// exactly one of those paths. The panel buffers rely on that: they are
// allocated without value-initialization (`PanelBuffer`), so nothing is
// zero-filled only to be overwritten.
//
// Packed buffers are transient per executor call, bounded by the pack-arena
// budget (see `pack_arena_budget`): a call packs GEMMs in batch
// order until the budget is exhausted, and every GEMM past that point runs
// through the generic unpacked staging path instead.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

#include "core/tiling_strategy.hpp"
#include "kernels/functional.hpp"
#include "kernels/simd.hpp"
#include "linalg/half.hpp"

namespace ctb {

/// The exact value the kernel's guarded global->shared staging produces for
/// logical A(gi, gk): zero past the M/K edge, transpose resolved, rounded
/// through binary16 on the fp16 path.
inline float staged_a_value(const GemmOperands& g, int gi, int gk) {
  const auto& d = g.dims;
  float v = 0.0f;
  if (gi < d.m && gk < d.k) {
    v = g.op_a == Op::kN ? g.a[static_cast<std::size_t>(gi) * d.k + gk]
                         : g.a[static_cast<std::size_t>(gk) * d.m + gi];
  }
  if (g.precision == Precision::kFp16) v = round_to_half(v);
  return v;
}

/// The exact staged value for logical B(gk, gj): zero past the K/N edge,
/// transpose resolved or the conv gather read (conv_gather_value),
/// fp16-rounded.
inline float staged_b_value(const GemmOperands& g, int gk, int gj) {
  const auto& d = g.dims;
  float v = 0.0f;
  if (gk < d.k && gj < d.n) {
    if (g.gather) {
      v = conv_gather_value(*g.gather, gk, gj);
    } else {
      v = g.op_b == Op::kN ? g.b[static_cast<std::size_t>(gk) * d.n + gj]
                           : g.b[static_cast<std::size_t>(gj) * d.k + gk];
    }
  }
  if (g.precision == Precision::kFp16) v = round_to_half(v);
  return v;
}

/// std::allocator whose value-less construct() default-initializes, so
/// `resize(n)` on a vector of floats allocates without zero-filling.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  using value_type = T;
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() noexcept = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  // Copies and other constructions with arguments fall through to
  // std::construct_at via allocator_traits.
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
};

/// Panel storage. Freshly sized elements are indeterminate until
/// `pack_gemm` writes them — and it writes every one, padding included.
using PanelBuffer = std::vector<float, DefaultInitAllocator<float>>;

/// Packed operand panels for one (GEMM, strategy) pair.
///
/// Layout: A panel `ty` holds `nsteps` consecutive BY x BK blocks, block
/// `step` storing staged A(ty*BY + i, step*BK + p) at `[i * BK + p]`;
/// B panel `tx` holds `nsteps` consecutive BK x BX blocks, block `step`
/// storing staged B(step*BK + p, tx*BX + j) at `[p * BX + j]`. Every tile
/// (ty, tx) of the GEMM reads A panel `ty` and B panel `tx`.
struct PackedGemm {
  int by = 0, bx = 0, bk = 0;
  int nsteps = 0;    ///< K-steps: ceil(K / BK)
  int ty_count = 0;  ///< A (row) panels
  int tx_count = 0;  ///< B (column) panels
  PanelBuffer a;
  PanelBuffer b;

  bool valid() const { return nsteps > 0; }
  std::size_t bytes() const { return (a.size() + b.size()) * sizeof(float); }
  const float* a_panel(int ty) const {
    return a.data() +
           static_cast<std::size_t>(ty) * nsteps * (by * bk);
  }
  const float* b_panel(int tx) const {
    return b.data() +
           static_cast<std::size_t>(tx) * nsteps * (bk * bx);
  }
};

/// Bytes `pack_gemm` would allocate for this (strategy, dims) pair — used
/// against the pack-arena budget before committing to a pack.
std::size_t pack_footprint_bytes(const TilingStrategy& s, const GemmDims& d);

/// Packs all A and B panels of `g` for `s`: bulk copies, transposes and
/// conv-gather runs for fp32 operands, `staged_a_value` / `staged_b_value`
/// per element for fp16; the bytes are the same either way. Counts
/// `exec.pack.panels` and `exec.pack.bytes`. Safe to call from inside a
/// parallel_for worker (it only reads `g` and writes its own buffers).
/// `g` must already have passed audit_operands: a conv gather's descriptor
/// is not re-checked here.
PackedGemm pack_gemm(const TilingStrategy& s, const GemmOperands& g);

/// Executes C tile (ty, tx) of `g` from panels `pk` packed for `s`: a
/// full-K accumulate through `loop` — the SIMD tile loop for the geometry,
/// as simd_tile_loop returns it — or, when `loop` is null, through the
/// scalar packed loop, then the one tile store (alpha/beta, edge clip,
/// fused epilogue). The executors run every packed tile through here.
void execute_packed_tile(const TilingStrategy& s, const GemmOperands& g,
                         const PackedGemm& pk, SimdTileLoopFn loop, int ty,
                         int tx, float alpha, float beta);

/// Pack-arena budget in bytes for a single executor call (default 256 MiB,
/// overridable at startup with CTB_PACK_BUDGET=<bytes>). GEMMs whose packs
/// would push the call's cumulative packed bytes past the budget fall back
/// to the generic unpacked staging path; 0 disables packing entirely (the
/// lever the bit-exactness tests use to force the generic path).
std::size_t pack_arena_budget();
void set_pack_arena_budget(std::size_t bytes);

/// Per-GEMM pack admission cap in bytes (default 64 MiB, overridable at
/// startup with CTB_PACK_GEMM_BUDGET=<bytes>). A single GEMM whose pack
/// footprint exceeds this runs generic without consuming any of the
/// cumulative arena budget, so one oversized GEMM cannot starve the rest of
/// the batch out of packing; 0 disables packing for every GEMM (equivalent
/// to a zero arena budget).
std::size_t pack_gemm_budget();
void set_pack_gemm_budget(std::size_t bytes);

/// RAII budget override for tests and benchmarks.
class ScopedPackArenaBudget {
 public:
  explicit ScopedPackArenaBudget(std::size_t bytes)
      : saved_(pack_arena_budget()) {
    set_pack_arena_budget(bytes);
  }
  ~ScopedPackArenaBudget() { set_pack_arena_budget(saved_); }
  ScopedPackArenaBudget(const ScopedPackArenaBudget&) = delete;
  ScopedPackArenaBudget& operator=(const ScopedPackArenaBudget&) = delete;

 private:
  std::size_t saved_;
};

/// RAII per-GEMM cap override for tests and benchmarks.
class ScopedPackGemmBudget {
 public:
  explicit ScopedPackGemmBudget(std::size_t bytes)
      : saved_(pack_gemm_budget()) {
    set_pack_gemm_budget(bytes);
  }
  ~ScopedPackGemmBudget() { set_pack_gemm_budget(saved_); }
  ScopedPackGemmBudget(const ScopedPackGemmBudget&) = delete;
  ScopedPackGemmBudget& operator=(const ScopedPackGemmBudget&) = delete;

 private:
  std::size_t saved_;
};

}  // namespace ctb
