// Runtime-dispatched explicit-SIMD tile loops and store rows.
//
// Every packed tile accumulates into a row-major BY x BX scratch and then
// runs the one tile store (functional.cpp). This layer supplies the vector
// halves of both: per-ISA translation units (simd_avx2.cpp, simd_avx512.cpp,
// simd_neon.cpp) instantiate one shared tile-loop template
// (simd_kernels.inl) per distinct Table-1/2 tile geometry, vectorizing along
// the j (x) axis so every vector lane owns exactly one C element, plus one
// store-row kernel for the alpha/beta (+ fused epilogue) store of an fp32
// row.
// A geometry without a loop here, and every tile under the scalar ISA, runs
// the runtime-bound scalar packed loop instead.
//
// Determinism (DESIGN.md §6): lanes are independent C elements, so each
// element's accumulation chain is still scalar-ordered — ascending (k0, p)
// over the staged panel values — and the multiply and add are written as
// separate statements under the global -ffp-contract=off, so no lane ever
// sees a fused or reassociated operation. The SIMD result is bit-identical
// to the scalar packed loop and the generic executor for every geometry,
// precision, transpose mode, and gather.
//
// Dispatch: `detected_simd_isa()` probes the host once (CPUID on x86-64,
// NEON is baseline on aarch64); `active_simd_isa()` starts from the
// detection, optionally overridden by CTB_SIMD_ISA=scalar|neon|avx2|avx512
// in the environment, and is clamped so it never exceeds what the host
// supports. Building with -DCTB_SIMD=OFF compiles every per-ISA table to an
// empty stub and detection reports kScalar, so the scalar packed loop and
// the scalar store chain run every tile.
//
// This header deliberately defines no inline functions: it is included by
// translation units compiled with different target flags (-mavx2, -mavx512f),
// and keeping it declaration-only removes any chance of ODR-merging function
// bodies compiled for different ISAs.
#pragma once

namespace ctb {

/// Instruction sets the dispatcher can select, in increasing capability
/// order (the order set_simd_isa clamps against).
enum class SimdIsa { kScalar = 0, kNeon = 1, kAvx2 = 2, kAvx512 = 3 };

/// Interior K loop over the packed panels of one (ty, tx) tile: accumulates
/// `nsteps` BY x BK / BK x BX panel blocks into a row-major BY x BX
/// accumulator (`acc[i * BX + j]`), fully overwriting it (every element is
/// the sum-from-zero, so callers need not clear the scratch). The caller
/// applies the alpha/beta epilogue; the loop touches nothing else.
using SimdTileLoopFn = void (*)(const float* a_panel, const float* b_panel,
                                int nsteps, float* acc);

/// One geometry's tile loops in a per-ISA table. BK is 8 for every suite
/// entry (paper §4.2.2); it is part of the key anyway so a future suite
/// cannot silently match the wrong kernel.
struct SimdLoopEntry {
  int by, bx, bk;
  SimdTileLoopFn fn;
};

/// One C row's worth of tile-store work: alpha/beta plus any fused epilogue
/// chain (DESIGN.md §12); a plain GEMM is the empty chain (nops == 0). The
/// caller resolves everything row-scoped — the destination row pointer
/// (already through any row permutation), the residual row, and this row's
/// bias value — so the kernel only walks columns. `ops` holds the packed
/// chain's op ids in order (the integer values of ctb::EpilogueOp,
/// epilogue.hpp — kept as plain ints so this header stays dependency-free);
/// the kernel applies the value ops (bias=1, relu=2, residual=3) per vector
/// chunk in chain order and ignores permutation ids, which only affect the
/// caller's addressing. `n` may be any length: the ragged tail is handled
/// with masked partial loads/stores, so edge tiles never fall back to the
/// scalar path. fp32 only — fp16 rounds after every op and stays scalar.
struct EpilogueRowArgs {
  const float* acc = nullptr;       ///< accumulator row (tile-local)
  float* c = nullptr;               ///< destination C row
  const float* residual = nullptr;  ///< residual row (kResidual ops only)
  int n = 0;                        ///< valid columns in this row
  float alpha = 1.0f;
  float beta = 0.0f;  ///< prior scale; C is read when nonzero
  float bias = 0.0f;  ///< this row's bias value (kBias ops only)
  int ops[4] = {0, 0, 0, 0};  ///< op ids in chain order
  int nops = 0;
};

/// Vectorized store of one row; bit-identical to the scalar per-element
/// chain (separate multiply/add statements, sign-preserving
/// relu select) for every op combination.
using SimdEpilogueRowFn = void (*)(const EpilogueRowArgs& row);

namespace simd_detail {
/// Per-ISA geometry tables, defined in their own translation units so each
/// can be compiled with the matching target flags. On hosts (or builds)
/// without the ISA they return an empty table (*count == 0).
const SimdLoopEntry* avx2_loops(int* count);
const SimdLoopEntry* avx512_loops(int* count);
const SimdLoopEntry* neon_loops(int* count);
/// Per-ISA store-row kernels; nullptr when the ISA is unavailable.
SimdEpilogueRowFn avx2_epilogue_row();
SimdEpilogueRowFn avx512_epilogue_row();
SimdEpilogueRowFn neon_epilogue_row();
}  // namespace simd_detail

/// Best ISA the host supports (memoized; kScalar when CTB_SIMD=OFF).
SimdIsa detected_simd_isa();

/// The ISA the executors dispatch on: detection clamped by CTB_SIMD_ISA and
/// any set_simd_isa() call. Never exceeds detected_simd_isa(); requesting an
/// ISA the host lacks (e.g. neon on x86-64) selects an empty table, and the
/// executors fall back to the scalar packed loop — still bit-exact.
SimdIsa active_simd_isa();

/// Overrides the active ISA (clamped to the detected one). For in-process
/// A/B comparisons in tests and benchmarks; takes effect on the next
/// executor call.
void set_simd_isa(SimdIsa isa);

/// "scalar" | "neon" | "avx2" | "avx512" — used in telemetry names, CSV
/// headers, and perf-report fields.
const char* simd_isa_name(SimdIsa isa);

/// Parses a simd_isa_name string (as in CTB_SIMD_ISA); returns kScalar for
/// anything unrecognized.
SimdIsa parse_simd_isa(const char* name);

/// The `isa` tile loop for the given geometry, or nullptr when that ISA has
/// no kernel for it (unknown geometry, ISA unavailable on this host/build,
/// or isa == kScalar, which by design has no entries here — those tiles run
/// the scalar packed loop).
SimdTileLoopFn simd_tile_loop(SimdIsa isa, int by, int bx, int bk);

/// The `isa` store-row kernel, or nullptr (isa == kScalar, or the
/// ISA is unavailable on this host/build) — the caller then runs the scalar
/// per-element chain, which is bit-identical.
SimdEpilogueRowFn simd_epilogue_row(SimdIsa isa);

/// RAII ISA override for tests and benchmarks.
class ScopedSimdIsa {
 public:
  explicit ScopedSimdIsa(SimdIsa isa) : saved_(active_simd_isa()) {
    set_simd_isa(isa);
  }
  ~ScopedSimdIsa() { set_simd_isa(saved_); }
  ScopedSimdIsa(const ScopedSimdIsa&) = delete;
  ScopedSimdIsa& operator=(const ScopedSimdIsa&) = delete;

 private:
  SimdIsa saved_;
};

}  // namespace ctb
