// Functional executors for the simulated device kernels.
//
// These run the exact code skeletons of the paper on the CPU, thread block
// by thread block: the single-GEMM kernel of Fig. 2 (shared-memory staged
// A/B tiles, per-thread register sub-tiles, K-loop in BK steps), the MAGMA
// vbatch kernel (gridDim.z slices with bubble-block guards), and the
// persistent-threads batched kernel of Fig. 7 driven by the five auxiliary
// arrays. Double buffering changes only timing, not values, so the
// functional path uses single buffers; the timing model accounts for the
// pipeline.
//
// All results are bit-exact across executors for a given strategy because
// every executor accumulates in the same (k0, p) order.
//
// One tile path: every C tile is a full-K accumulate into a row-major
// BY x BX scratch followed by one store. The executors pack a GEMM's A/B
// panels once per call when its packed footprint fits the pack budgets
// (packing.hpp); its tiles then run the active ISA's SIMD tile loop when one
// covers the geometry (simd.hpp), else the scalar packed loop. GEMMs the
// budget does not admit stage tiles per block through the generic path
// (`execute_tile`). All paths are bit-identical;
// `exec.dispatch.{specialized,generic}` count packed vs generic tiles and
// `exec.simd.*` the ISA that ran them. The store applies alpha/beta, the
// edge clip and any fused epilogue.
//
// Execution is block-parallel on the host: the executors fan independent
// thread blocks out over ctb::parallel_for (OpenMP, serial fallback). This
// is safe and bit-exact because blocks write disjoint C tiles — one tile
// per block for the single/vbatch grids, and complete single coverage
// guaranteed by validate_plan for batched plans — while each block's tile
// chain and per-element FMA order stay serial. set_parallel_threads(1)
// forces the serial path; parallel_exec_test asserts bit-identical C either
// way.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/batch_plan.hpp"
#include "core/tiling_strategy.hpp"
#include "linalg/gemm_ref.hpp"

namespace ctb {

/// The implicit-GEMM convolution B operand (paper Section 7.3): logical
/// B(k, j) of an im2col-lowered convolution, read from the NCHW `input`
/// tensor instead of a materialized column matrix. Rows decode as
/// k = (c * kernel + kh) * kernel + kw and columns as
/// j = (image * out_h + oy) * out_w + ox, the im2col order; taps that fall
/// in the padding read zero. A plain value: the executors read it from many
/// host threads through a const GemmOperands, and audit_operands checks it
/// against the GEMM's dims before any memory access.
struct ConvGather {
  const float* input = nullptr;
  int images = 1;
  int channels = 1;
  int in_h = 1;
  int in_w = 1;
  int kernel = 1;  ///< square kernels only
  int stride = 1;
  int pad = 0;

  int out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  int out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }
};

/// The specification of B(k, j) for a conv gather — the one per-element
/// decode that staged_b_value and reference_gemm call. The packing pass's
/// run-copy writer produces the same values without calling it.
inline float conv_gather_value(const ConvGather& cv, int k, int j) {
  const int kw = k % cv.kernel;
  const int kh = (k / cv.kernel) % cv.kernel;
  const int c = k / (cv.kernel * cv.kernel);
  const int ow = cv.out_w();
  const int oh = cv.out_h();
  const int ox = j % ow;
  const int oy = (j / ow) % oh;
  const int image = j / (ow * oh);
  const int iy = oy * cv.stride - cv.pad + kh;
  const int ix = ox * cv.stride - cv.pad + kw;
  if (iy < 0 || iy >= cv.in_h || ix < 0 || ix >= cv.in_w) return 0.0f;
  const std::size_t plane = static_cast<std::size_t>(image) * cv.channels + c;
  return cv.input[(plane * cv.in_h + iy) * cv.in_w + ix];
}

/// One GEMM's operands on the simulated device. The logical problem is
/// C(MxN) = alpha * op(A)(MxK) * op(B)(KxN) + beta * C; all storage is
/// row-major with leading dimension == stored column count. With Op::kT an
/// operand is stored transposed (A storage KxM, B storage NxK), and the
/// kernel's staging loads transpose on the fly — exactly what the guarded
/// global->shared copies of a real NT/TN kernel do.
struct GemmOperands {
  const float* a = nullptr;
  const float* b = nullptr;
  float* c = nullptr;
  GemmDims dims;
  Op op_a = Op::kN;
  Op op_b = Op::kN;
  /// kFp16 emulates the tensor-core path: staged A/B values round through
  /// binary16, accumulation stays FP32, and the epilogue rounds C to
  /// binary16 (storage remains float arrays holding half-exact values).
  Precision precision = Precision::kFp32;
  /// Optional implicit-GEMM gather for logical B(k, j). When set, `b` must
  /// be null and the staging loads read B from the conv input instead of a
  /// materialized im2col matrix (implicit_conv_operands fills it). A
  /// gathered B is op N: the descriptor fixes its layout.
  std::optional<ConvGather> gather;
  /// Packed fused-epilogue chain (epilogue.hpp), applied inside the tile
  /// store — after the tile's full K chain, split-K included — instead of a
  /// separate elementwise pass over C. 0 = none (the plain store).
  /// For plan-driven execution the plan's epilogue_of_gemm entry must match
  /// this spec; audit_plan_operands enforces the agreement.
  int epilogue = 0;
  /// Operands for the ops named by `epilogue`; audited for presence, extent,
  /// and (for permutations) bijectivity before any matrix memory is touched.
  EpilogueArgs epilogue_args;
};

/// Executes one C tile (ty, tx) of `g` under `strategy` through the generic
/// path: stages A/B tiles through an emulated shared memory, accumulates
/// per-thread register sub-tiles over the whole K loop, then applies the
/// alpha/beta store (and any fused epilogue) with boundary guards. `g`
/// must already have passed audit_operands: a conv gather's descriptor is
/// not re-checked here.
void execute_tile(const TilingStrategy& strategy, const GemmOperands& g,
                  int ty, int tx, float alpha, float beta);

/// Fig. 2: classic one-tile-per-block single GEMM — run_vbatch over a batch
/// of one, so it audits its operands the same way.
void run_single_gemm(const TilingStrategy& strategy, const GemmOperands& g,
                     float alpha, float beta);

/// MAGMA vbatch: one uniform strategy, grid sized by the largest GEMM's tile
/// count, gridDim.z = batch; out-of-range (bubble) blocks return immediately.
/// Runs audit_operands first, so malformed operands or epilogue arguments
/// throw before any matrix memory is touched.
void run_vbatch(const TilingStrategy& strategy,
                std::span<const GemmOperands> batch, float alpha, float beta);

/// Audits the operand array alone: every GEMM has valid dims, an A pointer,
/// a C pointer and exactly one of a B pointer and a conv gather; a gather
/// has a non-null input, kernel and stride >= 1, pad >= 0, op_b N, and a
/// shape whose B is exactly the GEMM's K x N. Any fused-epilogue spec is a
/// canonical chain whose operands are present with the right extents
/// (bias_len == m, residual m x n, permutations bijective on their axis,
/// at most one permutation per axis). Throws CheckError naming the
/// offending batch index, before any matrix element is touched.
void audit_operands(std::span<const GemmOperands> batch);

/// Full pre-execution audit: audit_operands, then validate_plan against the
/// dims the operands actually carry (not the dims the plan was built from —
/// that closes the gap where a stale plan meets a reshaped batch). Rejects
/// every corruption class in the fault-injection catalog before the
/// executor reads or writes any matrix memory.
void audit_plan_operands(const BatchPlan& plan,
                         std::span<const GemmOperands> batch);

/// Reference execution of one GEMM — the graceful-degradation path and the
/// oracle for the fused epilogue. A transpose-, gather-, and precision-aware
/// naive triple loop with the same ascending-k accumulation and alpha/beta
/// epilogue as gemm_naive / gemm_naive_fp16, so its C output is
/// bit-identical to the host oracles; any fused-epilogue chain on `g` is
/// applied per element with exactly the executor semantics (epilogue.hpp),
/// so fused executor output is bit-identical to this reference too. Runs
/// audit_operands on `g` first, so a malformed gather or epilogue throws
/// CheckError before any read.
void reference_gemm(const GemmOperands& g, float alpha, float beta);

/// Fig. 7: persistent-threads batched kernel driven by the plan's aux
/// arrays. `batch` is indexed by the plan's GEMM ids. Runs
/// audit_plan_operands first, so a corrupt plan or operand array throws
/// before any memory access.
void run_batched_plan(const BatchPlan& plan,
                      std::span<const GemmOperands> batch, float alpha,
                      float beta);

/// Convenience: wraps host matrices as device operands (they share storage
/// in the simulator). Shapes are validated.
GemmOperands operands(const Matrixf& a, const Matrixf& b, Matrixf& c);

/// Transpose-aware variant: logical dims are derived from the stored shapes
/// and the ops (e.g. op_a == kT means `a` stores K x M).
GemmOperands operands(const Matrixf& a, const Matrixf& b, Matrixf& c,
                      Op op_a, Op op_b);

}  // namespace ctb
