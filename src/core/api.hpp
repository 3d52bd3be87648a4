// Public API of the coordinated tiling and batching framework.
//
// Typical use:
//
//   ctb::PlannerConfig config;                       // V100 defaults
//   ctb::BatchedGemmPlanner planner(config);
//   ctb::PlanSummary s = planner.plan(dims);         // tiling + batching
//   ctb::execute_plan(s.plan, operands, alpha, beta) // bit-exact results
//   ctb::TimedResult t = time_plan(arch, s.plan, dims);  // simulated time
//
// or the one-call convenience `batched_gemm(...)` over host matrices.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/batching_engine.hpp"
#include "core/tiling_engine.hpp"
#include "gpusim/arch.hpp"
#include "gpusim/sm_engine.hpp"
#include "kernels/functional.hpp"
#include "rf/random_forest.hpp"

namespace ctb {

/// How the planner picks between the two batching heuristics.
enum class BatchingPolicy {
  kThresholdOnly,  ///< always threshold batching (TLP priority)
  kBinaryOnly,     ///< always binary batching (ILP priority)
  kAutoOffline,    ///< evaluate both through the simulator, keep the faster
  kRandomForest,   ///< online random-forest selection (paper Section 5)
  kTilingOnly,     ///< one tile per block (tiling engine alone, Fig. 8)
};

const char* to_string(BatchingPolicy policy);

/// Split-K planning mode — the third scheduling axis (DESIGN.md §11).
enum class SplitKMode {
  kAuto,   ///< consider split-K only when the unsplit plan is TLP-scarce
           ///< (launched threads < tlp_threshold / 2) and keep it when the
           ///< simulator says it wins
  kOff,    ///< never split (the degraded serving configuration: no extra
           ///< simulator sweep on the fallback path)
  kForce,  ///< skip the scarcity trigger and keep the fastest *split*
           ///< candidate whenever the batch's K extents allow one
};

const char* to_string(SplitKMode mode);

/// TLP threshold for an architecture: 65536 on V100 (paper), scaled for
/// other GPUs by their thread capacity (0.4 * SMs * threads-per-SM, which
/// reproduces 65536 exactly on the V100 preset).
long long default_tlp_threshold(const GpuArch& arch);

/// Workload threshold theta (256 on V100, paper Section 7).
int default_theta(const GpuArch& arch);

struct PlannerConfig {
  GpuModel gpu = GpuModel::kV100;
  /// Zero values mean "derive from the architecture".
  long long tlp_threshold = 0;
  int theta = 0;
  BatchingPolicy policy = BatchingPolicy::kAutoOffline;
  /// Required when policy == kRandomForest.
  const RandomForest* forest = nullptr;
  /// Execution precision (kFp16 = tensor-core semantics). Tiling and the
  /// kAutoOffline heuristic choice are made at FP32 (the strategy tables
  /// are the paper's FP32 suite); the split-K sweep times its candidates at
  /// this precision, so split decisions depend on it.
  Precision precision = Precision::kFp32;
  /// Split-K scheduling axis: when a batch's tiles cannot fill the machine,
  /// each tile's K loop may be partitioned into BK-aligned slices executed
  /// as extra blocks; the host runs each split coordinate as one full-K
  /// chain (bit-identical to the unsplit plan — see run_batched_plan).
  /// Candidate split plans are sim-compared against the unsplit plan via
  /// time_plan.
  SplitKMode splitk = SplitKMode::kAuto;
  /// Upper bound on K slices per tile; candidates sweep powers of two
  /// (2, 4, ..., max_splitk).
  int max_splitk = 8;
  /// When set, batched_gemm executes through try_execute_plan: a plan that
  /// fails validation degrades to the bit-exact reference GEMM path instead
  /// of throwing. Off by default — a planner bug should be loud in
  /// development; serving loops opt in. Does not affect planning, so it is
  /// excluded from batch_signature.
  bool fallback_to_reference = false;
};

/// The configuration the plan service degrades to when the full planner
/// cannot answer within its deadline: threshold batching needs one linear
/// pass over the batch (no simulator sweep, no forest), so a fallback plan
/// is always computable "now". Everything but the selection policy (and the
/// then-unused forest pointer) is preserved.
PlannerConfig degraded_fallback_config(const PlannerConfig& config);

/// Everything the planner decided, plus the executable plan.
struct PlanSummary {
  TilingResult tiling;
  BatchingHeuristic heuristic = BatchingHeuristic::kNone;
  BatchPlan plan;
};

class BatchedGemmPlanner {
 public:
  explicit BatchedGemmPlanner(PlannerConfig config = {});

  /// Plans a batch: tiling engine, then batching engine under the configured
  /// policy. The returned plan passes validate_plan().
  PlanSummary plan(std::span<const GemmDims> dims) const;

  /// Like plan(dims) but the returned plan carries per-GEMM fused-epilogue
  /// specs (parallel to `dims`; empty or all-zero means none, and yields a
  /// plan identical to the two-arg form). Tiling, batching, and split-K
  /// decisions are epilogue-independent — the chain only changes the tile
  /// store — so epilogues ride along as a sixth aux array.
  PlanSummary plan(std::span<const GemmDims> dims,
                   std::span<const int> epilogues) const;

  const PlannerConfig& config() const { return config_; }
  const GpuArch& arch() const { return arch_; }

 private:
  /// Split-K candidate generation: when enabled and triggered, sweeps
  /// power-of-two slice counts over the enumerated tiles, batches each
  /// candidate with the already-chosen heuristic, and replaces summary.plan
  /// when the simulator prefers a split plan (always, under kForce).
  /// `unsplit_time_us`, when given, is time_plan of summary.plan at
  /// config_.precision, already computed by the caller.
  void consider_splitk(PlanSummary& summary, std::span<const Tile> tiles,
                       int threads, const BatchingConfig& batching_config,
                       std::span<const GemmDims> dims,
                       std::optional<double> unsplit_time_us = {}) const;

  PlannerConfig config_;
  GpuArch arch_;
};

/// Simulated execution time of a plan as one persistent-threads kernel
/// launch (includes the host launch overhead).
struct TimedResult {
  SimStats sim;
  double time_us = 0.0;
};

TimedResult time_plan(const GpuArch& arch, const BatchPlan& plan,
                      std::span<const GemmDims> dims,
                      Precision precision = Precision::kFp32);

/// Functional execution: computes C = alpha*A*B + beta*C for every GEMM in
/// the batch, following the plan block by block. Audits the operands and
/// validates the plan against the dims they carry first; throws CheckError
/// before any matrix element is read or written if either is inconsistent.
void execute_plan(const BatchPlan& plan, std::span<const GemmOperands> batch,
                  float alpha, float beta);

/// What try_execute_plan did: fell_back is false on the plan path, true on
/// the reference path, and reason carries the validation failure verbatim.
struct ExecutionReport {
  bool fell_back = false;
  std::string reason;
};

/// Graceful degradation entry for serving loops. Audits the operands, then
/// validates the plan against them; on success executes the plan exactly
/// like execute_plan (bit-identical C). If *plan validation* fails, logs
/// the structured reason at warn level and computes every GEMM through
/// reference_gemm instead — slow but bit-exact, and C is untouched until
/// the fallback runs. Broken operands (null pointers, degenerate dims)
/// still throw: there is nothing correct to fall back to.
ExecutionReport try_execute_plan(const BatchPlan& plan,
                                 std::span<const GemmOperands> batch,
                                 float alpha, float beta);

/// One-call host convenience: plans, validates, functionally executes, and
/// times the batch. a/b/c are parallel arrays of host matrices.
struct BatchedGemmResult {
  PlanSummary summary;
  TimedResult timing;
  /// Filled when config.fallback_to_reference is set; default-initialized
  /// (no fallback) otherwise. Timing is skipped on the fallback path — the
  /// simulated time of a rejected plan is meaningless.
  ExecutionReport execution;
};

/// Degenerate-input contract (both overloads): an empty batch, a null
/// matrix pointer, any GEMM with m, n, or k == 0, mismatched inner
/// dimensions, or a C whose shape differs from op(A)*op(B) throws
/// CheckError deterministically, before any element of any C is written.
/// These are caller errors, never candidates for the reference fallback.
BatchedGemmResult batched_gemm(std::span<const Matrixf* const> a,
                               std::span<const Matrixf* const> b,
                               std::span<Matrixf* const> c, float alpha,
                               float beta, const PlannerConfig& config = {});

/// One GEMM of a transpose-aware batch: C = alpha * op(A)*op(B) + beta*C.
/// Stored shapes follow BLAS conventions (op == kT means the matrix holds
/// the transpose of the logical operand).
struct GemmEntry {
  const Matrixf* a = nullptr;
  const Matrixf* b = nullptr;
  Matrixf* c = nullptr;
  Op op_a = Op::kN;
  Op op_b = Op::kN;
  /// Fused epilogue chain applied inside the tile store (core/epilogue.hpp);
  /// 0 means plain GEMM. Operands for the chain's ops live in
  /// `epilogue_args` and must satisfy audit_operands (present, correctly
  /// sized, perms bijective). beta must be 0 when the chain permutes.
  int epilogue = 0;
  EpilogueArgs epilogue_args;
};

/// Transpose-aware batched GEMM; each entry may use its own op pair.
BatchedGemmResult batched_gemm(std::span<const GemmEntry> entries,
                               float alpha, float beta,
                               const PlannerConfig& config = {});

}  // namespace ctb
