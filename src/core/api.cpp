#include "core/api.hpp"

#include <algorithm>
#include <string>

#include "core/rf_policy.hpp"
#include "kernels/work_builder.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace ctb {

const char* to_string(BatchingPolicy policy) {
  switch (policy) {
    case BatchingPolicy::kThresholdOnly:
      return "threshold-only";
    case BatchingPolicy::kBinaryOnly:
      return "binary-only";
    case BatchingPolicy::kAutoOffline:
      return "auto-offline";
    case BatchingPolicy::kRandomForest:
      return "random-forest";
    case BatchingPolicy::kTilingOnly:
      return "tiling-only";
  }
  return "?";
}

const char* to_string(SplitKMode mode) {
  switch (mode) {
    case SplitKMode::kAuto:
      return "auto";
    case SplitKMode::kOff:
      return "off";
    case SplitKMode::kForce:
      return "force";
  }
  return "?";
}

long long default_tlp_threshold(const GpuArch& arch) {
  // 0.4 * thread capacity; equals the paper's 65536 on the V100 preset
  // (0.4 * 80 SMs * 2048 threads).
  return static_cast<long long>(0.4 * arch.sm_count *
                                arch.max_threads_per_sm);
}

int default_theta(const GpuArch& arch) {
  (void)arch;  // 256 worked across every architecture the paper evaluated
  return 256;
}

PlannerConfig degraded_fallback_config(const PlannerConfig& config) {
  PlannerConfig fallback = config;
  fallback.policy = BatchingPolicy::kThresholdOnly;
  fallback.forest = nullptr;
  // Split-K candidates need a simulator sweep per slice count — exactly the
  // kind of work a deadline-bounded fallback cannot afford.
  fallback.splitk = SplitKMode::kOff;
  return fallback;
}

BatchedGemmPlanner::BatchedGemmPlanner(PlannerConfig config)
    : config_(config), arch_(gpu_arch(config.gpu)) {
  if (config_.tlp_threshold <= 0)
    config_.tlp_threshold = default_tlp_threshold(arch_);
  if (config_.theta <= 0) config_.theta = default_theta(arch_);
  if (config_.policy == BatchingPolicy::kRandomForest)
    CTB_CHECK_MSG(config_.forest != nullptr && config_.forest->trained(),
                  "random-forest policy requires a trained forest");
}

PlanSummary BatchedGemmPlanner::plan(std::span<const GemmDims> dims) const {
  CTB_CHECK_MSG(!dims.empty(), "empty batch");
  CTB_TEL_SPAN("plan.total");
  if (telemetry::enabled()) {
    // Dynamic name, so no site cache — planning is never the hot path.
    const std::string name =
        std::string("plan.policy.") + to_string(config_.policy);
    telemetry::counter(name.c_str()).add(1);
  }
  PlanSummary summary;

  TilingConfig tiling_config;
  tiling_config.tlp_threshold = config_.tlp_threshold;
  summary.tiling = select_tiling(dims, tiling_config);

  const std::vector<Tile> tiles =
      enumerate_tiles(dims, summary.tiling.per_gemm);
  const int threads = static_cast<int>(summary.tiling.variant);

  BatchingConfig batching_config;
  batching_config.theta = config_.theta;
  batching_config.tlp_threshold = config_.tlp_threshold;

  switch (config_.policy) {
    case BatchingPolicy::kTilingOnly:
      summary.heuristic = BatchingHeuristic::kNone;
      break;
    case BatchingPolicy::kThresholdOnly:
      summary.heuristic = BatchingHeuristic::kThreshold;
      break;
    case BatchingPolicy::kBinaryOnly:
      summary.heuristic = BatchingHeuristic::kBinary;
      break;
    case BatchingPolicy::kRandomForest:
      summary.heuristic = rf_choose(*config_.forest, dims);
      break;
    case BatchingPolicy::kAutoOffline: {
      // Fixed-shape workloads (e.g. DNN training steps) can afford to try
      // both heuristics once and keep the winner (paper Section 5).
      CTB_TEL_SPAN("plan.auto_offline");
      // The heuristic is chosen at FP32 whatever the execution precision:
      // the strategy tables are the paper's FP32 suite.
      const BatchPlan thr =
          batch_threshold(tiles, threads, batching_config);
      const BatchPlan bin = batch_binary(tiles, threads, batching_config);
      const double t_thr =
          time_plan(arch_, thr, dims, Precision::kFp32).time_us;
      const double t_bin =
          time_plan(arch_, bin, dims, Precision::kFp32).time_us;
      summary.heuristic = t_thr <= t_bin ? BatchingHeuristic::kThreshold
                                         : BatchingHeuristic::kBinary;
      if (t_thr <= t_bin)
        CTB_TEL_COUNT("plan.auto.threshold_wins", 1);
      else
        CTB_TEL_COUNT("plan.auto.binary_wins", 1);
      summary.plan = t_thr <= t_bin ? thr : bin;
      CTB_DEBUG("auto-offline: threshold=" << t_thr << "us binary=" << t_bin
                                           << "us -> "
                                           << to_string(summary.heuristic));
      // The split-K sweep times at config_.precision; the winner's time
      // stands in for its unsplit time only when the precisions agree.
      std::optional<double> winner_us;
      if (config_.precision == Precision::kFp32)
        winner_us = std::min(t_thr, t_bin);
      consider_splitk(summary, tiles, threads, batching_config, dims,
                      winner_us);
      CTB_TEL_FLIGHT(kPlanDecision, to_string(summary.heuristic),
                     summary.plan.num_blocks(), summary.plan.num_tiles());
      return summary;
    }
  }
  summary.plan = batch_tiles(summary.heuristic, tiles, threads,
                             batching_config);
  consider_splitk(summary, tiles, threads, batching_config, dims);
  CTB_TEL_FLIGHT(kPlanDecision, to_string(summary.heuristic),
                 summary.plan.num_blocks(), summary.plan.num_tiles());
  return summary;
}

PlanSummary BatchedGemmPlanner::plan(std::span<const GemmDims> dims,
                                     std::span<const int> epilogues) const {
  // Normalize so "no chain anywhere" plans identically to the plain form.
  bool any_epilogue = false;
  for (int e : epilogues) any_epilogue = any_epilogue || e != 0;
  if (!any_epilogue) epilogues = {};
  CTB_CHECK_MSG(epilogues.empty() || epilogues.size() == dims.size(),
                "epilogue stream holds " << epilogues.size()
                                         << " entries for " << dims.size()
                                         << " GEMMs");
  for (std::size_t i = 0; i < epilogues.size(); ++i)
    CTB_CHECK_MSG(epilogue_packed_valid(epilogues[i]),
                  "GEMM " << i << " has malformed epilogue spec "
                          << epilogues[i]);
  PlanSummary summary = plan(dims);
  if (!epilogues.empty())
    summary.plan.epilogue_of_gemm.assign(epilogues.begin(), epilogues.end());
  return summary;
}

void BatchedGemmPlanner::consider_splitk(
    PlanSummary& summary, std::span<const Tile> tiles, int threads,
    const BatchingConfig& batching_config,
    std::span<const GemmDims> dims,
    std::optional<double> unsplit_time_us) const {
  if (config_.splitk == SplitKMode::kOff || config_.max_splitk < 2) return;
  // TLP-scarcity trigger: a plan already launching at least half the TLP
  // threshold's worth of threads fills the machine, so extra split-K blocks
  // would only add fix-up reduction traffic. Mirrors the batching engine's
  // own "merge only while TLP exceeds half the threshold" guard.
  const long long launched =
      static_cast<long long>(summary.plan.num_blocks()) *
      summary.plan.block_threads;
  if (config_.splitk == SplitKMode::kAuto &&
      launched >= config_.tlp_threshold / 2)
    return;
  CTB_TEL_SPAN("plan.splitk.consider");
  const double unsplit_us =
      unsplit_time_us
          ? *unsplit_time_us
          : time_plan(arch_, summary.plan, dims, config_.precision).time_us;
  BatchPlan best_split;
  double best_split_us = 0.0;
  std::size_t last_size = tiles.size();
  for (int slices = 2; slices <= config_.max_splitk; slices *= 2) {
    const std::vector<Tile> split = split_tiles_k(tiles, slices);
    // Sizes stop growing once every tile is down to one BK step per slice;
    // nothing new to evaluate past that point.
    if (split.size() == last_size) break;
    last_size = split.size();
    BatchPlan candidate =
        batch_tiles(summary.heuristic, split, threads, batching_config);
    CTB_TEL_COUNT("plan.splitk.considered", 1);
    const double t =
        time_plan(arch_, candidate, dims, config_.precision).time_us;
    if (best_split.num_tiles() == 0 || t < best_split_us) {
      best_split = std::move(candidate);
      best_split_us = t;
    }
  }
  if (best_split.num_tiles() == 0) return;  // K loops too short to split
  if (config_.splitk != SplitKMode::kForce && best_split_us >= unsplit_us) {
    CTB_TEL_FLIGHT(kSplitK, "rejected", best_split.num_tiles(),
                   summary.plan.num_tiles());
    return;
  }
  CTB_TEL_COUNT("plan.splitk.chosen", 1);
  CTB_TEL_FLIGHT(kSplitK, "chosen", best_split.num_tiles(),
                 summary.plan.num_tiles());
  CTB_DEBUG("split-K: unsplit=" << unsplit_us << "us split=" << best_split_us
                                << "us (" << best_split.num_tiles()
                                << " tiles) -> split");
  summary.plan = std::move(best_split);
}

TimedResult time_plan(const GpuArch& arch, const BatchPlan& plan,
                      std::span<const GemmDims> dims, Precision precision) {
  TimedResult result;
  const KernelWork work = work_from_plan(plan, dims, precision);
  result.sim = simulate_kernel(arch, work);
  result.time_us = result.sim.makespan_us + arch.kernel_launch_us;
  return result;
}

void execute_plan(const BatchPlan& plan, std::span<const GemmOperands> batch,
                  float alpha, float beta) {
  run_batched_plan(plan, batch, alpha, beta);
}

ExecutionReport try_execute_plan(const BatchPlan& plan,
                                 std::span<const GemmOperands> batch,
                                 float alpha, float beta) {
  // Operand problems throw through: with no trustworthy buffers there is
  // nothing correct to fall back to.
  audit_operands(batch);
  ExecutionReport report;
  try {
    std::vector<GemmDims> dims(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) dims[i] = batch[i].dims;
    validate_plan(plan, dims);
  } catch (const CheckError& e) {
    report.fell_back = true;
    report.reason = e.what();
    CTB_WARN("plan rejected, degrading to reference GEMM: " << e.what());
    CTB_TEL_COUNT("exec.fallback", 1);
    CTB_TEL_FLIGHT(kGuardReject, "validate_plan",
                   static_cast<std::int64_t>(batch.size()), 0);
    CTB_TEL_FLIGHT(kFallback, "reference_gemm",
                   static_cast<std::int64_t>(batch.size()), 0);
    telemetry::flight_autodump("guard_reject");
    CTB_TEL_SPAN("exec.reference_fallback");
    for (const GemmOperands& g : batch) reference_gemm(g, alpha, beta);
    return report;
  }
  run_batched_plan(plan, batch, alpha, beta);
  return report;
}

BatchedGemmResult batched_gemm(std::span<const Matrixf* const> a,
                               std::span<const Matrixf* const> b,
                               std::span<Matrixf* const> c, float alpha,
                               float beta, const PlannerConfig& config) {
  CTB_CHECK_MSG(a.size() == b.size() && b.size() == c.size(),
                "operand array sizes differ");
  std::vector<GemmEntry> entries(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    entries[i].a = a[i];
    entries[i].b = b[i];
    entries[i].c = c[i];
  }
  return batched_gemm(entries, alpha, beta, config);
}

BatchedGemmResult batched_gemm(std::span<const GemmEntry> entries,
                               float alpha, float beta,
                               const PlannerConfig& config) {
  CTB_CHECK_MSG(!entries.empty(), "empty batch");

  std::vector<GemmDims> dims(entries.size());
  std::vector<GemmOperands> ops(entries.size());
  std::vector<int> epilogues(entries.size(), 0);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const GemmEntry& e = entries[i];
    CTB_CHECK_MSG(e.a != nullptr && e.b != nullptr && e.c != nullptr,
                  "GEMM " << i << " has a null operand matrix");
    ops[i] = operands(*e.a, *e.b, *e.c, e.op_a, e.op_b);
    ops[i].precision = config.precision;
    ops[i].epilogue = e.epilogue;
    ops[i].epilogue_args = e.epilogue_args;
    epilogues[i] = e.epilogue;
    dims[i] = ops[i].dims;
    CTB_CHECK_MSG(dims[i].valid(), "GEMM " << i << " has degenerate dims "
                                           << dims[i].m << 'x' << dims[i].n
                                           << 'x' << dims[i].k);
  }

  const BatchedGemmPlanner planner(config);
  BatchedGemmResult result;
  result.summary = planner.plan(dims, epilogues);
  if (config.fallback_to_reference) {
    result.execution =
        try_execute_plan(result.summary.plan, ops, alpha, beta);
    if (result.execution.fell_back) return result;
  } else {
    execute_plan(result.summary.plan, ops, alpha, beta);
  }
  result.timing = time_plan(planner.arch(), result.summary.plan, dims,
                            config.precision);
  return result;
}

}  // namespace ctb
