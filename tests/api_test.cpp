#include <gtest/gtest.h>

#include <set>
#include <algorithm>

#include "core/api.hpp"
#include "core/rf_policy.hpp"
#include "linalg/gemm_ref.hpp"

namespace ctb {
namespace {

Matrixf rand_mat(int r, int c, Rng& rng) {
  Matrixf m(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
  fill_random(m, rng);
  return m;
}

TEST(Defaults, TlpThresholdMatchesPaperOnV100) {
  EXPECT_EQ(default_tlp_threshold(gpu_arch(GpuModel::kV100)), 65536);
}

TEST(Defaults, ThetaIs256) {
  EXPECT_EQ(default_theta(gpu_arch(GpuModel::kV100)), 256);
}

TEST(Defaults, ThresholdScalesWithGpuSize) {
  // Smaller GPUs need fewer threads to fill.
  EXPECT_LT(default_tlp_threshold(gpu_arch(GpuModel::kM60)),
            default_tlp_threshold(gpu_arch(GpuModel::kV100)));
}

TEST(Planner, DerivesThresholdsFromArch) {
  PlannerConfig config;
  config.gpu = GpuModel::kV100;
  const BatchedGemmPlanner planner(config);
  EXPECT_EQ(planner.config().tlp_threshold, 65536);
  EXPECT_EQ(planner.config().theta, 256);
}

TEST(Planner, ExplicitThresholdsRespected) {
  PlannerConfig config;
  config.tlp_threshold = 1234;
  config.theta = 99;
  const BatchedGemmPlanner planner(config);
  EXPECT_EQ(planner.config().tlp_threshold, 1234);
  EXPECT_EQ(planner.config().theta, 99);
}

TEST(Planner, RandomForestPolicyRequiresForest) {
  PlannerConfig config;
  config.policy = BatchingPolicy::kRandomForest;
  EXPECT_THROW(BatchedGemmPlanner{config}, CheckError);
}

TEST(Planner, EmptyBatchThrows) {
  const BatchedGemmPlanner planner{PlannerConfig{}};
  EXPECT_THROW(planner.plan({}), CheckError);
}

class PlannerPolicies : public ::testing::TestWithParam<BatchingPolicy> {};

TEST_P(PlannerPolicies, PlansValidateAndCoverBatch) {
  PlannerConfig config;
  config.policy = GetParam();
  RandomForest forest;
  if (GetParam() == BatchingPolicy::kRandomForest) {
    RfTrainingConfig rf;
    rf.num_cases = 20;
    rf.forest.num_trees = 4;
    rf.ranges.max_batch = 8;
    rf.ranges.max_mn = 128;
    rf.ranges.max_k = 256;
    forest = train_batching_forest(rf);
    config.forest = &forest;
  }
  const BatchedGemmPlanner planner(config);
  const std::vector<GemmDims> dims = {
      {16, 32, 128}, {64, 64, 64}, {256, 256, 64}, {100, 50, 300}};
  const PlanSummary s = planner.plan(dims);
  EXPECT_NO_THROW(validate_plan(s.plan, dims));
  EXPECT_GT(s.plan.num_blocks(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PlannerPolicies,
    ::testing::Values(BatchingPolicy::kThresholdOnly,
                      BatchingPolicy::kBinaryOnly,
                      BatchingPolicy::kAutoOffline,
                      BatchingPolicy::kRandomForest,
                      BatchingPolicy::kTilingOnly));

TEST(Planner, TilingOnlyMeansOneTilePerBlock) {
  PlannerConfig config;
  config.policy = BatchingPolicy::kTilingOnly;
  const BatchedGemmPlanner planner(config);
  const std::vector<GemmDims> dims(8, GemmDims{64, 64, 32});
  const PlanSummary s = planner.plan(dims);
  EXPECT_EQ(s.heuristic, BatchingHeuristic::kNone);
  EXPECT_EQ(s.plan.num_blocks(), s.plan.num_tiles());
}

TEST(Planner, AutoOfflinePicksNoWorseThanEitherHeuristic) {
  PlannerConfig base;
  const std::vector<GemmDims> dims(64, GemmDims{32, 32, 48});
  const GpuArch& arch = gpu_arch(GpuModel::kV100);

  base.policy = BatchingPolicy::kThresholdOnly;
  const double t_thr =
      time_plan(arch, BatchedGemmPlanner(base).plan(dims).plan, dims)
          .time_us;
  base.policy = BatchingPolicy::kBinaryOnly;
  const double t_bin =
      time_plan(arch, BatchedGemmPlanner(base).plan(dims).plan, dims)
          .time_us;
  base.policy = BatchingPolicy::kAutoOffline;
  const double t_auto =
      time_plan(arch, BatchedGemmPlanner(base).plan(dims).plan, dims)
          .time_us;
  EXPECT_LE(t_auto, std::min(t_thr, t_bin) + 1e-9);
}

TEST(Planner, Fp16AutoOfflineSplitKBaselineTimedAtFp16) {
  // The heuristic is chosen from FP32 timings, but the split-K sweep must
  // compare its candidates against the unsplit plan timed at FP16. This
  // unsplit plan simulates in ~110 us at FP32 and ~23 us at FP16; taking
  // the FP32 time as the baseline would wrongly pick a 232-tile split.
  PlannerConfig config;
  config.precision = Precision::kFp16;
  ASSERT_EQ(config.policy, BatchingPolicy::kAutoOffline);
  ASSERT_EQ(config.splitk, SplitKMode::kAuto);
  const std::vector<GemmDims> dims = {{1840, 215, 1221}};
  const PlanSummary s = BatchedGemmPlanner(config).plan(dims);
  EXPECT_FALSE(s.plan.has_split());
  EXPECT_EQ(s.plan.num_tiles(), 116);
  // Identical to the chosen heuristic run as a fixed policy at FP16.
  config.policy = s.heuristic == BatchingHeuristic::kThreshold
                      ? BatchingPolicy::kThresholdOnly
                      : BatchingPolicy::kBinaryOnly;
  EXPECT_TRUE(BatchedGemmPlanner(config).plan(dims).plan == s.plan);
}

TEST(TimePlan, IncludesLaunchOverhead) {
  const std::vector<GemmDims> dims = {{16, 16, 16}};
  const BatchedGemmPlanner planner{PlannerConfig{}};
  const PlanSummary s = planner.plan(dims);
  const GpuArch& arch = gpu_arch(GpuModel::kV100);
  const TimedResult t = time_plan(arch, s.plan, dims);
  EXPECT_GE(t.time_us, arch.kernel_launch_us);
  EXPECT_GT(t.sim.total_flops, 0);
}

TEST(BatchedGemmCall, ComputesCorrectResults) {
  Rng rng(2024);
  const std::vector<GemmDims> dims = {
      {16, 32, 128}, {64, 64, 64}, {100, 40, 56}};
  std::vector<Matrixf> as, bs, cs, refs;
  for (const auto& d : dims) {
    as.push_back(rand_mat(d.m, d.k, rng));
    bs.push_back(rand_mat(d.k, d.n, rng));
    cs.push_back(rand_mat(d.m, d.n, rng));
    refs.push_back(cs.back());
  }
  std::vector<const Matrixf*> a, b;
  std::vector<Matrixf*> c;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    a.push_back(&as[i]);
    b.push_back(&bs[i]);
    c.push_back(&cs[i]);
  }
  const BatchedGemmResult result =
      batched_gemm(a, b, c, 1.5f, 0.25f, PlannerConfig{});
  for (std::size_t i = 0; i < dims.size(); ++i) {
    gemm_naive(as[i], bs[i], refs[i], 1.5f, 0.25f);
    EXPECT_TRUE(allclose(cs[i], refs[i])) << "gemm " << i;
  }
  EXPECT_GT(result.timing.time_us, 0.0);
  EXPECT_GT(result.summary.plan.num_blocks(), 0);
}

TEST(BatchedGemmCall, MismatchedArraysThrow) {
  Matrixf a(4, 4), b(4, 4), c(4, 4);
  const std::vector<const Matrixf*> av{&a};
  const std::vector<const Matrixf*> bv{&b, &b};
  std::vector<Matrixf*> cv{&c};
  EXPECT_THROW(batched_gemm(av, bv, cv, 1.0f, 0.0f), CheckError);
}

TEST(BatchedGemmCall, NullPointerThrows) {
  Matrixf a(4, 4), b(4, 4), c(4, 4);
  const std::vector<const Matrixf*> av{&a};
  const std::vector<const Matrixf*> bv{nullptr};
  std::vector<Matrixf*> cv{&c};
  EXPECT_THROW(batched_gemm(av, bv, cv, 1.0f, 0.0f), CheckError);
}

// ------------------------------------------- degenerate-input contract --
// batched_gemm must reject these with CheckError before writing to any C
// matrix (contract documented in core/api.hpp).

TEST(BatchedGemmCall, EmptyBatchThrows) {
  const std::vector<const Matrixf*> none;
  std::vector<Matrixf*> out;
  EXPECT_THROW(batched_gemm(none, none, out, 1.0f, 0.0f), CheckError);
  const std::vector<GemmEntry> entries;
  EXPECT_THROW(batched_gemm(entries, 1.0f, 0.0f), CheckError);
}

TEST(BatchedGemmCall, ZeroDimThrows) {
  {
    Matrixf a(0, 4), b(4, 4), c(0, 4);  // m == 0
    const std::vector<const Matrixf*> av{&a}, bv{&b};
    std::vector<Matrixf*> cv{&c};
    EXPECT_THROW(batched_gemm(av, bv, cv, 1.0f, 0.0f), CheckError);
  }
  {
    Matrixf a(4, 0), b(0, 4), c(4, 4);  // k == 0
    const std::vector<const Matrixf*> av{&a}, bv{&b};
    std::vector<Matrixf*> cv{&c};
    EXPECT_THROW(batched_gemm(av, bv, cv, 1.0f, 0.0f), CheckError);
  }
}

TEST(BatchedGemmCall, InnerDimMismatchThrows) {
  Matrixf a(4, 8), b(6, 4), c(4, 4);  // a.cols != b.rows
  const std::vector<const Matrixf*> av{&a}, bv{&b};
  std::vector<Matrixf*> cv{&c};
  EXPECT_THROW(batched_gemm(av, bv, cv, 1.0f, 0.0f), CheckError);
}

TEST(BatchedGemmCall, OutputShapeMismatchThrows) {
  Matrixf a(4, 8), b(8, 4), c(4, 5);  // c must be 4x4
  const std::vector<const Matrixf*> av{&a}, bv{&b};
  std::vector<Matrixf*> cv{&c};
  const float before = c(0, 0);
  EXPECT_THROW(batched_gemm(av, bv, cv, 1.0f, 0.0f), CheckError);
  EXPECT_EQ(c(0, 0), before);
}

TEST(BatchedGemmCall, FallbackKnobHappyPathBitIdentical) {
  // With fallback_to_reference enabled and a healthy batch, results are
  // bit-identical to the default path and no degradation is reported.
  Rng rng(77);
  const std::vector<GemmDims> dims = {{32, 48, 64}, {40, 24, 16}};
  std::vector<Matrixf> as, bs, c_plain, c_fallback;
  for (const auto& d : dims) {
    as.push_back(rand_mat(d.m, d.k, rng));
    bs.push_back(rand_mat(d.k, d.n, rng));
    c_plain.push_back(rand_mat(d.m, d.n, rng));
    c_fallback.push_back(c_plain.back());
  }
  std::vector<const Matrixf*> a, b;
  std::vector<Matrixf*> c1, c2;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    a.push_back(&as[i]);
    b.push_back(&bs[i]);
    c1.push_back(&c_plain[i]);
    c2.push_back(&c_fallback[i]);
  }
  const BatchedGemmResult plain =
      batched_gemm(a, b, c1, 1.5f, 0.25f, PlannerConfig{});
  PlannerConfig guarded;
  guarded.fallback_to_reference = true;
  const BatchedGemmResult with_knob =
      batched_gemm(a, b, c2, 1.5f, 0.25f, guarded);
  EXPECT_FALSE(plain.execution.fell_back);
  EXPECT_FALSE(with_knob.execution.fell_back);
  EXPECT_TRUE(with_knob.execution.reason.empty());
  EXPECT_GT(with_knob.timing.time_us, 0.0);
  for (std::size_t i = 0; i < dims.size(); ++i)
    EXPECT_EQ(max_abs_diff(c_plain[i], c_fallback[i]), 0.0f) << "gemm " << i;
}

TEST(PolicyNames, AllDistinct) {
  std::set<std::string> names;
  for (BatchingPolicy p :
       {BatchingPolicy::kThresholdOnly, BatchingPolicy::kBinaryOnly,
        BatchingPolicy::kAutoOffline, BatchingPolicy::kRandomForest,
        BatchingPolicy::kTilingOnly}) {
    names.insert(to_string(p));
  }
  EXPECT_EQ(names.size(), 5u);
}

}  // namespace
}  // namespace ctb
