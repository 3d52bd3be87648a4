// Determinism of split-K execution (DESIGN.md §11).
//
// Split-K partitions a tile's K loop into BK-aligned slices planned as
// separate blocks; run_batched_plan runs each coordinate whole, as one
// ascending (k0, p) accumulation chain in the block holding its
// k_begin == 0 slice (the left spine of the reduction tree), so the result
// is BITWISE identical to the unsplit execution. Every case below goes
// through one harness: the unsplit plan, run serially under the scalar
// ISA, is the reference, and the split plan must match it under parallel_for
// at 1/2/4/8 threads. The inputs cover hand-built plans at several slice
// counts (including slices sitting out of order), every Table-2 strategy,
// fp32 and fp16, N/T transpose variants, the gather (implicit-GEMM) path,
// mixed batches with single-step K, planner-forced splits, and every SIMD
// ISA reachable on the host.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "dnn/implicit_gemm.hpp"
#include "kernels/functional.hpp"
#include "kernels/simd.hpp"
#include "util/parallel.hpp"

namespace ctb {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};
constexpr int kSliceCounts[] = {2, 3, 8};

Matrixf rand_mat(int r, int c, Rng& rng) {
  Matrixf m(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
  fill_random(m, rng);
  return m;
}

void expect_bitwise_equal(const Matrixf& unsplit, const Matrixf& split,
                          const std::string& what) {
  ASSERT_EQ(unsplit.rows(), split.rows());
  ASSERT_EQ(unsplit.cols(), split.cols());
  const auto u = unsplit.flat();
  const auto s = split.flat();
  for (std::size_t i = 0; i < u.size(); ++i)
    ASSERT_EQ(u[i], s[i]) << what << " diverges at flat index " << i;
}

struct BatchCase {
  std::vector<Matrixf> a, b, c;
  std::vector<GemmOperands> ops;
};

/// Random operands for `dims`; `op_a`/`op_b` = kT stores that operand
/// transposed (A as K x M, B as N x K).
BatchCase make_batch(std::span<const GemmDims> dims, std::uint64_t seed,
                     Precision precision = Precision::kFp32,
                     Op op_a = Op::kN, Op op_b = Op::kN) {
  BatchCase bc;
  Rng rng(seed);
  for (const auto& d : dims) {
    bc.a.push_back(op_a == Op::kN ? rand_mat(d.m, d.k, rng)
                                  : rand_mat(d.k, d.m, rng));
    bc.b.push_back(op_b == Op::kN ? rand_mat(d.k, d.n, rng)
                                  : rand_mat(d.n, d.k, rng));
    bc.c.push_back(rand_mat(d.m, d.n, rng));
  }
  for (std::size_t i = 0; i < dims.size(); ++i) {
    bc.ops.push_back(operands(bc.a[i], bc.b[i], bc.c[i], op_a, op_b));
    bc.ops.back().precision = precision;
  }
  return bc;
}

/// Hand-built plans over one uniform strategy: every tile in its own block,
/// optionally split into `slices` K ranges. Deterministic and independent of
/// the planner, so the executor contract is tested in isolation.
BatchPlan uniform_plan(std::span<const GemmDims> dims,
                       const TilingStrategy& s, int slices) {
  const std::vector<const TilingStrategy*> strategies(dims.size(), &s);
  std::vector<Tile> tiles = enumerate_tiles(dims, strategies);
  if (slices > 1) tiles = split_tiles_k(tiles, slices);
  std::vector<std::vector<Tile>> blocks;
  for (const Tile& t : tiles) blocks.push_back({t});
  return build_plan(blocks, s.threads);
}

/// The split-K harness: `unsplit` runs once, serially under the scalar ISA,
/// on operands from `make`; `split` then runs under `isa` at every thread
/// count on fresh operands from `make`, and every GEMM's C must match the
/// reference bitwise.
template <typename Make>
void expect_split_plan_bit_exact(const BatchPlan& unsplit,
                                 const BatchPlan& split, Make&& make,
                                 float alpha, float beta,
                                 const std::string& what,
                                 SimdIsa isa = active_simd_isa()) {
  ASSERT_TRUE(split.has_split()) << what;
  ASSERT_FALSE(unsplit.has_split()) << what;
  BatchCase reference = make();
  {
    ScopedSimdIsa scalar(SimdIsa::kScalar);
    ScopedParallelThreads serial(1);
    run_batched_plan(unsplit, reference.ops, alpha, beta);
  }
  ScopedSimdIsa isa_guard(isa);
  for (int threads : kThreadCounts) {
    BatchCase split_case = make();
    ScopedParallelThreads guard(threads);
    run_batched_plan(split, split_case.ops, alpha, beta);
    for (std::size_t i = 0; i < reference.c.size(); ++i)
      expect_bitwise_equal(reference.c[i], split_case.c[i],
                           what + " isa=" + simd_isa_name(active_simd_isa()) +
                               " gemm " + std::to_string(i) + " threads=" +
                               std::to_string(threads));
  }
}

/// A hand-built uniform split of `dims` into `slices` K ranges under `s`,
/// checked against the unsplit plan through the harness.
template <typename Make>
void expect_uniform_split_bit_exact(std::span<const GemmDims> dims,
                                    const TilingStrategy& s, int slices,
                                    Make&& make, float alpha, float beta,
                                    const std::string& what,
                                    SimdIsa isa = active_simd_isa()) {
  const BatchPlan split = uniform_plan(dims, s, slices);
  validate_plan(split, dims);
  expect_split_plan_bit_exact(uniform_plan(dims, s, 1), split, make, alpha,
                              beta, what, isa);
}

// --------------------------------------------------------- batched plan --

TEST(SplitKBatchedPlan, HandBuiltPlanBitExact) {
  const auto& s = batched_strategy(TileShape::kMedium, ThreadVariant::k256);
  const std::vector<GemmDims> dims = {{70, 45, 77}, {64, 64, 160}, {33, 33, 24}};
  const BatchPlan unsplit = uniform_plan(dims, s, 1);
  const BatchPlan split = uniform_plan(dims, s, 4);
  ASSERT_GT(split.num_blocks(), unsplit.num_blocks());
  validate_plan(split, dims);

  for (const Precision precision : {Precision::kFp32, Precision::kFp16})
    expect_split_plan_bit_exact(
        unsplit, split, [&] { return make_batch(dims, 7, precision); }, 2.0f,
        -1.0f,
        std::string("plan ") +
            (precision == Precision::kFp16 ? "fp16" : "fp32"));
}

// Slice-count sweep on a GEMM ragged in every dimension: K % BK != 0 puts
// the zero-padded tail step inside the last slice.
TEST(SplitKBatchedPlan, SliceCountSweepBitExact) {
  const auto& s = batched_strategy(TileShape::kMedium, ThreadVariant::k256);
  const std::vector<GemmDims> dims = {{70, 45, 77}};
  for (int slices : kSliceCounts)
    expect_uniform_split_bit_exact(
        dims, s, slices, [&] { return make_batch(dims, 42); }, 1.5f, -0.5f,
        "slices=" + std::to_string(slices));
}

class SplitKAllStrategies : public ::testing::TestWithParam<int> {};

TEST_P(SplitKAllStrategies, BatchedPlanBitExact) {
  const TilingStrategy& s = batched_strategy_by_id(GetParam());
  const std::vector<GemmDims> dims = {
      {2 * s.by + 3, s.bx + 5, 6 * s.bk + 3}};
  expect_uniform_split_bit_exact(
      dims, s, 4, [&] { return make_batch(dims, 51); }, 1.0f, 0.25f,
      "all-strategies " + s.name());
}

INSTANTIATE_TEST_SUITE_P(Ids, SplitKAllStrategies, ::testing::Range(0, 12));

TEST(SplitKBatchedPlan, Fp16BitExact) {
  const auto& s = batched_strategy(TileShape::kLarge, ThreadVariant::k128);
  const std::vector<GemmDims> dims = {{90, 130, 100}};
  expect_uniform_split_bit_exact(
      dims, s, 4, [&] { return make_batch(dims, 99, Precision::kFp16); },
      1.0f, 0.5f, "fp16");
}

TEST(SplitKBatchedPlan, TransposeVariantsBitExact) {
  const auto& s = batched_strategy(TileShape::kMedium, ThreadVariant::k256);
  const std::vector<GemmDims> dims = {{70, 45, 100}};
  for (const Op op_a : {Op::kN, Op::kT})
    for (const Op op_b : {Op::kN, Op::kT})
      expect_uniform_split_bit_exact(
          dims, s, 4,
          [&] { return make_batch(dims, 77, Precision::kFp32, op_a, op_b); },
          1.0f, 0.25f,
          std::string("transpose op_a=") + to_string(op_a) +
              " op_b=" + to_string(op_b));
}

// The gather (implicit-GEMM) path: B is a conv gather, so a split
// coordinate's chain reads the conv input, not a B matrix, at every K step.
TEST(SplitKBatchedPlan, GatherPathBitExact) {
  ConvShape shape;
  shape.name = "splitk_conv";
  shape.in_c = 7;
  shape.out_c = 33;
  shape.kernel = 3;
  shape.stride = 1;
  shape.pad = 1;
  shape.in_h = 9;
  shape.in_w = 10;
  Rng rng(31);
  const Tensor4 input = [&] {
    Tensor4 t(2, shape.in_c, shape.in_h, shape.in_w);
    fill_random(t, rng);
    return t;
  }();
  const Matrixf filters = random_filters(shape, rng);
  const std::vector<GemmDims> dims = {shape.gemm_dims(input.n())};
  const auto& s = batched_strategy(TileShape::kSmall, ThreadVariant::k128);
  expect_uniform_split_bit_exact(
      dims, s, 3,
      [&] {
        BatchCase bc;
        bc.c.emplace_back(static_cast<std::size_t>(dims[0].m),
                          static_cast<std::size_t>(dims[0].n));
        bc.ops.push_back(
            implicit_conv_operands(shape, input, filters, bc.c[0]));
        return bc;
      },
      1.0f, 0.0f, "gather");
}

// Mixed sizes in one plan, including K = 3 (a single BK step, which
// split_tiles_k leaves whole) and ragged Ks.
TEST(SplitKBatchedPlan, MixedSizesBitExact) {
  const auto& s = batched_strategy(TileShape::kMedium, ThreadVariant::k128);
  const std::vector<GemmDims> dims = {
      {33, 65, 19}, {128, 128, 64}, {100, 40, 77}, {16, 16, 3}};
  expect_uniform_split_bit_exact(
      dims, s, 4, [&] { return make_batch(dims, 123); }, 1.25f, 0.5f,
      "mixed");
}

// run_batched_plan runs a split coordinate whole in the block that holds
// its k_begin == 0 (seed) slice; continuation slices are no-ops wherever
// they sit. This plan puts every continuation slice in an EARLIER block
// than its seed: the leading blocks hold continuation slices only, and one
// block mixes continuations with a seed placed after them. Running a slice
// where it sits, or skipping the wrong one, would diverge from the unsplit
// plan.
TEST(SplitKBatchedPlan, SeedAfterContinuationsBitExact) {
  const auto& s = batched_strategy(TileShape::kMedium, ThreadVariant::k256);
  const std::vector<GemmDims> dims = {{70, 45, 77}, {64, 64, 160}, {33, 33, 24}};
  const std::vector<const TilingStrategy*> strategies(dims.size(), &s);
  std::vector<Tile> seeds, continuations;
  for (const Tile& t : split_tiles_k(enumerate_tiles(dims, strategies), 4))
    (t.k_begin == 0 ? seeds : continuations).push_back(t);
  ASSERT_FALSE(continuations.empty());

  // Continuations in descending K order, three per block; the last of those
  // blocks also takes the first seed, every other seed follows alone.
  std::reverse(continuations.begin(), continuations.end());
  std::vector<std::vector<Tile>> blocks;
  for (std::size_t i = 0; i < continuations.size(); i += 3)
    blocks.emplace_back(
        continuations.begin() + static_cast<std::ptrdiff_t>(i),
        continuations.begin() + static_cast<std::ptrdiff_t>(
                                    std::min(i + 3, continuations.size())));
  ASSERT_GT(blocks.size(), 1u);
  blocks.back().push_back(seeds.front());
  for (std::size_t i = 1; i < seeds.size(); ++i) blocks.push_back({seeds[i]});

  BatchPlan split = build_plan(blocks, s.threads);
  BatchPlan unsplit = uniform_plan(dims, s, 1);
  ASSERT_TRUE(split.has_split());
  validate_plan(split, dims);
  for (int t = split.tile_offsets[0]; t < split.tile_offsets[1]; ++t)
    ASSERT_NE(split.k_begin[static_cast<std::size_t>(t)], 0)
        << "block 0 must hold continuation slices only";

  std::vector<std::vector<float>> bias(dims.size());
  Rng rng(5);
  for (std::size_t i = 0; i < dims.size(); ++i) {
    bias[i].resize(static_cast<std::size_t>(dims[i].m));
    for (float& v : bias[i])
      v = static_cast<float>(rng.uniform_int(-64, 64)) / 16.0f;
  }
  const int bias_relu =
      epilogue_push(epilogue_push(0, EpilogueOp::kBias), EpilogueOp::kRelu);
  for (const int epilogue : {0, bias_relu}) {
    split.epilogue_of_gemm.assign(epilogue != 0 ? dims.size() : 0, epilogue);
    unsplit.epilogue_of_gemm = split.epilogue_of_gemm;
    for (const Precision precision : {Precision::kFp32, Precision::kFp16}) {
      const std::string what =
          std::string(precision == Precision::kFp16 ? "fp16" : "fp32") +
          (epilogue != 0 ? " bias+relu" : " plain");
      auto make = [&] {
        BatchCase bc = make_batch(dims, 13, precision);
        for (std::size_t i = 0; epilogue != 0 && i < dims.size(); ++i) {
          bc.ops[i].epilogue = epilogue;
          bc.ops[i].epilogue_args.bias = bias[i].data();
          bc.ops[i].epilogue_args.bias_len = dims[i].m;
        }
        return bc;
      };
      expect_split_plan_bit_exact(unsplit, split, make, 1.5f, 0.5f,
                                  "seed-last " + what);
    }
  }
}

// The planner's split-K axis end to end: kForce produces a split plan for a
// TLP-scarce tall-skinny batch with strictly more blocks, and executing it
// matches the kOff plan bitwise at every thread count.
TEST(SplitKBatchedPlan, PlannerForcedSplitBitExact) {
  const std::vector<GemmDims> dims = {{512, 64, 1024}, {384, 64, 768}};
  PlannerConfig off;
  off.splitk = SplitKMode::kOff;
  const PlanSummary unsplit = BatchedGemmPlanner(off).plan(dims);
  ASSERT_FALSE(unsplit.plan.has_split());

  PlannerConfig force;
  force.splitk = SplitKMode::kForce;
  const PlanSummary split = BatchedGemmPlanner(force).plan(dims);
  ASSERT_TRUE(split.plan.has_split());
  validate_plan(split.plan, dims);
  EXPECT_GT(split.plan.num_blocks(), unsplit.plan.num_blocks());

  expect_split_plan_bit_exact(
      unsplit.plan, split.plan, [&] { return make_batch(dims, 91); }, 1.0f,
      0.5f, "planner-force");
}

// The auto trigger: a TLP-scarce tall-skinny batch may split (and did, on
// the quick-suite workload this mirrors), a machine-filling batch must not.
TEST(SplitKBatchedPlan, AutoTriggerRespectsTlpScarcity) {
  PlannerConfig config;  // kAuto
  const std::vector<GemmDims> plenty(64, GemmDims{256, 256, 64});
  const PlanSummary filled = BatchedGemmPlanner(config).plan(plenty);
  EXPECT_FALSE(filled.plan.has_split());
  // A scarce batch stays correct whether or not the simulator picks split.
  const std::vector<GemmDims> scarce = {{512, 64, 1024}};
  const PlanSummary summary = BatchedGemmPlanner(config).plan(scarce);
  validate_plan(summary.plan, scarce);
  auto reference = make_batch(scarce, 17);
  {
    ScopedParallelThreads guard(1);
    reference_gemm(reference.ops[0], 1.0f, 0.0f);
  }
  auto planned = make_batch(scarce, 17);
  {
    ScopedParallelThreads guard(4);
    run_batched_plan(summary.plan, planned.ops, 1.0f, 0.0f);
  }
  expect_bitwise_equal(reference.c[0], planned.c[0], "auto-trigger");
}

// ------------------------------------------------------------ SIMD ISAs --

// Every ISA up to the host's capability: requesting more clamps, so each
// entry genuinely dispatches a different tile-loop table.
std::vector<SimdIsa> runnable_isas() {
  std::vector<SimdIsa> isas = {SimdIsa::kScalar};
  for (SimdIsa isa : {SimdIsa::kNeon, SimdIsa::kAvx2, SimdIsa::kAvx512})
    if (static_cast<int>(isa) <= static_cast<int>(detected_simd_isa()))
      isas.push_back(isa);
  return isas;
}

TEST(SplitKSimd, IsaSweepBitExact) {
  const auto& s = batched_strategy(TileShape::kMedium, ThreadVariant::k256);
  const std::vector<GemmDims> dims = {{70, 45, 96}, {64, 64, 160}};
  for (SimdIsa isa : runnable_isas())
    expect_uniform_split_bit_exact(
        dims, s, 4, [&] { return make_batch(dims, 29); }, 1.5f, 0.25f,
        "isa-sweep", isa);
}

// Cross-ISA at the deepest split: eight slices under the host's best ISA
// equal the scalar unsplit result — the SIMD determinism guarantee
// (DESIGN.md §6) composed with the one-chain-per-coordinate rule.
TEST(SplitKSimd, BestIsaSplitMatchesScalarUnsplit) {
  const auto& s = batched_strategy(TileShape::kLarge, ThreadVariant::k256);
  const std::vector<GemmDims> dims = {{130, 70, 200}};
  expect_uniform_split_bit_exact(
      dims, s, 8, [&] { return make_batch(dims, 67); }, 1.0f, 0.0f,
      "best-isa-vs-scalar", detected_simd_isa());
}

}  // namespace
}  // namespace ctb
