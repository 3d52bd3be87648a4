// Specialized packed microkernels (kernels/microkernel.hpp + packing.hpp):
// every Table-2 strategy id must resolve to a compile-time kernel, packed
// panels must reproduce the exact guarded staged values (transpose, fp16
// rounding, implicit-GEMM gather, zero padding), and the specialized path
// must be bit-identical to the generic executor for edge and interior
// tiles across all executors. ScopedPackArenaBudget(0) is the lever that
// forces the generic unpacked path for the A/B comparisons.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "kernels/functional.hpp"
#include "kernels/microkernel.hpp"
#include "kernels/packing.hpp"
#include "telemetry/telemetry.hpp"
#include "util/parallel.hpp"

namespace ctb {
namespace {

Matrixf rand_mat(int r, int c, Rng& rng) {
  Matrixf m(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
  fill_random(m, rng);
  return m;
}

void expect_bitwise_equal(const Matrixf& packed, const Matrixf& generic,
                          const std::string& what) {
  ASSERT_EQ(packed.rows(), generic.rows());
  ASSERT_EQ(packed.cols(), generic.cols());
  const auto p = packed.flat();
  const auto g = generic.flat();
  for (std::size_t i = 0; i < p.size(); ++i) {
    ASSERT_EQ(p[i], g[i]) << what << " diverges at flat index " << i;
  }
}

// One GEMM case owning its operand storage; op/precision/gather-aware.
struct GemmCase {
  Matrixf a, b, c;
  GemmOperands ops;

  GemmCase(const GemmDims& d, Op op_a, Op op_b, Precision prec, bool gather,
           std::uint64_t seed) {
    Rng rng(seed);
    a = op_a == Op::kN ? rand_mat(d.m, d.k, rng) : rand_mat(d.k, d.m, rng);
    b = op_b == Op::kN ? rand_mat(d.k, d.n, rng) : rand_mat(d.n, d.k, rng);
    c = rand_mat(d.m, d.n, rng);
    ops = operands(a, b, c, op_a, op_b);
    ops.precision = prec;
    if (gather) {
      // Implicit-GEMM style: B values come from a pure function of (k, j)
      // instead of materialized storage.
      const float* data = b.data();
      const int n = d.n;
      ops.b = nullptr;
      ops.b_gather = [data, n, op_b, k = d.k](int kk, int j) {
        return op_b == Op::kN
                   ? data[static_cast<std::size_t>(kk) * n + j]
                   : data[static_cast<std::size_t>(j) * k + kk];
      };
    }
  }
};

// Ragged dims relative to a strategy: interior tiles plus an edge tile in
// every direction, K not a multiple of BK.
GemmDims ragged_dims(const TilingStrategy& s) {
  return GemmDims{2 * s.by + 3, 2 * s.bx + 5, 2 * s.bk + 3};
}

// Runs `run` twice on fresh copies — packed/specialized (default budget)
// and generic (budget 0) — and asserts bitwise-identical C.
template <typename MakeCase, typename Run>
void expect_specialized_matches_generic(MakeCase&& make, Run&& run,
                                        const std::string& what) {
  auto packed_case = make();
  run(packed_case);
  auto generic_case = make();
  {
    ScopedPackArenaBudget budget(0);
    run(generic_case);
  }
  expect_bitwise_equal(packed_case.c, generic_case.c, what);
}

TEST(MicrokernelDispatch, EveryTable2IdResolvesToSpecializedKernel) {
  for (int id = 0; id < 12; ++id) {
    const TilingStrategy& s = batched_strategy_by_id(id);
    EXPECT_NE(microkernel_for_id(id), nullptr) << s.name();
    EXPECT_EQ(microkernel_for_id(id), microkernel_for(s)) << s.name();
  }
  EXPECT_EQ(microkernel_for_id(-1), nullptr);
  EXPECT_EQ(microkernel_for_id(12), nullptr);
}

TEST(MicrokernelDispatch, Table1SuiteResolvesByGeometry) {
  for (const TilingStrategy& s : single_gemm_strategies())
    EXPECT_NE(microkernel_for(s), nullptr) << s.name();
}

TEST(MicrokernelDispatch, UnknownGeometryFallsBackToNull) {
  TilingStrategy s = batched_strategy_by_id(0);
  s.bk = 4;  // no strategy table carries BK != 8
  EXPECT_EQ(microkernel_for(s), nullptr);
  s = batched_strategy_by_id(2);
  s.sub_x = 8;  // geometry not in any table
  s.bk = 8;
  EXPECT_EQ(microkernel_for(s), nullptr);
}

// Leaves freed heap blocks of `a_floats` and `b_floats` NaNs behind, so the
// panel buffers a following pack_gemm allocates (same sizes, same order)
// likely start out NaN rather than as fresh zero pages: a padding element
// the packing pass fails to write then fails the comparison instead of
// passing by luck.
void poison_heap(std::size_t a_floats, std::size_t b_floats) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  auto* a = new float[a_floats];
  auto* b = new float[b_floats];
  std::fill(a, a + a_floats, nan);
  std::fill(b, b + b_floats, nan);
  // Keeps the fills from being dropped as dead stores ahead of delete.
  asm volatile("" : : "r"(a), "r"(b) : "memory");
  delete[] b;
  delete[] a;
}

std::uint32_t bits(float v) { return std::bit_cast<std::uint32_t>(v); }

// The packed panel blocks must hold exactly the values the guarded staging
// produces — including the zero padding past M/N/K edges, fp16 rounding and
// the gather — bit for bit, on both the bulk fp32 paths and the staged
// per-element path.
TEST(Packing, PanelsReproduceStagedValuesIncludingPadding) {
  for (int id = 0; id < 12; ++id) {
    const TilingStrategy& s = batched_strategy_by_id(id);
    const GemmDims exact{2 * s.by, 2 * s.bx, 2 * s.bk};
    for (const GemmDims& d : {ragged_dims(s), exact}) {
      for (Precision prec : {Precision::kFp32, Precision::kFp16}) {
        for (Op op_a : {Op::kN, Op::kT}) {
          for (Op op_b : {Op::kN, Op::kT}) {
            for (bool gather : {false, true}) {
              const GemmCase gc(d, op_a, op_b, prec, gather, 77 + id);
              const std::string what =
                  s.name() + " " + std::to_string(d.m) + "x" +
                  std::to_string(d.n) + "x" + std::to_string(d.k) +
                  (prec == Precision::kFp16 ? " fp16" : " fp32") +
                  " op_a=" + to_string(op_a) + " op_b=" + to_string(op_b) +
                  (gather ? " gather" : "");
              const std::size_t steps = (d.k + s.bk - 1) / s.bk;
              poison_heap((d.m + s.by - 1) / s.by * steps * s.by * s.bk,
                          (d.n + s.bx - 1) / s.bx * steps * s.bk * s.bx);
              const PackedGemm pk = pack_gemm(s, gc.ops);
              ASSERT_EQ(pk.ty_count, (d.m + s.by - 1) / s.by) << what;
              ASSERT_EQ(pk.tx_count, (d.n + s.bx - 1) / s.bx) << what;
              ASSERT_EQ(pk.nsteps, (d.k + s.bk - 1) / s.bk) << what;
              for (int ty = 0; ty < pk.ty_count; ++ty) {
                const float* panel = pk.a_panel(ty);
                for (int step = 0; step < pk.nsteps; ++step)
                  for (int i = 0; i < s.by; ++i)
                    for (int p = 0; p < s.bk; ++p) {
                      const float got = panel[(step * s.by + i) * s.bk + p];
                      const float want = staged_a_value(
                          gc.ops, ty * s.by + i, step * s.bk + p);
                      if (bits(got) != bits(want))
                        FAIL() << what << ": A panel " << ty << " step "
                               << step << " (" << i << ", " << p << ") holds "
                               << got << ", staged " << want;
                    }
              }
              for (int tx = 0; tx < pk.tx_count; ++tx) {
                const float* panel = pk.b_panel(tx);
                for (int step = 0; step < pk.nsteps; ++step)
                  for (int p = 0; p < s.bk; ++p)
                    for (int j = 0; j < s.bx; ++j) {
                      const float got = panel[(step * s.bk + p) * s.bx + j];
                      const float want = staged_b_value(
                          gc.ops, step * s.bk + p, tx * s.bx + j);
                      if (bits(got) != bits(want))
                        FAIL() << what << ": B panel " << tx << " step "
                               << step << " (" << p << ", " << j << ") holds "
                               << got << ", staged " << want;
                    }
              }
            }
          }
        }
      }
    }
  }
}

TEST(Packing, FootprintMatchesAllocation) {
  const TilingStrategy& s = batched_strategy_by_id(10);  // huge/128
  const GemmDims d{200, 150, 100};
  const GemmCase gc(d, Op::kN, Op::kN, Precision::kFp32, false, 3);
  const PackedGemm pk = pack_gemm(s, gc.ops);
  EXPECT_EQ(pk.bytes(), pack_footprint_bytes(s, d));
}

// Core bit-exactness sweep: all 12 Table-2 strategies x {fp32, fp16} x
// {kN, kT} on both operands x implicit gather, edge tiles included, with a
// non-trivial alpha/beta epilogue.
TEST(Microkernel, SpecializedMatchesGenericAllStrategies) {
  for (int id = 0; id < 12; ++id) {
    const TilingStrategy& s = batched_strategy_by_id(id);
    const GemmDims d = ragged_dims(s);
    for (Precision prec : {Precision::kFp32, Precision::kFp16}) {
      for (Op op_a : {Op::kN, Op::kT}) {
        for (Op op_b : {Op::kN, Op::kT}) {
          expect_specialized_matches_generic(
              [&] { return GemmCase(d, op_a, op_b, prec, false, 100 + id); },
              [&](GemmCase& gc) {
                run_single_gemm(s, gc.ops, 1.25f, 0.5f);
              },
              s.name() + (prec == Precision::kFp16 ? "/fp16" : "/fp32") +
                  "/op_a=" + to_string(op_a) + "/op_b=" + to_string(op_b));
        }
      }
      expect_specialized_matches_generic(
          [&] { return GemmCase(d, Op::kN, Op::kN, prec, true, 200 + id); },
          [&](GemmCase& gc) { run_single_gemm(s, gc.ops, 1.0f, 0.0f); },
          s.name() + "/gather");
    }
  }
}

// Dims exact multiples of the tile: every tile takes the full-tile fast
// path (no edge guards). Also pins beta == 0 (prior skipped entirely).
TEST(Microkernel, FullTileFastPathBitExact) {
  for (int id : {0, 5, 11}) {
    const TilingStrategy& s = batched_strategy_by_id(id);
    const GemmDims d{2 * s.by, 2 * s.bx, 3 * s.bk};
    expect_specialized_matches_generic(
        [&] { return GemmCase(d, Op::kN, Op::kN, Precision::kFp32, false,
                              300 + id); },
        [&](GemmCase& gc) { run_single_gemm(s, gc.ops, 1.0f, 0.0f); },
        s.name() + "/full-tile");
  }
}

TEST(Microkernel, Table1SingleGemmSuiteBitExact) {
  for (const TilingStrategy& s : single_gemm_strategies()) {
    const GemmDims d = ragged_dims(s);
    expect_specialized_matches_generic(
        [&] { return GemmCase(d, Op::kN, Op::kN, Precision::kFp32, false,
                              400); },
        [&](GemmCase& gc) { run_single_gemm(s, gc.ops, 2.0f, 1.0f); },
        "table1/" + s.name());
  }
}

// Batch case for the vbatch / batched-plan executors.
struct BatchCase {
  std::vector<GemmCase> gemms;
  std::vector<GemmOperands> ops;

  explicit BatchCase(std::span<const GemmDims> dims, std::uint64_t seed,
                     Precision prec = Precision::kFp32) {
    for (std::size_t i = 0; i < dims.size(); ++i)
      gemms.emplace_back(dims[i], Op::kN, Op::kN, prec, false, seed + 10 * i);
    for (auto& g : gemms) ops.push_back(g.ops);
  }
};

const std::vector<GemmDims>& ragged_batch() {
  static const std::vector<GemmDims> dims = {
      {33, 65, 19}, {128, 128, 64},  {100, 40, 77},
      {16, 16, 3},  {129, 257, 100}, {5, 7, 11},
  };
  return dims;
}

TEST(Microkernel, VbatchSpecializedBitExact) {
  for (auto shape : {TileShape::kSmall, TileShape::kLarge}) {
    const TilingStrategy& s = single_gemm_strategy(shape);
    auto packed_case = BatchCase(ragged_batch(), 500);
    run_vbatch(s, packed_case.ops, 1.0f, 0.5f);
    auto generic_case = BatchCase(ragged_batch(), 500);
    {
      ScopedPackArenaBudget budget(0);
      run_vbatch(s, generic_case.ops, 1.0f, 0.5f);
    }
    for (std::size_t i = 0; i < packed_case.gemms.size(); ++i)
      expect_bitwise_equal(packed_case.gemms[i].c, generic_case.gemms[i].c,
                           "vbatch/" + s.name() + "/gemm" +
                               std::to_string(i));
  }
}

// Full pipeline: the planner mixes strategies across GEMMs, so the pack map
// is keyed per (gemm, strategy); packed and generic plan execution must
// agree bitwise for every policy.
TEST(Microkernel, BatchedPlanSpecializedBitExact) {
  for (BatchingPolicy policy :
       {BatchingPolicy::kTilingOnly, BatchingPolicy::kThresholdOnly,
        BatchingPolicy::kBinaryOnly}) {
    PlannerConfig config;
    config.policy = policy;
    const BatchedGemmPlanner planner(config);
    const PlanSummary summary = planner.plan(ragged_batch());

    auto packed_case = BatchCase(ragged_batch(), 600);
    run_batched_plan(summary.plan, packed_case.ops, 1.5f, 0.25f);
    auto generic_case = BatchCase(ragged_batch(), 600);
    {
      ScopedPackArenaBudget budget(0);
      run_batched_plan(summary.plan, generic_case.ops, 1.5f, 0.25f);
    }
    for (std::size_t i = 0; i < packed_case.gemms.size(); ++i)
      expect_bitwise_equal(packed_case.gemms[i].c, generic_case.gemms[i].c,
                           "plan/gemm" + std::to_string(i));
  }
}

// The specialized path must stay bit-exact under host block parallelism,
// like the generic path (parallel_exec_test pins the latter).
TEST(Microkernel, SpecializedParallelMatchesSerial) {
  const TilingStrategy& s = batched_strategy_by_id(5);
  const GemmDims d = ragged_dims(s);
  GemmCase serial_case(d, Op::kN, Op::kN, Precision::kFp32, false, 700);
  {
    ScopedParallelThreads guard(1);
    run_single_gemm(s, serial_case.ops, 1.0f, 0.0f);
  }
  GemmCase parallel_case(d, Op::kN, Op::kN, Precision::kFp32, false, 700);
  {
    ScopedParallelThreads guard(4);
    run_single_gemm(s, parallel_case.ops, 1.0f, 0.0f);
  }
  expect_bitwise_equal(serial_case.c, parallel_case.c, "parallel");
}

// The per-GEMM packing pass itself runs under parallel_for in the vbatch
// and batched-plan paths; budget decisions stay serial in batch order, so
// the same GEMMs pack regardless of thread count and the packed panels (and
// therefore C) must be bit-identical between serial and parallel packing.
TEST(Microkernel, ParallelPackingBitExact) {
  const TilingStrategy& s = single_gemm_strategy(TileShape::kMedium);
  auto serial_vbatch = BatchCase(ragged_batch(), 900);
  {
    ScopedParallelThreads guard(1);
    run_vbatch(s, serial_vbatch.ops, 1.0f, 0.5f);
  }
  auto parallel_vbatch = BatchCase(ragged_batch(), 900);
  {
    ScopedParallelThreads guard(4);
    run_vbatch(s, parallel_vbatch.ops, 1.0f, 0.5f);
  }
  for (std::size_t i = 0; i < serial_vbatch.gemms.size(); ++i)
    expect_bitwise_equal(serial_vbatch.gemms[i].c, parallel_vbatch.gemms[i].c,
                         "parallel-pack/vbatch/gemm" + std::to_string(i));

  PlannerConfig config;
  config.policy = BatchingPolicy::kThresholdOnly;
  const BatchedGemmPlanner planner(config);
  const PlanSummary summary = planner.plan(ragged_batch());
  auto serial_plan = BatchCase(ragged_batch(), 901);
  {
    ScopedParallelThreads guard(1);
    run_batched_plan(summary.plan, serial_plan.ops, 1.5f, 0.25f);
  }
  auto parallel_plan = BatchCase(ragged_batch(), 901);
  {
    ScopedParallelThreads guard(4);
    run_batched_plan(summary.plan, parallel_plan.ops, 1.5f, 0.25f);
  }
  for (std::size_t i = 0; i < serial_plan.gemms.size(); ++i)
    expect_bitwise_equal(serial_plan.gemms[i].c, parallel_plan.gemms[i].c,
                         "parallel-pack/plan/gemm" + std::to_string(i));
}

// A budget that fits only the first GEMM of a plan must split the batch
// between the packed and generic paths — and still be bit-exact.
TEST(Microkernel, PartialBudgetMixesPathsBitExact) {
  const std::vector<GemmDims> dims = {{64, 64, 32}, {96, 96, 48},
                                      {40, 72, 23}};
  PlannerConfig config;
  config.policy = BatchingPolicy::kThresholdOnly;
  const BatchedGemmPlanner planner(config);
  const PlanSummary summary = planner.plan(dims);

  // Budget covering the first GEMM's footprint only.
  const TilingStrategy& s0 =
      batched_strategy_by_id(summary.plan.strategy_of_tile.at(0));
  const std::size_t first = pack_footprint_bytes(s0, dims[0]);

  auto mixed_case = BatchCase(dims, 800);
  {
    ScopedPackArenaBudget budget(first);
    run_batched_plan(summary.plan, mixed_case.ops, 1.0f, 0.0f);
  }
  auto generic_case = BatchCase(dims, 800);
  {
    ScopedPackArenaBudget budget(0);
    run_batched_plan(summary.plan, generic_case.ops, 1.0f, 0.0f);
  }
  for (std::size_t i = 0; i < mixed_case.gemms.size(); ++i)
    expect_bitwise_equal(mixed_case.gemms[i].c, generic_case.gemms[i].c,
                         "partial-budget/gemm" + std::to_string(i));
}

// ---------------------------------------------------------- SIMD dispatch --
// The explicit-SIMD layer (kernels/simd.hpp) must be bit-identical to the
// generic executor under every ISA the host can run, and the dispatcher
// must fall back to the scalar microkernels cleanly everywhere else.

// The ISAs this host can actually execute: always kScalar, plus every level
// up to detected_simd_isa() that has a non-empty kernel table.
std::vector<SimdIsa> runnable_isas() {
  std::vector<SimdIsa> isas{SimdIsa::kScalar};
  for (SimdIsa isa : {SimdIsa::kNeon, SimdIsa::kAvx2, SimdIsa::kAvx512})
    if (static_cast<int>(isa) <= static_cast<int>(detected_simd_isa()) &&
        simd_tile_loop(isa, 64, 64, 8) != nullptr)
      isas.push_back(isa);
  return isas;
}

TEST(SimdDispatch, EveryTable2IdResolvesUnderEveryRunnableIsa) {
  for (SimdIsa isa : runnable_isas()) {
    ScopedSimdIsa guard(isa);
    for (int id = 0; id < 12; ++id) {
      const TilingStrategy& s = batched_strategy_by_id(id);
      const TileKernel k = tile_kernel_for(s);
      ASSERT_TRUE(static_cast<bool>(k)) << s.name();
      EXPECT_EQ(k.isa, isa) << s.name() << " under " << simd_isa_name(isa);
      if (isa == SimdIsa::kScalar)
        EXPECT_EQ(k.fn, microkernel_for(s)) << s.name();
      else
        EXPECT_NE(k.fn, microkernel_for(s)) << s.name();
    }
    for (const TilingStrategy& s : single_gemm_strategies()) {
      const TileKernel k = tile_kernel_for(s);
      ASSERT_TRUE(static_cast<bool>(k)) << "table1/" << s.name();
      EXPECT_EQ(k.isa, isa) << "table1/" << s.name();
    }
  }
}

TEST(SimdDispatch, UnknownGeometryAndUnavailableIsaFallBackToScalar) {
  TilingStrategy s = batched_strategy_by_id(0);
  s.bk = 4;  // no SIMD loop carries BK != 8
  {
    ScopedSimdIsa guard(detected_simd_isa());
    EXPECT_EQ(tile_kernel_for(s).fn, nullptr);
    EXPECT_EQ(tile_kernel_for(s).isa, SimdIsa::kScalar);
  }
  // Requesting an ISA beyond the host clamps rather than dispatching a
  // kernel the CPU cannot execute.
  {
    ScopedSimdIsa guard(SimdIsa::kAvx512);
    EXPECT_LE(static_cast<int>(active_simd_isa()),
              static_cast<int>(detected_simd_isa()));
  }
}

// The acceptance sweep: every Table-2 strategy x {fp32, fp16} x {N, T} on
// both operands x implicit gather, ragged dims (edge tiles + padded K),
// bitwise equal to the generic executor under EVERY runnable ISA.
TEST(SimdDispatch, BitExactVsGenericAllStrategiesAllIsas) {
  for (SimdIsa isa : runnable_isas()) {
    ScopedSimdIsa guard(isa);
    const std::string tag = std::string("/") + simd_isa_name(isa);
    for (int id = 0; id < 12; ++id) {
      const TilingStrategy& s = batched_strategy_by_id(id);
      const GemmDims d = ragged_dims(s);
      for (Precision prec : {Precision::kFp32, Precision::kFp16}) {
        for (Op op_a : {Op::kN, Op::kT}) {
          for (Op op_b : {Op::kN, Op::kT}) {
            expect_specialized_matches_generic(
                [&] { return GemmCase(d, op_a, op_b, prec, false, 100 + id); },
                [&](GemmCase& gc) { run_single_gemm(s, gc.ops, 1.25f, 0.5f); },
                s.name() + (prec == Precision::kFp16 ? "/fp16" : "/fp32") +
                    "/op_a=" + to_string(op_a) + "/op_b=" + to_string(op_b) +
                    tag);
          }
        }
        expect_specialized_matches_generic(
            [&] { return GemmCase(d, Op::kN, Op::kN, prec, true, 200 + id); },
            [&](GemmCase& gc) { run_single_gemm(s, gc.ops, 1.0f, 0.0f); },
            s.name() + "/gather" + tag);
      }
    }
    for (const TilingStrategy& s : single_gemm_strategies()) {
      const GemmDims d = ragged_dims(s);
      expect_specialized_matches_generic(
          [&] {
            return GemmCase(d, Op::kN, Op::kN, Precision::kFp32, false, 400);
          },
          [&](GemmCase& gc) { run_single_gemm(s, gc.ops, 2.0f, 1.0f); },
          "table1/" + s.name() + tag);
    }
  }
}

// Cross-ISA: the vectorized kernels must agree bitwise with the SCALAR
// microkernels directly (not just transitively via the generic path), and
// stay bit-exact at any thread count.
TEST(SimdDispatch, VectorIsaMatchesScalarIsaAtAnyThreadCount) {
  for (SimdIsa isa : runnable_isas()) {
    if (isa == SimdIsa::kScalar) continue;
    for (int id : {0, 3, 5, 7, 9, 11}) {
      const TilingStrategy& s = batched_strategy_by_id(id);
      const GemmDims d = ragged_dims(s);
      for (int threads : {1, 4}) {
        ScopedParallelThreads par(threads);
        GemmCase vec_case(d, Op::kN, Op::kT, Precision::kFp32, false, 1000);
        {
          ScopedSimdIsa guard(isa);
          run_single_gemm(s, vec_case.ops, 1.0f, 0.5f);
        }
        GemmCase scalar_case(d, Op::kN, Op::kT, Precision::kFp32, false, 1000);
        {
          ScopedSimdIsa guard(SimdIsa::kScalar);
          run_single_gemm(s, scalar_case.ops, 1.0f, 0.5f);
        }
        expect_bitwise_equal(vec_case.c, scalar_case.c,
                             s.name() + "/" + simd_isa_name(isa) +
                                 "-vs-scalar/threads" +
                                 std::to_string(threads));
      }
    }
  }
}

// Batched executors under the vector ISA (the single-GEMM sweep above
// already covers every geometry; this pins the vbatch/plan wiring).
TEST(SimdDispatch, BatchedExecutorsBitExactUnderVectorIsa) {
  if (detected_simd_isa() == SimdIsa::kScalar)
    GTEST_SKIP() << "host has no vector ISA";
  ScopedSimdIsa guard(detected_simd_isa());
  const TilingStrategy& s = single_gemm_strategy(TileShape::kLarge);
  auto packed_case = BatchCase(ragged_batch(), 500);
  run_vbatch(s, packed_case.ops, 1.0f, 0.5f);
  auto generic_case = BatchCase(ragged_batch(), 500);
  {
    ScopedPackArenaBudget budget(0);
    run_vbatch(s, generic_case.ops, 1.0f, 0.5f);
  }
  for (std::size_t i = 0; i < packed_case.gemms.size(); ++i)
    expect_bitwise_equal(packed_case.gemms[i].c, generic_case.gemms[i].c,
                         "simd-vbatch/gemm" + std::to_string(i));

  PlannerConfig config;
  config.policy = BatchingPolicy::kThresholdOnly;
  const BatchedGemmPlanner planner(config);
  const PlanSummary summary = planner.plan(ragged_batch());
  auto packed_plan = BatchCase(ragged_batch(), 600);
  run_batched_plan(summary.plan, packed_plan.ops, 1.5f, 0.25f);
  auto generic_plan = BatchCase(ragged_batch(), 600);
  {
    ScopedPackArenaBudget budget(0);
    run_batched_plan(summary.plan, generic_plan.ops, 1.5f, 0.25f);
  }
  for (std::size_t i = 0; i < packed_plan.gemms.size(); ++i)
    expect_bitwise_equal(packed_plan.gemms[i].c, generic_plan.gemms[i].c,
                         "simd-plan/gemm" + std::to_string(i));
}

#ifdef CTB_TELEMETRY_ENABLED

std::int64_t counter_value(const telemetry::MetricsSnapshot& snap,
                           const std::string& name) {
  for (const auto& c : snap.counters)
    if (c.name == name) return c.value;
  ADD_FAILURE() << "counter " << name << " missing from snapshot";
  return -1;
}

// Dispatch and pack counters: a specialized run counts every tile as
// specialized plus the packed panels/bytes/reuse; a zero-budget run counts
// every tile as generic and packs nothing.
TEST(Microkernel, DispatchCountersTrackPaths) {
  const TilingStrategy& s = batched_strategy_by_id(4);  // large/128
  const GemmDims d{2 * s.by, 3 * s.bx, 64};  // 2x3 tile grid
  telemetry::reset();
  telemetry::set_enabled(true);
  {
    GemmCase gc(d, Op::kN, Op::kN, Precision::kFp32, false, 900);
    run_single_gemm(s, gc.ops, 1.0f, 0.0f);
  }
  auto snap = telemetry::snapshot();
  EXPECT_EQ(counter_value(snap, "exec.dispatch.specialized"), 6);
  EXPECT_EQ(counter_value(snap, "exec.dispatch.generic"), 0);
  EXPECT_EQ(counter_value(snap, "exec.pack.panels"), 2 + 3);
  EXPECT_EQ(counter_value(snap, "exec.pack.bytes"),
            static_cast<std::int64_t>(pack_footprint_bytes(s, d)));
  // 6 tiles read 2 A + 3 B panels: 12 panel reads, 5 initial packings.
  EXPECT_EQ(counter_value(snap, "exec.pack.reuse"), 7);

  telemetry::reset();
  {
    ScopedPackArenaBudget budget(0);
    GemmCase gc(d, Op::kN, Op::kN, Precision::kFp32, false, 900);
    run_single_gemm(s, gc.ops, 1.0f, 0.0f);
  }
  snap = telemetry::snapshot();
  EXPECT_EQ(counter_value(snap, "exec.dispatch.specialized"), 0);
  EXPECT_EQ(counter_value(snap, "exec.dispatch.generic"), 6);
  EXPECT_EQ(counter_value(snap, "exec.pack.panels"), 0);
  telemetry::set_enabled(false);
  telemetry::reset();
}

// exec.simd.* partitions ALL executed tiles by the ISA that ran them:
// vector-kernel tiles under the active vector ISA, scalar-microkernel and
// generic-executor tiles under exec.simd.scalar.
TEST(Microkernel, SimdCountersPartitionTilesByIsa) {
  const TilingStrategy& s = batched_strategy_by_id(4);  // large/128
  const GemmDims d{2 * s.by, 3 * s.bx, 64};             // 2x3 tile grid
  const char* active_name = simd_isa_name(active_simd_isa());

  telemetry::reset();
  telemetry::set_enabled(true);
  {
    GemmCase gc(d, Op::kN, Op::kN, Precision::kFp32, false, 900);
    run_single_gemm(s, gc.ops, 1.0f, 0.0f);
  }
  auto snap = telemetry::snapshot();
  std::int64_t total = 0;
  for (const char* name : {"exec.simd.scalar", "exec.simd.neon",
                           "exec.simd.avx2", "exec.simd.avx512"}) {
    const std::int64_t v = counter_value(snap, name);
    total += v;
    EXPECT_EQ(v, std::string(name) ==
                         std::string("exec.simd.") + active_name
                     ? 6
                     : 0)
        << name;
  }
  EXPECT_EQ(total, 6);  // a partition: every tile counted exactly once

  // Forcing scalar dispatch moves all six tiles to exec.simd.scalar.
  telemetry::reset();
  {
    ScopedSimdIsa guard(SimdIsa::kScalar);
    GemmCase gc(d, Op::kN, Op::kN, Precision::kFp32, false, 900);
    run_single_gemm(s, gc.ops, 1.0f, 0.0f);
  }
  snap = telemetry::snapshot();
  EXPECT_EQ(counter_value(snap, "exec.simd.scalar"), 6);

  // The generic (unpacked) path is scalar by definition.
  telemetry::reset();
  {
    ScopedPackArenaBudget budget(0);
    GemmCase gc(d, Op::kN, Op::kN, Precision::kFp32, false, 900);
    run_single_gemm(s, gc.ops, 1.0f, 0.0f);
  }
  snap = telemetry::snapshot();
  EXPECT_EQ(counter_value(snap, "exec.simd.scalar"), 6);
  telemetry::set_enabled(false);
  telemetry::reset();
}

#endif  // CTB_TELEMETRY_ENABLED

}  // namespace
}  // namespace ctb
