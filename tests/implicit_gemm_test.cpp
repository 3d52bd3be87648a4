#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "dnn/im2col.hpp"
#include "dnn/implicit_gemm.hpp"
#include "kernels/packing.hpp"

namespace ctb {
namespace {

ConvShape mk_conv(int in_c, int out_c, int kernel, int stride, int pad,
                  int hw) {
  ConvShape s;
  s.name = "test";
  s.in_c = in_c;
  s.out_c = out_c;
  s.kernel = kernel;
  s.stride = stride;
  s.pad = pad;
  s.in_h = hw;
  s.in_w = hw;
  return s;
}

TEST(ImplicitGemm, GatherMatchesIm2col) {
  // The implicit B(k, j) must read exactly the value im2col materializes.
  const ConvShape s = mk_conv(3, 4, 3, 1, 1, 6);
  Rng rng(3);
  Tensor4 input(2, 3, 6, 6);
  fill_random(input, rng);
  const Matrixf filters = random_filters(s, rng);
  const Matrixf cols = im2col(s, input);
  const GemmDims d = s.gemm_dims(2);
  Matrixf out(static_cast<std::size_t>(d.m), static_cast<std::size_t>(d.n));
  const GemmOperands g = implicit_conv_operands(s, input, filters, out);
  ASSERT_TRUE(g.gather.has_value());
  EXPECT_EQ(g.b, nullptr);
  for (int k = 0; k < d.k; ++k)
    for (int j = 0; j < d.n; ++j)
      ASSERT_EQ(conv_gather_value(*g.gather, k, j),
                cols(static_cast<std::size_t>(k), static_cast<std::size_t>(j)))
          << "k=" << k << " j=" << j;
}

struct ConvCase {
  int in_c, out_c, kernel, stride, pad, hw, batch;
};

class ImplicitVsExplicit : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ImplicitVsExplicit, SameResultAsIm2colPath) {
  const ConvCase p = GetParam();
  const ConvShape s =
      mk_conv(p.in_c, p.out_c, p.kernel, p.stride, p.pad, p.hw);
  Rng rng(static_cast<std::uint64_t>(p.in_c * 31 + p.kernel));
  Tensor4 input(p.batch, p.in_c, p.hw, p.hw);
  fill_random(input, rng);
  const Matrixf filters = random_filters(s, rng);
  const Tensor4 explicit_path = conv_forward_gemm(s, input, filters);
  const Tensor4 implicit_path = conv_forward_implicit(s, input, filters);
  ASSERT_TRUE(explicit_path.same_shape(implicit_path));
  EXPECT_LT(max_abs_diff(explicit_path, implicit_path), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ImplicitVsExplicit,
    ::testing::Values(ConvCase{1, 1, 1, 1, 0, 4, 1},
                      ConvCase{3, 8, 3, 1, 1, 8, 1},
                      ConvCase{4, 6, 5, 1, 2, 9, 2},
                      ConvCase{2, 4, 3, 2, 1, 12, 1},
                      ConvCase{8, 16, 1, 1, 0, 7, 3}));

// The implicit path packs (or stages) B from the conv input; the explicit
// path runs the same executor on the materialized im2col matrix. Under one
// strategy both must produce the same C bit for bit, packed and through the
// generic staging (budget 0), for kernels 1/3/5, strides 1/2, pads 0/1/2
// and 1-3 images. The 16- and 32-wide tiles put N tile edges inside output
// rows and across image boundaries.
TEST(ImplicitGemm, ExecutorMatchesIm2colBitwise) {
  const ConvCase cases[] = {{6, 10, 1, 1, 0, 7, 3}, {3, 9, 3, 1, 1, 9, 2},
                            {4, 7, 5, 1, 2, 8, 1},  {5, 6, 3, 2, 1, 11, 3},
                            {2, 5, 5, 2, 2, 13, 2}, {3, 4, 1, 2, 0, 9, 2},
                            {4, 6, 3, 2, 0, 10, 1}, {3, 5, 3, 1, 0, 10, 2}};
  for (const ConvCase& p : cases) {
    const ConvShape shape =
        mk_conv(p.in_c, p.out_c, p.kernel, p.stride, p.pad, p.hw);
    Rng rng(static_cast<std::uint64_t>(p.in_c * 17 + p.kernel * 5 + p.pad));
    Tensor4 input(p.batch, p.in_c, p.hw, p.hw);
    fill_random(input, rng);
    const Matrixf filters = random_filters(shape, rng);
    const Matrixf cols = im2col(shape, input);
    const GemmDims d = shape.gemm_dims(p.batch);
    for (int id : {0, 3, 5, 10}) {
      const TilingStrategy& s = batched_strategy_by_id(id);
      for (std::size_t budget : {pack_arena_budget(), std::size_t{0}}) {
        ScopedPackArenaBudget scope(budget);
        Matrixf implicit_c(static_cast<std::size_t>(d.m),
                           static_cast<std::size_t>(d.n));
        Matrixf explicit_c(static_cast<std::size_t>(d.m),
                           static_cast<std::size_t>(d.n));
        run_single_gemm(
            s, implicit_conv_operands(shape, input, filters, implicit_c),
            1.0f, 0.0f);
        run_single_gemm(s, operands(filters, cols, explicit_c), 1.0f, 0.0f);
        const auto got = implicit_c.flat();
        const auto want = explicit_c.flat();
        for (std::size_t i = 0; i < got.size(); ++i)
          ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                    std::bit_cast<std::uint32_t>(want[i]))
              << "conv in_c=" << p.in_c << " k" << p.kernel << " s"
              << p.stride << " p" << p.pad << " images=" << p.batch << " on "
              << s.name() << (budget == 0 ? " generic" : " packed")
              << " diverges at flat index " << i;
      }
    }
  }
}

TEST(ImplicitGemm, BatchedBranchesMatchDirectConv) {
  // Batch the four stage-1 branches of a mini inception module implicitly.
  const ConvShape c1 = mk_conv(8, 6, 1, 1, 0, 10);
  const ConvShape c2 = mk_conv(8, 4, 3, 1, 1, 10);
  const ConvShape c3 = mk_conv(8, 3, 5, 1, 2, 10);
  const ConvShape c4 = mk_conv(8, 5, 1, 1, 0, 10);
  Rng rng(77);
  Tensor4 input(1, 8, 10, 10);
  fill_random(input, rng);
  const Matrixf f1 = random_filters(c1, rng);
  const Matrixf f2 = random_filters(c2, rng);
  const Matrixf f3 = random_filters(c3, rng);
  const Matrixf f4 = random_filters(c4, rng);

  const std::vector<Tensor4> outs = conv_batch_implicit(
      {&c1, &c2, &c3, &c4}, {&input, &input, &input, &input},
      {&f1, &f2, &f3, &f4}, PlannerConfig{});
  ASSERT_EQ(outs.size(), 4u);

  const Tensor4 r1 = conv_forward_direct(c1, input, f1);
  const Tensor4 r2 = conv_forward_direct(c2, input, f2);
  const Tensor4 r3 = conv_forward_direct(c3, input, f3);
  const Tensor4 r4 = conv_forward_direct(c4, input, f4);
  EXPECT_LT(max_abs_diff(outs[0], r1), 1e-3f);
  EXPECT_LT(max_abs_diff(outs[1], r2), 1e-3f);
  EXPECT_LT(max_abs_diff(outs[2], r3), 1e-3f);
  EXPECT_LT(max_abs_diff(outs[3], r4), 1e-3f);
}

TEST(ImplicitGemm, OperandValidation) {
  const ConvShape s = mk_conv(3, 4, 3, 1, 1, 6);
  Tensor4 wrong(1, 2, 6, 6);  // wrong channel count
  Rng rng(1);
  Tensor4 ok(1, 3, 6, 6);
  const Matrixf filters = random_filters(s, rng);
  const GemmDims d = s.gemm_dims(1);
  Matrixf out(static_cast<std::size_t>(d.m), static_cast<std::size_t>(d.n));
  EXPECT_THROW(implicit_conv_operands(s, wrong, filters, out), CheckError);
  Matrixf bad_out(1, 1);
  EXPECT_THROW(implicit_conv_operands(s, ok, filters, bad_out), CheckError);
}

TEST(ImplicitGemm, MaterializationCostModel) {
  const GpuArch& arch = gpu_arch(GpuModel::kV100);
  const ConvShape small = mk_conv(16, 16, 3, 1, 1, 14);
  const ConvShape big = mk_conv(256, 256, 3, 1, 1, 56);
  EXPECT_GT(im2col_materialization_us(arch, big, 1),
            im2col_materialization_us(arch, small, 1));
  EXPECT_GE(im2col_materialization_us(arch, small, 1),
            arch.kernel_launch_us);
}

}  // namespace
}  // namespace ctb
