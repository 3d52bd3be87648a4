// Single-core host ceilings. The executor's determinism contract keeps every
// accumulation a separate multiply and add in ascending-k order, so the
// dependent mul+add chain rate is the ceiling every tile path is measured
// against; the FMA rate shows what the contract leaves on the table. Chains
// are independent across accumulators (enough to cover the op latency) and
// dependent within one, like the tile kernels' accumulators.
#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

// 16 accumulators cover the mul+add latency on 32-register AVX-512; AVX2
// has 16 registers, so it keeps 12 to leave room for the constants.
constexpr int kChains = 16;
constexpr int kChains2 = 12;
constexpr long kIters = 1 << 20;

template <typename F>
double best_rate(F&& run, double work) {
  double best = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_us();
    run();
    const double dt = now_us() - t0;
    if (dt > 0) best = std::max(best, work / dt);
  }
  return best;
}

volatile float g_sink;

#if defined(__x86_64__)
__attribute__((target("avx512f"))) float hsum512(__m512 v) {
  float lanes[16];
  _mm512_storeu_ps(lanes, v);
  float s = 0;
  for (float x : lanes) s += x;
  return s;
}

__attribute__((target("avx512f"))) void muladd_avx512() {
  __m512 acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm512_set1_ps(0.5f + c);
  const __m512 m = _mm512_set1_ps(0.999999f), a = _mm512_set1_ps(1e-7f);
  for (long i = 0; i < kIters; ++i)
    for (int c = 0; c < kChains; ++c)
      acc[c] = _mm512_add_ps(_mm512_mul_ps(acc[c], m), a);
  __m512 s = acc[0];
  for (int c = 1; c < kChains; ++c) s = _mm512_add_ps(s, acc[c]);
  g_sink = hsum512(s);
}

__attribute__((target("avx512f"))) void fma_avx512() {
  __m512 acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm512_set1_ps(0.5f + c);
  const __m512 m = _mm512_set1_ps(0.999999f), a = _mm512_set1_ps(1e-7f);
  for (long i = 0; i < kIters; ++i)
    for (int c = 0; c < kChains; ++c) acc[c] = _mm512_fmadd_ps(acc[c], m, a);
  __m512 s = acc[0];
  for (int c = 1; c < kChains; ++c) s = _mm512_add_ps(s, acc[c]);
  g_sink = hsum512(s);
}

__attribute__((target("avx2,fma"))) float hsum256(__m256 v) {
  float lanes[8];
  _mm256_storeu_ps(lanes, v);
  float s = 0;
  for (float x : lanes) s += x;
  return s;
}

__attribute__((target("avx2,fma"))) void muladd_avx2() {
  __m256 acc[kChains2];
  for (int c = 0; c < kChains2; ++c) acc[c] = _mm256_set1_ps(0.5f + c);
  const __m256 m = _mm256_set1_ps(0.999999f), a = _mm256_set1_ps(1e-7f);
  for (long i = 0; i < kIters; ++i)
    for (int c = 0; c < kChains2; ++c)
      acc[c] = _mm256_add_ps(_mm256_mul_ps(acc[c], m), a);
  __m256 s = acc[0];
  for (int c = 1; c < kChains2; ++c) s = _mm256_add_ps(s, acc[c]);
  g_sink = hsum256(s);
}

__attribute__((target("avx2,fma"))) void fma_avx2() {
  __m256 acc[kChains2];
  for (int c = 0; c < kChains2; ++c) acc[c] = _mm256_set1_ps(0.5f + c);
  const __m256 m = _mm256_set1_ps(0.999999f), a = _mm256_set1_ps(1e-7f);
  for (long i = 0; i < kIters; ++i)
    for (int c = 0; c < kChains2; ++c) acc[c] = _mm256_fmadd_ps(acc[c], m, a);
  __m256 s = acc[0];
  for (int c = 1; c < kChains2; ++c) s = _mm256_add_ps(s, acc[c]);
  g_sink = hsum256(s);
}
#endif

void muladd_scalar() {
  float acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = 0.5f + static_cast<float>(c);
  for (long i = 0; i < kIters; ++i)
    for (int c = 0; c < kChains; ++c) acc[c] = acc[c] * 0.999999f + 1e-7f;
  float s = 0;
  for (float x : acc) s += x;
  g_sink = s;
}

}  // namespace

HostCeiling probe_host() {
  HostCeiling h;
  // FLOPs per run: two per lane per chain per iteration. Rates come out
  // in FLOP/us (MFLOP/s) and bytes/us, scaled to G-units below.
  auto flops = [](int lanes, int chains) {
    return 2.0 * lanes * chains * kIters;
  };
  h.isa = "scalar";
  h.muladd_gflops = best_rate(muladd_scalar, flops(1, kChains)) / 1e3;
  h.fma_gflops = h.muladd_gflops;
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) {
    h.isa = "avx512";
    h.muladd_gflops = best_rate(muladd_avx512, flops(16, kChains)) / 1e3;
    h.fma_gflops = best_rate(fma_avx512, flops(16, kChains)) / 1e3;
  } else if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    h.isa = "avx2";
    h.muladd_gflops = best_rate(muladd_avx2, flops(8, kChains2)) / 1e3;
    h.fma_gflops = best_rate(fma_avx2, flops(8, kChains2)) / 1e3;
  }
#endif

  // Copy: 2 MiB source to 2 MiB destination, the order of the bytes one
  // call packs (2.9-3.9 MB per call on infer_steady and train_step).
  const std::size_t bytes = std::size_t{2} << 20;
  std::vector<char> src(bytes, 1), dst(bytes, 0);
  h.copy_bytes = 2 * bytes;
  constexpr int kCopies = 64;
  h.copy_gbps = best_rate(
                    [&] {
                      for (int i = 0; i < kCopies; ++i) {
                        src[static_cast<std::size_t>(i)] = static_cast<char>(i);
                        std::memcpy(dst.data(), src.data(), bytes);
                      }
                      g_sink = dst[static_cast<std::size_t>(kCopies / 2)];
                    },
                    static_cast<double>(bytes) * kCopies) /
                1e3;
  return h;
}

}  // namespace perfbench
