#include "kernels/packing.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <cstring>

#include "telemetry/telemetry.hpp"
#include "util/assert.hpp"

namespace ctb {

namespace {

constexpr std::size_t kDefaultPackArenaBytes = 256u << 20;  // 256 MiB
constexpr std::size_t kDefaultPackGemmBytes = 64u << 20;    // 64 MiB

std::size_t env_bytes_or(const char* name, std::size_t fallback) {
  const char* env = std::getenv(name);
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != nullptr && *end == '\0') return static_cast<std::size_t>(v);
  }
  return fallback;
}

std::atomic<std::size_t>& pack_budget_atomic() {
  static std::atomic<std::size_t> budget{
      env_bytes_or("CTB_PACK_BUDGET", kDefaultPackArenaBytes)};
  return budget;
}

std::atomic<std::size_t>& pack_gemm_budget_atomic() {
  static std::atomic<std::size_t> budget{
      env_bytes_or("CTB_PACK_GEMM_BUDGET", kDefaultPackGemmBytes)};
  return budget;
}

}  // namespace

std::size_t pack_arena_budget() {
  return pack_budget_atomic().load(std::memory_order_relaxed);
}

void set_pack_arena_budget(std::size_t bytes) {
  pack_budget_atomic().store(bytes, std::memory_order_relaxed);
}

std::size_t pack_gemm_budget() {
  return pack_gemm_budget_atomic().load(std::memory_order_relaxed);
}

void set_pack_gemm_budget(std::size_t bytes) {
  pack_gemm_budget_atomic().store(bytes, std::memory_order_relaxed);
}

std::size_t pack_footprint_bytes(const TilingStrategy& s, const GemmDims& d) {
  const long long ty = (d.m + s.by - 1) / s.by;
  const long long tx = (d.n + s.bx - 1) / s.bx;
  const long long steps = (d.k + s.bk - 1) / s.bk;
  const long long floats =
      ty * steps * (s.by * s.bk) + tx * steps * (s.bk * s.bx);
  return static_cast<std::size_t>(floats) * sizeof(float);
}

namespace {

// One BY x BK A block at `out[i * BK + p]` = staged A(row0 + i, k0 + p).
// The per-element staged path: the only one for fp16.
void stage_a_block(const GemmOperands& g, int row0, int k0, int by, int bk,
                   float* out) {
  for (int i = 0; i < by; ++i)
    for (int p = 0; p < bk; ++p) *out++ = staged_a_value(g, row0 + i, k0 + p);
}

// The same block for fp32 A read from storage, as bulk copies: op N copies
// each in-range block row as one run, op T walks A's stored rows
// contiguously; the ragged remainder is written as zeros.
void copy_a_block(const GemmOperands& g, int row0, int k0, int by, int bk,
                  float* out) {
  const auto& d = g.dims;
  const int rows = std::min(by, d.m - row0);
  const int kn = std::min(bk, d.k - k0);
  if (g.op_a == Op::kN) {
    for (int i = 0; i < rows; ++i) {
      float* dst = out + static_cast<std::size_t>(i) * bk;
      std::memcpy(dst, g.a + static_cast<std::size_t>(row0 + i) * d.k + k0,
                  static_cast<std::size_t>(kn) * sizeof(float));
      std::fill(dst + kn, dst + bk, 0.0f);
    }
    std::fill(out + static_cast<std::size_t>(rows) * bk,
              out + static_cast<std::size_t>(by) * bk, 0.0f);
    return;
  }
  if (rows < by || kn < bk)
    std::fill(out, out + static_cast<std::size_t>(by) * bk, 0.0f);
  for (int p = 0; p < kn; ++p) {
    const float* src = g.a + static_cast<std::size_t>(k0 + p) * d.m + row0;
    for (int i = 0; i < rows; ++i) out[i * bk + p] = src[i];
  }
}

// One BK x BX B block at `out[p * BX + j]` = staged B(k0 + p, col0 + j).
// The per-element staged path: the only one for fp16.
void stage_b_block(const GemmOperands& g, int k0, int col0, int bk, int bx,
                   float* out) {
  for (int p = 0; p < bk; ++p)
    for (int j = 0; j < bx; ++j) *out++ = staged_b_value(g, k0 + p, col0 + j);
}

// The same block for fp32 B read from storage; see copy_a_block.
void copy_b_block(const GemmOperands& g, int k0, int col0, int bk, int bx,
                  float* out) {
  const auto& d = g.dims;
  const int kn = std::min(bk, d.k - k0);
  const int cols = std::min(bx, d.n - col0);
  if (g.op_b == Op::kN) {
    for (int p = 0; p < kn; ++p) {
      float* dst = out + static_cast<std::size_t>(p) * bx;
      std::memcpy(dst, g.b + static_cast<std::size_t>(k0 + p) * d.n + col0,
                  static_cast<std::size_t>(cols) * sizeof(float));
      std::fill(dst + cols, dst + bx, 0.0f);
    }
    std::fill(out + static_cast<std::size_t>(kn) * bx,
              out + static_cast<std::size_t>(bk) * bx, 0.0f);
    return;
  }
  if (kn < bk || cols < bx)
    std::fill(out, out + static_cast<std::size_t>(bk) * bx, 0.0f);
  for (int j = 0; j < cols; ++j) {
    const float* src = g.b + static_cast<std::size_t>(col0 + j) * d.k + k0;
    for (int p = 0; p < kn; ++p) out[p * bx + j] = src[p];
  }
}

// Output positions x in [lo, hi) whose input tap x * stride + off lies in
// [0, extent). Unclamped: lo may exceed the output extent and hi may be 0.
void tap_range(int off, int stride, int extent, int& lo, int& hi) {
  if (stride == 1) {
    lo = std::max(0, -off);
    hi = std::max(0, extent - off);
  } else {
    lo = off >= 0 ? 0 : (stride - 1 - off) / stride;
    hi = extent > off ? (extent - off + stride - 1) / stride : 0;
  }
}

void fill_zero(float* dst, std::ptrdiff_t n) {
  if (n > 0) std::memset(dst, 0, static_cast<std::size_t>(n) * sizeof(float));
}

// Output pixels [x0, x1) of one output row for one filter tap, from input
// row `src`: zeros outside the tap's in-range window [x_lo, x_hi), one
// memcpy inside it at stride 1, a strided loop at other strides.
void gather_row_run(const float* src, int x0, int x1, int x_lo, int x_hi,
                    int stride, int off, float* dst) {
  const int a = std::clamp(x_lo, x0, x1);
  const int b = std::clamp(x_hi, a, x1);
  fill_zero(dst, a - x0);
  if (stride == 1) {
    if (b > a)
      std::memcpy(dst + (a - x0), src + a + off,
                  static_cast<std::size_t>(b - a) * sizeof(float));
  } else {
    for (int x = a; x < b; ++x) dst[x - x0] = src[x * stride + off];
  }
  fill_zero(dst + (b - x0), x1 - b);
}

// The same B block for an fp32 conv gather, producing conv_gather_value's
// bytes without calling it and with no division per element: the first k
// is decoded into its (c, kh, kw) tap once and later rows step the tap. A
// 1x1 stride-1 unpadded conv (every train_step forward GEMM) reads each
// image's channel plane as is, one memcpy per image in a block row; other
// convs walk each row's columns with (image, oy, ox) counters, one
// output-row run at a time.
void gather_b_block(const GemmOperands& g, int k0, int col0, int bk, int bx,
                    float* out) {
  const ConvGather& cv = *g.gather;
  const int kn = std::min(bk, g.dims.k - k0);
  const int cols = std::min(bx, g.dims.n - col0);
  const bool plane_runs = cv.kernel == 1 && cv.stride == 1 && cv.pad == 0;
  const int oh = cv.out_h();
  const int ow = cv.out_w();
  const int plane = oh * ow;
  const std::size_t in_plane = static_cast<std::size_t>(cv.in_h) * cv.in_w;
  const std::size_t image_stride = cv.channels * in_plane;
  const int image0 = col0 / plane;
  const int pix0 = col0 % plane;
  const int taps = cv.kernel * cv.kernel;
  int c = k0 / taps;
  int kh = k0 % taps / cv.kernel;
  int kw = k0 % cv.kernel;
  for (int p = 0; p < kn; ++p) {
    const float* chan = cv.input + static_cast<std::size_t>(c) * in_plane;
    float* dst = out + static_cast<std::size_t>(p) * bx;
    if (plane_runs) {
      for (int j = 0, image = image0, pix = pix0; j < cols;
           ++image, pix = 0) {
        const int run = std::min(cols - j, plane - pix);
        std::memcpy(dst + j, chan + image * image_stride + pix,
                    static_cast<std::size_t>(run) * sizeof(float));
        j += run;
      }
    } else {
      int y_lo, y_hi, x_lo, x_hi;
      tap_range(kh - cv.pad, cv.stride, cv.in_h, y_lo, y_hi);
      tap_range(kw - cv.pad, cv.stride, cv.in_w, x_lo, x_hi);
      for (int j = 0, image = image0, oy = pix0 / ow, ox = pix0 % ow;
           j < cols;) {
        const int run = std::min(cols - j, ow - ox);
        if (oy >= y_lo && oy < y_hi) {
          const int iy = oy * cv.stride + kh - cv.pad;
          gather_row_run(chan + image * image_stride +
                             static_cast<std::size_t>(iy) * cv.in_w,
                         ox, ox + run, x_lo, x_hi, cv.stride, kw - cv.pad,
                         dst + j);
        } else {
          fill_zero(dst + j, run);
        }
        j += run;
        ox = 0;
        if (++oy == oh) {
          oy = 0;
          ++image;
        }
      }
    }
    fill_zero(dst + cols, bx - cols);
    if (++kw == cv.kernel) {
      kw = 0;
      if (++kh == cv.kernel) {
        kh = 0;
        ++c;
      }
    }
  }
  fill_zero(out + static_cast<std::size_t>(kn) * bx, (bk - kn) * bx);
}

}  // namespace

PackedGemm pack_gemm(const TilingStrategy& s, const GemmOperands& g) {
  CTB_CHECK(g.a != nullptr && g.dims.valid());
  CTB_CHECK_MSG(g.b != nullptr || g.gather,
                "B operand needs storage or a gather");
  const auto& d = g.dims;
  PackedGemm pk;
  pk.by = s.by;
  pk.bx = s.bx;
  pk.bk = s.bk;
  pk.nsteps = (d.k + s.bk - 1) / s.bk;
  pk.ty_count = (d.m + s.by - 1) / s.by;
  pk.tx_count = (d.n + s.bx - 1) / s.bx;
  // Uninitialized (PanelBuffer): the block writers below cover every
  // element of both buffers, padding included, so no zero-fill pass.
  const std::size_t a_block = static_cast<std::size_t>(s.by) * s.bk;
  const std::size_t b_block = static_cast<std::size_t>(s.bk) * s.bx;
  pk.a.resize(static_cast<std::size_t>(pk.ty_count) * pk.nsteps * a_block);
  pk.b.resize(static_cast<std::size_t>(pk.tx_count) * pk.nsteps * b_block);

  // Bounds/transpose/fp16/gather resolve once, here, instead of once per
  // consuming tile x K-step in the generic path. Both buffers are written
  // sequentially, block by block.
  const bool fp32 = g.precision == Precision::kFp32;
  const auto a_writer = fp32 ? copy_a_block : stage_a_block;
  const auto b_writer = !fp32     ? stage_b_block
                        : g.gather ? gather_b_block
                                   : copy_b_block;
  float* out = pk.a.data();
  for (int ty = 0; ty < pk.ty_count; ++ty)
    for (int step = 0; step < pk.nsteps; ++step, out += a_block)
      a_writer(g, ty * s.by, step * s.bk, s.by, s.bk, out);
  out = pk.b.data();
  for (int tx = 0; tx < pk.tx_count; ++tx)
    for (int step = 0; step < pk.nsteps; ++step, out += b_block)
      b_writer(g, step * s.bk, tx * s.bx, s.bk, s.bx, out);

  CTB_TEL_COUNT("exec.pack.panels", pk.ty_count + pk.tx_count);
  CTB_TEL_COUNT("exec.pack.bytes", pk.bytes());
  return pk;
}

}  // namespace ctb
