// google-benchmark microbenchmarks of the library itself: planner latency,
// simulator throughput, functional kernel throughput, im2col, and the
// random-forest predictor (the paper stresses the online selector must be
// negligible — "7-8 comparisons on average").
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "baselines/baselines.hpp"
#include "core/api.hpp"
#include "core/rf_policy.hpp"
#include "dnn/im2col.hpp"
#include "kernels/pack_cache.hpp"
#include "kernels/packing.hpp"
#include "kernels/simd.hpp"
#include "kernels/work_builder.hpp"
#include "telemetry/telemetry.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace ctb;

void BM_PlannerTilingOnly(benchmark::State& state) {
  const std::vector<GemmDims> dims(static_cast<std::size_t>(state.range(0)),
                                   GemmDims{128, 128, 256});
  PlannerConfig config;
  config.policy = BatchingPolicy::kTilingOnly;
  const BatchedGemmPlanner planner(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(dims));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PlannerTilingOnly)->Arg(4)->Arg(64)->Arg(256);

void BM_PlannerThresholdBatching(benchmark::State& state) {
  const std::vector<GemmDims> dims(static_cast<std::size_t>(state.range(0)),
                                   GemmDims{128, 128, 64});
  PlannerConfig config;
  config.policy = BatchingPolicy::kThresholdOnly;
  const BatchedGemmPlanner planner(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(dims));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PlannerThresholdBatching)->Arg(64)->Arg(256);

void BM_SimulateKernel(benchmark::State& state) {
  const std::vector<GemmDims> dims(static_cast<std::size_t>(state.range(0)),
                                   GemmDims{128, 128, 256});
  PlannerConfig config;
  const BatchedGemmPlanner planner(config);
  const PlanSummary s = planner.plan(dims);
  const KernelWork work = work_from_plan(s.plan, dims);
  const GpuArch& arch = gpu_arch(GpuModel::kV100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate_kernel(arch, work));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(work.blocks.size()));
  state.SetLabel(std::to_string(work.blocks.size()) + " blocks");
}
BENCHMARK(BM_SimulateKernel)->Arg(16)->Arg(256);

// The plan-service miss path: the default planner (V100, auto-offline,
// split-K auto) over a fixed serve_churn-shaped request list (1-6 GEMMs,
// every dimension log-uniform in [8, 256]). One iteration plans the next
// request of the list, so the time column is the time per plan;
// sims_per_plan is the sim.kernels telemetry counter over one extra pass
// (0 when telemetry is compiled out).
void BM_PlanAutoOffline(benchmark::State& state) {
  Rng rng(1);
  auto dim = [&] {
    const double l =
        std::log(8.0) + rng.uniform() * (std::log(256.0) - std::log(8.0));
    return static_cast<int>(std::lround(std::exp(l)));
  };
  std::vector<std::vector<GemmDims>> batches(64);
  for (auto& dims : batches) {
    dims.resize(static_cast<std::size_t>(rng.uniform_int(1, 6)));
    for (GemmDims& d : dims) d = GemmDims{dim(), dim(), dim()};
  }
  const BatchedGemmPlanner planner{PlannerConfig{}};
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(batches[next]));
    next = (next + 1) % batches.size();
  }

  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(true);
  const std::int64_t before = telemetry::counter("sim.kernels").value();
  for (const auto& dims : batches) benchmark::DoNotOptimize(planner.plan(dims));
  const std::int64_t sims = telemetry::counter("sim.kernels").value() - before;
  telemetry::set_enabled(was_enabled);
  state.counters["sims_per_plan"] =
      static_cast<double>(sims) / static_cast<double>(batches.size());
}
BENCHMARK(BM_PlanAutoOffline);

void BM_FunctionalTileGemm(benchmark::State& state) {
  const auto& s = batched_strategy_by_id(static_cast<int>(state.range(0)));
  Rng rng(1);
  const GemmDims d{s.by, s.bx, 256};
  Matrixf a(static_cast<std::size_t>(d.m), static_cast<std::size_t>(d.k));
  Matrixf b(static_cast<std::size_t>(d.k), static_cast<std::size_t>(d.n));
  Matrixf c(static_cast<std::size_t>(d.m), static_cast<std::size_t>(d.n));
  fill_random(a, rng);
  fill_random(b, rng);
  const GemmOperands g = operands(a, b, c);
  for (auto _ : state) {
    execute_tile(s, g, 0, 0, 1.0f, 0.0f);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * d.flops());
  state.SetLabel(s.name());
}
BENCHMARK(BM_FunctionalTileGemm)->Arg(1)->Arg(5)->Arg(11);

// ------------------------------------------------- tile-path A/B ------
// Paired same-process A/B of the generic staged tile path vs the packed
// tile path, per Table-2 strategy id (DenseRange 0-11), over the full tile
// grid of a Fig. 8-style M=N=K=256 GEMM. Both variants run serially over the
// identical grid so the ratio generic/packed is the tile-level speedup; on
// a shared host expect +/-50% run-to-run noise, so compare medians of
// repeated runs.
struct MicroAbFixture {
  Matrixf a, b, c;
  GemmOperands g;
  explicit MicroAbFixture(const GemmDims& d) {
    Rng rng(13);
    a = Matrixf(static_cast<std::size_t>(d.m), static_cast<std::size_t>(d.k));
    b = Matrixf(static_cast<std::size_t>(d.k), static_cast<std::size_t>(d.n));
    c = Matrixf(static_cast<std::size_t>(d.m), static_cast<std::size_t>(d.n));
    fill_random(a, rng);
    fill_random(b, rng);
    g = operands(a, b, c);
  }
};

void BM_ExecuteTileGeneric(benchmark::State& state) {
  const auto& s = batched_strategy_by_id(static_cast<int>(state.range(0)));
  const GemmDims d{256, 256, 256};
  MicroAbFixture f(d);
  const int ty_count = (d.m + s.by - 1) / s.by;
  const int tx_count = (d.n + s.bx - 1) / s.bx;
  for (auto _ : state) {
    for (int ty = 0; ty < ty_count; ++ty)
      for (int tx = 0; tx < tx_count; ++tx)
        execute_tile(s, f.g, ty, tx, 1.0f, 0.0f);
    benchmark::DoNotOptimize(f.c.data());
  }
  state.SetItemsProcessed(state.iterations() * d.flops());
  state.SetLabel(s.name());
}
BENCHMARK(BM_ExecuteTileGeneric)->DenseRange(0, 11);

// The packed side: same grid, panels packed once outside the timed loop
// (the executors pack once per GEMM per call), every tile through
// execute_packed_tile — the executors' own tile body, accumulate plus the
// one store. The second argument is the ISA (a SimdIsa value, set in
// process through ScopedSimdIsa): a vector ISA runs its SIMD tile loop and
// store row, kScalar the runtime-bound scalar packed loop and scalar store.
// Every ISA the host can run is registered, so AVX2 is measured on AVX-512
// hosts without CTB_SIMD_ISA. The label carries the ISA the loop actually
// ran with.
void BM_ExecuteTileSimd(benchmark::State& state) {
  const auto& s = batched_strategy_by_id(static_cast<int>(state.range(0)));
  const ScopedSimdIsa isa(static_cast<SimdIsa>(state.range(1)));
  const GemmDims d{256, 256, 256};
  MicroAbFixture f(d);
  const SimdTileLoopFn loop =
      simd_tile_loop(active_simd_isa(), s.by, s.bx, s.bk);
  const PackedGemm pk = pack_gemm(s, f.g);
  for (auto _ : state) {
    for (int ty = 0; ty < pk.ty_count; ++ty)
      for (int tx = 0; tx < pk.tx_count; ++tx)
        execute_packed_tile(s, f.g, pk, loop, ty, tx, 1.0f, 0.0f);
    benchmark::DoNotOptimize(f.c.data());
  }
  state.SetItemsProcessed(state.iterations() * d.flops());
  state.SetLabel(s.name() + std::string(" isa=") +
                 simd_isa_name(loop != nullptr ? active_simd_isa()
                                               : SimdIsa::kScalar));
}

// Args({strategy id, isa}) for scalar plus every vector ISA the host can
// execute (one with a non-empty kernel table up to the detected level).
void TileSimdArgs(benchmark::internal::Benchmark* b) {
  for (SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kNeon, SimdIsa::kAvx2,
                      SimdIsa::kAvx512}) {
    if (isa != SimdIsa::kScalar &&
        (static_cast<int>(isa) > static_cast<int>(detected_simd_isa()) ||
         simd_tile_loop(isa, 64, 64, 8) == nullptr))
      continue;
    for (int id = 0; id < 12; ++id) b->Args({id, static_cast<int>(isa)});
  }
}
BENCHMARK(BM_ExecuteTileSimd)->Apply(TileSimdArgs);

// Whole-GEMM repeated-plan A/B of the cross-call packed-panel cache:
// Arg(0) reruns run_single_gemm with the cache disabled (panels repacked
// every call, the default), Arg(1) inside a ScopedPackCache so every
// iteration after the first hits the cache and skips packing entirely.
// The ratio off/on is the amortized packing overhead the cache removes.
void BM_SingleGemmPackCache(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  const GemmDims d{256, 256, 256};
  MicroAbFixture f(d);
  const auto& s = batched_strategy(TileShape::kLarge, ThreadVariant::k256);
  ScopedPackCache scope(cached);
  if (cached) run_single_gemm(s, f.g, 1.0f, 0.0f);  // warm the cache
  for (auto _ : state) {
    run_single_gemm(s, f.g, 1.0f, 0.0f);
    benchmark::DoNotOptimize(f.c.data());
  }
  state.SetItemsProcessed(state.iterations() * d.flops());
  state.SetLabel(cached ? "pack cache on" : "pack cache off");
}
BENCHMARK(BM_SingleGemmPackCache)->Arg(0)->Arg(1)->UseRealTime();

// Amortized cost of the packing pass itself (the one-off per (GEMM,
// strategy) work the specialized path adds before its first tile), per
// pack path: Args({strategy id, path}) with path 0 = N/N (row copies),
// 1 = op_a T, 2 = op_b T (transposing walks), and three conv gathers of
// B: 3 = a 1x1 conv over one 1 x 256 image (whole-plane runs), 4 = 3x3
// pad 1 (stride-1 row runs around padding taps), 5 = 3x3 stride 2 pad 1
// (strided rows). M = N = 256; K = 256, or 252 for the 3x3 convs.
void BM_PackPanels(benchmark::State& state) {
  const auto& s = batched_strategy_by_id(static_cast<int>(state.range(0)));
  static const char* const kPaths[] = {"N/N",          "T/N",
                                       "N/T",          "gather 1x1",
                                       "gather 3x3/p1", "gather 3x3/s2"};
  // {input, images, channels, in_h, in_w, kernel, stride, pad}
  static const ConvGather kConvs[] = {{nullptr, 1, 256, 1, 256, 1, 1, 0},
                                      {nullptr, 1, 28, 16, 16, 3, 1, 1},
                                      {nullptr, 1, 28, 32, 32, 3, 2, 1}};
  const int path = static_cast<int>(state.range(1));
  GemmDims d{256, 256, 256};
  std::optional<ConvGather> cv;
  if (path >= 3) {
    cv = kConvs[path - 3];
    d.k = cv->channels * cv->kernel * cv->kernel;
  }
  MicroAbFixture f(d);
  std::vector<float> input;
  if (cv) {
    input.resize(static_cast<std::size_t>(cv->channels) * cv->in_h *
                 cv->in_w);
    Rng rng(17);
    for (float& v : input) v = rng.uniform_float(-1.0f, 1.0f);
    cv->input = input.data();
    f.g.b = nullptr;
    f.g.gather = cv;
  }
  if (path == 1) f.g.op_a = Op::kT;
  if (path == 2) f.g.op_b = Op::kT;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pack_gemm(s, f.g));
  }
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<long long>(pack_footprint_bytes(s, d)));
  state.SetLabel(s.name() + " " + kPaths[path]);
}
BENCHMARK(BM_PackPanels)->ArgsProduct({{0, 5, 11}, {0, 1, 2, 3, 4, 5}});

void BM_ReferenceGemmBlocked(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(2);
  Matrixf a(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  Matrixf b(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  Matrixf c(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  fill_random(a, rng);
  fill_random(b, rng);
  for (auto _ : state) {
    gemm_blocked(a, b, c, 1.0f, 0.0f);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_ReferenceGemmBlocked)->Arg(64)->Arg(256);

void BM_Im2col(benchmark::State& state) {
  ConvShape s;
  s.in_c = 64;
  s.out_c = 64;
  s.kernel = 3;
  s.stride = 1;
  s.pad = 1;
  s.in_h = 28;
  s.in_w = 28;
  Rng rng(3);
  Tensor4 input(1, s.in_c, s.in_h, s.in_w);
  fill_random(input, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(im2col(s, input));
  }
}
BENCHMARK(BM_Im2col);

void BM_ForestPredict(benchmark::State& state) {
  RfTrainingConfig config;
  config.num_cases = 80;
  config.forest.num_trees = 32;
  config.ranges.max_batch = 16;
  config.ranges.max_mn = 256;
  config.ranges.max_k = 512;
  const RandomForest forest = train_batching_forest(config);
  const std::vector<double> features{128.0, 128.0, 64.0, 16.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.predict(features));
  }
  state.SetLabel("online selector cost (paper: 7-8 comparisons)");
}
BENCHMARK(BM_ForestPredict);

// ------------------------------------------------ executor parallelism ----
// Fig. 9-style variable-K batch (M=N=128, K sweeping 16..2048) used by the
// executor-throughput and thread-scaling benchmarks. Built once; the
// operands point into the fixture's own matrices.
struct ExecutorFixture {
  std::vector<GemmDims> dims;
  std::vector<Matrixf> a, b, c;
  std::vector<GemmOperands> ops;
  PlanSummary summary;
  long long flops = 0;
};

const ExecutorFixture& executor_fixture() {
  static const ExecutorFixture* fixture = [] {
    auto* f = new ExecutorFixture;
    const std::vector<int> ks = {16, 32, 64, 128, 256, 512, 1024, 2048};
    for (int i = 0; i < 16; ++i)
      f->dims.push_back(GemmDims{128, 128, ks[static_cast<std::size_t>(i) %
                                              ks.size()]});
    Rng rng(7);
    for (const auto& d : f->dims) {
      f->a.emplace_back(static_cast<std::size_t>(d.m),
                        static_cast<std::size_t>(d.k));
      f->b.emplace_back(static_cast<std::size_t>(d.k),
                        static_cast<std::size_t>(d.n));
      f->c.emplace_back(static_cast<std::size_t>(d.m),
                        static_cast<std::size_t>(d.n));
      fill_random(f->a.back(), rng);
      fill_random(f->b.back(), rng);
      f->flops += d.flops();
    }
    for (std::size_t i = 0; i < f->dims.size(); ++i)
      f->ops.push_back(operands(f->a[i], f->b[i], f->c[i]));
    const BatchedGemmPlanner planner;
    f->summary = planner.plan(f->dims);
    return f;
  }();
  return *fixture;
}

// Thread scaling of the persistent-threads executor over the variable-K
// batch: the per-thread speedup curve is the perf-trajectory metric for the
// host parallel engine.
void BM_RunBatchedPlanThreads(benchmark::State& state) {
  const ExecutorFixture& f = executor_fixture();
  ScopedParallelThreads guard(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    run_batched_plan(f.summary.plan, f.ops, 1.0f, 0.0f);
    benchmark::DoNotOptimize(const_cast<Matrixf&>(f.c.front()).data());
  }
  state.SetItemsProcessed(state.iterations() * f.flops);
  state.SetLabel(std::to_string(f.summary.plan.num_blocks()) + " blocks, " +
                 std::to_string(state.range(0)) + " threads");
}
BENCHMARK(BM_RunBatchedPlanThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Same batch through the vbatch executor (bubble blocks included).
void BM_RunVbatchThreads(benchmark::State& state) {
  const ExecutorFixture& f = executor_fixture();
  const auto& s = single_gemm_strategy(TileShape::kLarge);
  ScopedParallelThreads guard(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    run_vbatch(s, f.ops, 1.0f, 0.0f);
    benchmark::DoNotOptimize(const_cast<Matrixf&>(f.c.front()).data());
  }
  state.SetItemsProcessed(state.iterations() * f.flops);
}
BENCHMARK(BM_RunVbatchThreads)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Whole-GEMM executor throughput at the default thread count (FLOP/s label
// via items processed).
void BM_RunSingleGemmExecutor(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(11);
  const GemmDims d{n, n, 256};
  Matrixf a(static_cast<std::size_t>(d.m), static_cast<std::size_t>(d.k));
  Matrixf b(static_cast<std::size_t>(d.k), static_cast<std::size_t>(d.n));
  Matrixf c(static_cast<std::size_t>(d.m), static_cast<std::size_t>(d.n));
  fill_random(a, rng);
  fill_random(b, rng);
  const GemmOperands g = operands(a, b, c);
  const auto& s = batched_strategy(TileShape::kLarge, ThreadVariant::k256);
  for (auto _ : state) {
    run_single_gemm(s, g, 1.0f, 0.0f);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * d.flops());
  state.SetLabel(std::to_string(parallel_max_threads()) + " threads");
}
BENCHMARK(BM_RunSingleGemmExecutor)->Arg(256)->Arg(512)->UseRealTime();

void BM_MagmaVbatchSim(benchmark::State& state) {
  const std::vector<GemmDims> dims(static_cast<std::size_t>(state.range(0)),
                                   GemmDims{128, 128, 256});
  const GpuArch& arch = gpu_arch(GpuModel::kV100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_magma_timed(arch, dims));
  }
}
BENCHMARK(BM_MagmaVbatchSim)->Arg(16)->Arg(256);

// Minimal CSV file reporter: when CTB_BENCH_CSV names a file, one row per
// benchmark run lands there alongside the normal console output. (The
// library's own CSVReporter is deprecated, so the few columns the sweep
// scripts need are emitted directly.)
class CsvFileReporter : public benchmark::BenchmarkReporter {
 public:
  bool ReportContext(const Context&) override {
    // Same "# isa=...,threads=..." provenance comment the sweep binaries'
    // CsvSink writes, so paired A/B artifacts from different hosts or
    // CTB_SIMD_ISA overrides are self-describing.
    GetOutputStream()
        << "# isa=" << simd_isa_name(ctb::active_simd_isa())
        << ",threads=" << ctb::parallel_max_threads() << '\n'
        << "name,iterations,real_time_s,cpu_time_s,items_per_second,label\n";
    return true;
  }
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& r : reports) {
      const double iters =
          r.iterations > 0 ? static_cast<double>(r.iterations) : 1.0;
      double items_per_second = 0.0;
      if (const auto it = r.counters.find("items_per_second");
          it != r.counters.end())
        items_per_second = it->second;
      GetOutputStream() << r.benchmark_name() << ',' << r.iterations << ','
                        << r.real_accumulated_time / iters << ','
                        << r.cpu_accumulated_time / iters << ','
                        << items_per_second << ",\"" << r.report_label
                        << "\"\n";
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  // CTB_BENCH_CSV=<file> is sugar for --benchmark_out=<file> with the CSV
  // reporter above; the library opens the file and owns the stream.
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  const char* csv_path = std::getenv("CTB_BENCH_CSV");
  const bool want_csv = csv_path != nullptr && *csv_path != '\0';
  if (want_csv) {
    out_flag = std::string("--benchmark_out=") + csv_path;
    args.push_back(out_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data()))
    return 1;
  benchmark::ConsoleReporter display;
  if (want_csv) {
    CsvFileReporter file;
    benchmark::RunSpecifiedBenchmarks(&display, &file);
  } else {
    benchmark::RunSpecifiedBenchmarks(&display);
  }
  benchmark::Shutdown();
  return 0;
}
