// The three workloads. Inputs come from the seed alone; the library sees
// only the generated operands.
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>

#include "bench.hpp"
#include "core/epilogue.hpp"
#include "core/plan_io.hpp"
#include "dnn/conv.hpp"
#include "dnn/googlenet.hpp"
#include "dnn/im2col.hpp"
#include "dnn/implicit_gemm.hpp"
#include "dnn/squeezenet.hpp"
#include "ledger.hpp"
#include "service/plan_service.hpp"
#include "telemetry/telemetry.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace perfbench {

using ctb::GemmDims;
using ctb::GemmOperands;
using ctb::PlannerConfig;
using ctb::PlanSummary;

Lookup Workload::call(Ledger* ledger, long call_id, int root) {
  int span = ledger ? ledger->open(lookup_name(), root, call_id) : -1;
  const double t0 = now_us();
  Lookup found = lookup();
  const double t1 = now_us();
  if (ledger) {
    ledger->close(span);
    span = ledger->open("kernels.execute", root, call_id);
  }
  const double t2 = now_us();
  ctb::execute_plan(found.summary->plan, operands(), 1.0f, 0.0f);
  const double t3 = now_us();
  if (ledger) ledger->close(span);
  found.lookup_us = t1 - t0;
  found.execute_us = t3 - t2;
  return found;
}

void Workload::corrupt_output() {
  float* c = operands().front().c;
  std::uint32_t bits = 0;
  std::memcpy(&bits, c, sizeof bits);
  bits ^= 1u;
  std::memcpy(c, &bits, sizeof bits);
}

double Workload::flops() const {
  double total = 0;
  for (const GemmOperands& g : operands())
    total += static_cast<double>(g.dims.flops());
  return total;
}

namespace {

constexpr float kPoison = std::numeric_limits<float>::quiet_NaN();

void fill_random(std::span<float> v, ctb::Rng& rng) {
  for (float& x : v) x = rng.uniform_float(-1.0f, 1.0f);
}

bool same_bits(const float* a, const std::vector<float>& b) {
  return std::memcmp(a, b.data(), b.size() * sizeof(float)) == 0;
}

std::size_t out_size(const GemmOperands& g) {
  return static_cast<std::size_t>(g.dims.m) * g.dims.n;
}

// ---------------------------------------------------------------------------
// Fixed call cycles served from a PlanCache (infer_steady, train_step).

class FixedWorkload : public Workload {
 public:
  void prepare(long index) override {
    const long n = static_cast<long>(batches_.size());
    current_ = static_cast<std::size_t>(index % n);
    variant_ = static_cast<std::size_t>((index / n) % kVariants);
    const Batch& b = batches_[current_];
    for (const int a : b.activations) {
      const Activation& act = acts_[static_cast<std::size_t>(a)];
      std::copy(act.variants[variant_].begin(), act.variants[variant_].end(),
                act.live.begin());
    }
    for (const GemmOperands& g : b.ops)
      std::fill_n(g.c, out_size(g), kPoison);
  }

  bool verify() const override {
    const Batch& b = batches_[current_];
    for (std::size_t g = 0; g < b.ops.size(); ++g)
      if (!same_bits(b.ops[g].c, b.expected[variant_][g])) return false;
    return true;
  }

  std::string key() const override { return batches_[current_].key; }
  std::span<const GemmOperands> operands() const override {
    return batches_[current_].ops;
  }
  const PlannerConfig& planner_config() const override { return config_; }
  const char* lookup_name() const override { return "plan_cache.plan"; }

  void reset_front() override {
    cache_.reset();
    cache_ = std::make_unique<ctb::PlanCache>(config_);
  }
  long warmup_calls() const override {
    return static_cast<long>(batches_.size());
  }
  void prepare_warmup(long i) override { prepare(i); }

  double sim_us() override {
    double total = 0;
    for (long i = 0; i < static_cast<long>(batches_.size()); ++i) {
      prepare(i);
      const Lookup l = lookup();
      total += ctb::time_plan(ctb::gpu_arch(config_.gpu), l.summary->plan,
                              batches_[current_].dims, config_.precision)
                   .time_us;
    }
    return total;
  }

 protected:
  static constexpr std::size_t kVariants = 2;

  // An input the caller rewrites between calls: the buffer the operands
  // read, and the contents it takes on alternate passes.
  struct Activation {
    std::span<float> live;
    std::vector<std::vector<float>> variants;
  };

  struct Batch {
    std::string key;
    std::vector<GemmDims> dims;
    std::vector<int> epilogues;  // empty: none
    std::vector<GemmOperands> ops;
    std::vector<int> activations;  // refreshed before each call
    std::vector<std::vector<std::vector<float>>> expected;  // [variant][gemm]
  };

  Lookup lookup() override {
    const Batch& b = batches_[current_];
    const std::int64_t misses = cache_->misses();
    const PlanSummary& s = b.epilogues.empty()
                               ? cache_->plan(b.dims)
                               : cache_->plan(b.dims, b.epilogues);
    return {&s, cache_->misses() != misses};
  }

  float* buffer(std::size_t n, ctb::Rng* rng) {
    std::vector<float>& v = store_.emplace_back(n, 0.0f);
    if (rng != nullptr) fill_random(v, *rng);
    return v.data();
  }

  int activation(std::span<float> live, ctb::Rng& rng) {
    Activation a;
    a.live = live;
    for (std::size_t v = 0; v < kVariants; ++v) {
      a.variants.emplace_back(live.size());
      fill_random(a.variants.back(), rng);
    }
    acts_.push_back(std::move(a));
    return static_cast<int>(acts_.size()) - 1;
  }

  // Reference outputs of every (batch, variant) through reference_gemm,
  // the library's bit-exact oracle; GEMMs fan out over the library's own
  // parallel_for.
  void compute_expected() {
    for (Batch& b : batches_)
      b.expected.assign(kVariants,
                        std::vector<std::vector<float>>(b.ops.size()));
    for (std::size_t v = 0; v < kVariants; ++v) {
      for (const Activation& a : acts_)
        std::copy(a.variants[v].begin(), a.variants[v].end(), a.live.begin());
      std::vector<std::pair<std::size_t, std::size_t>> jobs;
      for (std::size_t bi = 0; bi < batches_.size(); ++bi)
        for (std::size_t g = 0; g < batches_[bi].ops.size(); ++g)
          jobs.emplace_back(bi, g);
      ctb::parallel_for(static_cast<long long>(jobs.size()), [&](long long j) {
        const auto [bi, g] = jobs[static_cast<std::size_t>(j)];
        Batch& b = batches_[bi];
        std::vector<float>& out = b.expected[v][g];
        out.assign(out_size(b.ops[g]), 0.0f);
        GemmOperands ref = b.ops[g];
        ref.c = out.data();
        ctb::reference_gemm(ref, 1.0f, 0.0f);
      });
    }
  }

  const PlannerConfig config_;  // defaults: kAutoOffline, split-K kAuto
  std::unique_ptr<ctb::PlanCache> cache_;
  std::vector<Batch> batches_;
  std::vector<Activation> acts_;
  std::deque<std::vector<float>> store_;  // stable addresses
  std::deque<ctb::Tensor4> tensors_;
  std::size_t current_ = 0;
  std::size_t variant_ = 0;
};

// infer_steady: one inference pass per cycle through the paper's Section
// 7.3 batches in network order -- every GoogLeNet inception stage, then
// every SqueezeNet fire expand -- fp32 N/N under the auto-offline policy.
// Weights are fixed; activations take new contents every pass.
class InferSteady : public FixedWorkload {
 public:
  explicit InferSteady(std::uint64_t seed) {
    ctb::Rng rng(seed);
    for (const ctb::InceptionModule& m : ctb::googlenet_inception_modules())
      for (int stage : {1, 2})
        add("googlenet/" + m.name + "/s" + std::to_string(stage),
            m.stage_gemms(stage, kImages), rng);
    for (const ctb::FireModule& f : ctb::squeezenet_fire_modules())
      add("squeezenet/" + f.name + "/expand", f.expand_gemms(kImages), rng);
    compute_expected();
  }

 private:
  static constexpr int kImages = 1;

  void add(std::string key, std::vector<GemmDims> dims, ctb::Rng& rng) {
    Batch b;
    b.key = std::move(key);
    for (const GemmDims& d : dims) {
      GemmOperands g;
      g.dims = d;
      g.a = buffer(static_cast<std::size_t>(d.m) * d.k, &rng);
      float* act = buffer(static_cast<std::size_t>(d.k) * d.n, nullptr);
      g.b = act;
      g.c = buffer(static_cast<std::size_t>(d.m) * d.n, nullptr);
      b.activations.push_back(activation(
          {act, static_cast<std::size_t>(d.k) * d.n}, rng));
      b.ops.push_back(std::move(g));
    }
    b.dims = std::move(dims);
    batches_.push_back(std::move(b));
  }
};

// train_step: one training step over inception 4e's stage-1 convolutions
// (1x1, 3x3-reduce, 5x5-reduce, pool-proj) at two images, as three calls:
//   forward  implicit GEMM (B gathered from the input tensor) + bias + ReLU
//   wgrad    dW = dY * X_cols^T   (op_b = T, K = images * H * W)
//   dgrad    dX_cols = W^T * dY   (op_a = T)
// The wgrad batch is TLP-scarce (98 tiles x 256 threads, under the split-K
// trigger's 32768), and the default planner keeps a split-K plan for it.
class TrainStep : public FixedWorkload {
 public:
  explicit TrainStep(std::uint64_t seed) {
    ctb::Rng rng(seed);
    const ctb::InceptionModule& m = ctb::googlenet_inception_modules()[6];
    CTB_CHECK(m.name == "inception4e");
    const std::vector<const ctb::ConvShape*> convs = m.stage1();
    const int cols = m.hw * m.hw * kImages;

    // Module input and its 3x3/1 max-pool (the pool-proj branch input),
    // with per-variant im2col matrices for the weight gradient.
    ctb::Tensor4& input = tensors_.emplace_back(kImages, m.in_c, m.hw, m.hw);
    ctb::Tensor4& pooled = tensors_.emplace_back(kImages, m.in_c, m.hw, m.hw);
    const int in_act = activation(input.flat(), rng);
    Activation pooled_act;
    pooled_act.live = pooled.flat();
    std::vector<std::vector<float>> in_cols(kVariants), pool_cols(kVariants);
    for (std::size_t v = 0; v < kVariants; ++v) {
      ctb::Tensor4 x(kImages, m.in_c, m.hw, m.hw);
      const auto& src = acts_[static_cast<std::size_t>(in_act)].variants[v];
      std::copy(src.begin(), src.end(), x.flat().begin());
      const ctb::Tensor4 p = ctb::max_pool(x, 3, 1, 1);
      pooled_act.variants.emplace_back(p.flat().begin(), p.flat().end());
      const ctb::Matrixf xc = ctb::im2col(m.conv1x1, x);
      const ctb::Matrixf pc = ctb::im2col(m.pool_proj, p);
      in_cols[v].assign(xc.flat().begin(), xc.flat().end());
      pool_cols[v].assign(pc.flat().begin(), pc.flat().end());
    }
    acts_.push_back(std::move(pooled_act));
    const int pool_act = static_cast<int>(acts_.size()) - 1;
    const std::size_t col_size = static_cast<std::size_t>(m.in_c) * cols;
    float* in_cols_live = buffer(col_size, nullptr);
    float* pool_cols_live = buffer(col_size, nullptr);
    acts_.push_back({{in_cols_live, col_size}, in_cols});
    const int in_cols_act = static_cast<int>(acts_.size()) - 1;
    acts_.push_back({{pool_cols_live, col_size}, pool_cols});
    const int pool_cols_act = static_cast<int>(acts_.size()) - 1;

    Batch fwd, wgrad, dgrad;
    fwd.key = "train/" + m.name + "/forward";
    wgrad.key = "train/" + m.name + "/wgrad";
    dgrad.key = "train/" + m.name + "/dgrad";
    int relu_bias = ctb::epilogue_push(0, ctb::EpilogueOp::kBias);
    relu_bias = ctb::epilogue_push(relu_bias, ctb::EpilogueOp::kRelu);
    for (const ctb::ConvShape* conv : convs) {
      const bool pool = conv == &m.pool_proj;
      const int out_c = conv->out_c;
      const std::size_t dy_size = static_cast<std::size_t>(out_c) * cols;
      ctb::Matrixf& w = filters_.emplace_back(ctb::random_filters(*conv, rng));
      float* bias = buffer(static_cast<std::size_t>(out_c), &rng);
      float* dy = buffer(dy_size, nullptr);
      const int dy_act = activation({dy, dy_size}, rng);

      ctb::Matrixf& y = outputs_.emplace_back(static_cast<std::size_t>(out_c),
                                              static_cast<std::size_t>(cols));
      GemmOperands f =
          ctb::implicit_conv_operands(*conv, pool ? pooled : input, w, y);
      f.epilogue = relu_bias;
      f.epilogue_args.bias = bias;
      f.epilogue_args.bias_len = out_c;
      fwd.dims.push_back(f.dims);
      fwd.epilogues.push_back(relu_bias);
      fwd.ops.push_back(std::move(f));

      GemmOperands wg;
      wg.dims = {out_c, m.in_c, cols};
      wg.a = dy;
      wg.b = pool ? pool_cols_live : in_cols_live;
      wg.op_b = ctb::Op::kT;
      wg.c = buffer(static_cast<std::size_t>(out_c) * m.in_c, nullptr);
      wgrad.dims.push_back(wg.dims);
      wgrad.ops.push_back(wg);
      wgrad.activations.push_back(dy_act);

      GemmOperands dg;
      dg.dims = {m.in_c, cols, out_c};
      dg.a = w.data();
      dg.op_a = ctb::Op::kT;
      dg.b = dy;
      dg.c = buffer(col_size, nullptr);
      dgrad.dims.push_back(dg.dims);
      dgrad.ops.push_back(dg);
      dgrad.activations.push_back(dy_act);
    }
    fwd.activations = {in_act, pool_act};
    wgrad.activations.push_back(in_cols_act);
    wgrad.activations.push_back(pool_cols_act);
    batches_.push_back(std::move(fwd));
    batches_.push_back(std::move(wgrad));
    batches_.push_back(std::move(dgrad));
    compute_expected();
  }

 private:
  static constexpr int kImages = 2;
  std::deque<ctb::Matrixf> filters_;
  std::deque<ctb::Matrixf> outputs_;
};

// ---------------------------------------------------------------------------
// serve_churn: mixed-shape requests through the plan service in inline
// mode (deadline 0, no worker thread); each served plan is executed.

// The seeded request stream. Each request is, with equal odds, a repeat of
// an earlier request or a fresh batch never requested before (drawn from an
// unbounded pool), so about half the requests miss and plan inline.
class RequestStream {
 public:
  explicit RequestStream(std::uint64_t seed) : rng_(seed) {}

  const std::vector<GemmDims>& next() {
    if (!issued_.empty() && rng_.bernoulli(0.5)) {
      const auto pick = rng_.uniform_int(
          0, static_cast<std::int64_t>(issued_.size()) - 1);
      return issued_[static_cast<std::size_t>(pick)];
    }
    issued_.push_back(fresh_batch(rng_));
    return issued_.back();
  }

  // 1-6 GEMMs, every dimension log-uniform in [8, 256].
  static std::vector<GemmDims> fresh_batch(ctb::Rng& rng) {
    auto dim = [&] {
      const double l = std::log(8.0) +
                       rng.uniform() * (std::log(256.0) - std::log(8.0));
      return static_cast<int>(std::lround(std::exp(l)));
    };
    std::vector<GemmDims> dims(static_cast<std::size_t>(rng.uniform_int(1, 6)));
    for (GemmDims& d : dims) {
      d.m = dim();
      d.n = dim();
      d.k = dim();
    }
    return dims;
  }

 private:
  ctb::Rng rng_;
  std::deque<std::vector<GemmDims>> issued_;  // references stay valid
};

class ServeChurn : public Workload {
 public:
  explicit ServeChurn(std::uint64_t seed)
      : seed_(seed), stream_(seed) {
    config_.planner = PlannerConfig{};
    config_.shards = 8;
    config_.deadline_us = 0;
    ctb::Rng warm_rng(seed ^ 0x5bd1e995u);
    for (long i = 0; i < kWarmup; ++i)
      warm_.push_back(RequestStream::fresh_batch(warm_rng));
  }

  void prepare(long index) override {
    CTB_CHECK_MSG(index == next_index_, "requests must be prepared in order");
    ++next_index_;
    load(stream_.next(), static_cast<std::uint64_t>(index));
    for (std::size_t g = 0; g < ops_.size(); ++g) {
      GemmOperands ref = ops_[g];
      ref.c = expected_[g].data();
      ctb::reference_gemm(ref, 1.0f, 0.0f);
    }
  }

  bool verify() const override {
    for (std::size_t g = 0; g < ops_.size(); ++g)
      if (!same_bits(ops_[g].c, expected_[g])) return false;
    return true;
  }

  std::string key() const override {
    return std::string(last_miss_ ? "miss/" : "hit/") +
           std::to_string(std::ilogb(flops()));
  }
  std::span<const GemmOperands> operands() const override { return ops_; }
  const PlannerConfig& planner_config() const override {
    return config_.planner;
  }
  const char* lookup_name() const override { return "service.get"; }

  void reset_front() override {
    served_ = {};
    service_.reset();
    service_ = std::make_unique<ctb::service::PlanService>(config_);
  }
  long warmup_calls() const override { return kWarmup; }
  void prepare_warmup(long i) override {
    load(warm_[static_cast<std::size_t>(i)], ~static_cast<std::uint64_t>(i));
  }

  // The first kSimRequests requests of the stream, planned afresh.
  double sim_us() override {
    const ctb::BatchedGemmPlanner planner(config_.planner);
    RequestStream replay(seed_);
    double total = 0;
    for (int i = 0; i < kSimRequests; ++i) {
      const std::vector<GemmDims>& dims = replay.next();
      total += ctb::time_plan(planner.arch(), planner.plan(dims).plan, dims,
                              config_.planner.precision)
                   .time_us;
    }
    return total;
  }

 protected:
  Lookup lookup() override {
    served_ = service_->get(dims_);
    last_miss_ = served_.state != ctb::service::ServeState::kHit;
    return {served_.summary.get(), last_miss_};
  }

 private:
  static constexpr long kWarmup = 48;
  static constexpr int kSimRequests = 1000;

  // Makes `dims` the current request with fresh operand contents (seeded
  // by `salt`) and poisoned outputs.
  void load(const std::vector<GemmDims>& dims, std::uint64_t salt) {
    dims_ = dims;
    ctb::Rng rng(seed_ * 0x9E3779B97F4A7C15ULL + salt);
    const std::size_t n = dims.size();
    a_.resize(n);
    b_.resize(n);
    c_.resize(n);
    expected_.resize(n);
    ops_.assign(n, GemmOperands{});
    for (std::size_t g = 0; g < n; ++g) {
      const GemmDims& d = dims[g];
      a_[g].resize(static_cast<std::size_t>(d.m) * d.k);
      b_[g].resize(static_cast<std::size_t>(d.k) * d.n);
      c_[g].assign(static_cast<std::size_t>(d.m) * d.n, kPoison);
      expected_[g].resize(c_[g].size());
      fill_random(a_[g], rng);
      fill_random(b_[g], rng);
      ops_[g].dims = d;
      ops_[g].a = a_[g].data();
      ops_[g].b = b_[g].data();
      ops_[g].c = c_[g].data();
    }
  }

  ctb::service::PlanServiceConfig config_;
  std::unique_ptr<ctb::service::PlanService> service_;
  ctb::service::ServedPlan served_;
  std::uint64_t seed_;
  RequestStream stream_;
  std::vector<std::vector<GemmDims>> warm_;
  long next_index_ = 0;
  bool last_miss_ = false;
  std::vector<GemmDims> dims_;
  std::vector<std::vector<float>> a_, b_, c_, expected_;
  std::vector<GemmOperands> ops_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "infer_steady") return std::make_unique<InferSteady>(seed);
  if (name == "train_step") return std::make_unique<TrainStep>(seed);
  if (name == "serve_churn") return std::make_unique<ServeChurn>(seed);
  return nullptr;
}

}  // namespace perfbench
