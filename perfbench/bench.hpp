// Call-level benchmark of the batched-GEMM library (see README.md).
//
// A *call* is one batched-GEMM dispatch as a training or inference loop
// issues it: plan lookup (or inline planning on a miss) followed by
// execute_plan. Each workload is a closed loop with one client thread that
// waits for every call before issuing the next; the library runs at its
// default thread count. Everything here drives the library through its
// public API only.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/api.hpp"

namespace perfbench {

/// Microseconds on the steady clock, on the telemetry layer's epoch so the
/// benchmark's spans and the library's spans share one time axis.
double now_us();

class Ledger;

/// What the plan front answered for one call.
struct Lookup {
  const ctb::PlanSummary* summary = nullptr;
  bool miss = false;  ///< planned inline rather than served from cache
  double lookup_us = 0;   ///< time in the plan front
  double execute_us = 0;  ///< time in execute_plan
};

/// One workload: a deterministic stream of calls generated from a seed.
/// The client loop is prepare (untimed) -> call (timed) -> verify (untimed).
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds a fresh plan front (PlanCache or PlanService). Together with
  /// the warm-up calls -- one per warm-up batch, which plan every batch and
  /// start the thread pool -- this is the program's set-up (setup_s).
  virtual void reset_front() = 0;
  virtual long warmup_calls() const = 0;
  /// Untimed: makes warm-up call `i` current (no reference outputs).
  virtual void prepare_warmup(long i) = 0;

  /// Untimed: makes call `index` current and its inputs ready (activation
  /// refresh, output poisoning, request generation, reference outputs).
  virtual void prepare(long index) = 0;

  /// Timed: plan lookup plus execute_plan for the current call, each
  /// wrapped in a span under `root` when `ledger` is non-null. Throws what
  /// the library throws.
  Lookup call(Ledger* ledger, long call_id, int root);

  /// Untimed: bitwise comparison of every output of the current call with
  /// its reference (reference_gemm, the library's bit-exact oracle).
  virtual bool verify() const = 0;

  /// Flips one bit of one output of the current call (self-test only).
  void corrupt_output();

  /// Useful GEMM FLOPs of the current call.
  double flops() const;
  /// Grouping key for stall detection: calls sharing a key do the same
  /// work, so a 10x outlier within a key is a stall, not a bigger call.
  virtual std::string key() const = 0;
  /// Operands of the current call (what execute_plan receives).
  virtual std::span<const ctb::GemmOperands> operands() const = 0;
  /// Planner configuration the current call's plan front uses.
  virtual const ctb::PlannerConfig& planner_config() const = 0;

  /// Summed simulated device time (time_plan) of one fixed pass over the
  /// workload's calls; deterministic for a given seed.
  virtual double sim_us() = 0;
  /// The lookup span's name: the plan front this workload uses.
  virtual const char* lookup_name() const = 0;

 protected:
  virtual Lookup lookup() = 0;
};

/// Builds the named workload ("infer_steady", "serve_churn", "train_step")
/// with its inputs and reference outputs; nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

/// Host ceilings measured by a single-core probe.
struct HostCeiling {
  std::string isa;          ///< widest vector ISA the probe used
  double muladd_gflops = 0;  ///< dependent separate multiply + add chains
  double fma_gflops = 0;     ///< dependent fused multiply-add chains
  double copy_gbps = 0;      ///< memcpy, bytes written per second
  std::size_t copy_bytes = 0;  ///< copy working set (source + destination)
};
HostCeiling probe_host();

}  // namespace perfbench
