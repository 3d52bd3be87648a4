// Host parallel-for used by every layer (functional executors, dnn loops,
// bench sweeps). One idiom everywhere: OpenMP when the build enables it
// (CTB_ENABLE_OPENMP=ON and the toolchain provides it), a plain serial loop
// otherwise — callers never touch OpenMP pragmas directly.
//
// Contract:
//   - `parallel_for(n, f)` invokes f(i) exactly once for every i in [0, n).
//     Iterations may run concurrently and in any order, so f must only write
//     state disjoint per iteration (the executors satisfy this because a
//     validated plan covers each C tile exactly once).
//   - Workers claim iterations dynamically, one at a time, in ascending
//     index order: an uneven iteration (a heavy plan block) or a descheduled
//     worker delays only the iteration it holds, never a fixed share of the
//     loop. Which worker runs which iteration is unspecified.
//   - Exceptions thrown by f are captured and the first one is rethrown on
//     the calling thread after the loop drains, preserving the serial
//     failure contract (CTB_CHECK throws propagate out of parallel regions).
//   - `set_parallel_threads(1)` forces serial execution at runtime; tests
//     use it to compare parallel results bit-exactly against the serial
//     path. 0 restores the hardware default.
#pragma once

#include <exception>
#include <utility>

#ifdef CTB_HAVE_OPENMP
#include <omp.h>
#endif

// Under ThreadSanitizer the OpenMP backend would report false positives:
// libgomp is not TSan-instrumented, so the join barrier's happens-before
// edge is invisible and every post-region read of worker-written data looks
// racy. A std::thread fork-join backend keeps the same parallel semantics
// with TSan-visible synchronization (pthread create/join), so genuine races
// in user code — e.g. two blocks writing one C element — are still caught.
#if defined(__SANITIZE_THREAD__)
#define CTB_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CTB_TSAN_BUILD 1
#endif
#endif

#ifdef CTB_TSAN_BUILD
#include <atomic>
#include <mutex>
#include <thread>
#include <vector>
#endif

namespace ctb {

/// Runtime worker-count override: n >= 1 forces exactly n workers for
/// subsequent parallel_for calls on this process, 0 restores the default
/// (OpenMP's max thread count, or 1 in serial builds).
void set_parallel_threads(int n);

/// The current override (0 if none is set).
int parallel_threads_override();

/// Effective worker count a parallel_for would use right now.
int parallel_max_threads();

/// RAII thread-count override, restoring the previous value on scope exit.
class ScopedParallelThreads {
 public:
  explicit ScopedParallelThreads(int n) : prev_(parallel_threads_override()) {
    set_parallel_threads(n);
  }
  ~ScopedParallelThreads() { set_parallel_threads(prev_); }
  ScopedParallelThreads(const ScopedParallelThreads&) = delete;
  ScopedParallelThreads& operator=(const ScopedParallelThreads&) = delete;

 private:
  int prev_;
};

template <typename F>
void parallel_for(long long n, F&& f) {
  if (n <= 0) return;
#if defined(CTB_TSAN_BUILD)
  const int max_threads = parallel_max_threads();
  const int workers = static_cast<int>(
      n < max_threads ? n : static_cast<long long>(max_threads));
  if (workers > 1) {
    std::exception_ptr error;
    std::mutex error_mu;
    // Shared claim counter: the same one-at-a-time dynamic claiming as the
    // OpenMP schedule, so the race legs exercise the production schedule.
    std::atomic<long long> next{0};
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        for (long long i = next.fetch_add(1, std::memory_order_relaxed);
             i < n; i = next.fetch_add(1, std::memory_order_relaxed)) {
          try {
            f(i);
          } catch (...) {
            const std::lock_guard<std::mutex> lock(error_mu);
            if (!error) error = std::current_exception();
          }
        }
      });
    }
    for (std::thread& t : pool) t.join();
    if (error) std::rethrow_exception(error);
    return;
  }
#elif defined(CTB_HAVE_OPENMP)
  const int max_threads = parallel_max_threads();
  const int workers = static_cast<int>(
      n < max_threads ? n : static_cast<long long>(max_threads));
  if (workers > 1) {
    std::exception_ptr error;
#pragma omp parallel for num_threads(workers) schedule(dynamic, 1)
    for (long long i = 0; i < n; ++i) {
      try {
        f(i);
      } catch (...) {
#pragma omp critical(ctb_parallel_for_error)
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }
#endif
  for (long long i = 0; i < n; ++i) f(i);
}

}  // namespace ctb
