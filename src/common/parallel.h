// Minimal deterministic data-parallel helper for the offline phase.
//
// ParallelFor partitions [0, n) across worker threads; the callable must
// be safe to run concurrently for distinct indices and must write only to
// per-index slots. Results are therefore independent of thread count and
// scheduling — determinism is preserved by construction.
#ifndef CKR_COMMON_PARALLEL_H_
#define CKR_COMMON_PARALLEL_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "common/check.h"

namespace ckr {

namespace internal {

/// Debug-only tripwire for the per-index-slot discipline: every index in
/// [0, n) must be dispatched to exactly one worker. The atomic dispenser
/// guarantees this by construction, so a second claim of the same index
/// means the dispenser (or a future refactor of it) is broken — exactly
/// the kind of silent determinism loss this layer exists to catch.
class DispatchLedger {
 public:
  explicit DispatchLedger(size_t n) {
#if CKR_DEBUG_CHECKS
    claimed_ = std::make_unique<std::atomic<uint8_t>[]>(n);
    for (size_t i = 0; i < n; ++i) {
      claimed_[i].store(0, std::memory_order_relaxed);
    }
#else
    (void)n;
#endif
  }

  void Claim(size_t i) {
#if CKR_DEBUG_CHECKS
    // Relaxed is enough for the tripwire: exchange is an atomic RMW, so
    // two claims of the same index always observe each other.
    CKR_CHECK(claimed_[i].exchange(1, std::memory_order_relaxed) == 0);
#else
    (void)i;
#endif
  }

 private:
#if CKR_DEBUG_CHECKS
  // ckr-lint: unguarded(per-index claim flags; exchange RMW is the sync)
  std::unique_ptr<std::atomic<uint8_t>[]> claimed_;
#endif
};

}  // namespace internal

/// Runs fn(i) for every i in [0, n) using up to `num_threads` workers
/// (0 or 1 = run inline on the calling thread). Blocks until done.
template <typename Fn>
void ParallelFor(size_t n, unsigned num_threads, Fn&& fn) {
  if (n == 0) return;
  if (num_threads <= 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  unsigned workers = num_threads;
  if (workers > n) workers = static_cast<unsigned>(n);
  std::atomic<size_t> next{0};
  internal::DispatchLedger ledger(n);
  auto body = [&]() {
    while (true) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      ledger.Claim(i);
      fn(i);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (unsigned t = 0; t + 1 < workers; ++t) threads.emplace_back(body);
  body();
  for (std::thread& t : threads) t.join();
}

/// Like ParallelFor, but the callable receives (worker, i) where `worker`
/// is a dense id in [0, effective workers). Lets callers keep one scratch
/// object per worker so the steady state allocates nothing per item.
/// Worker ids — not item-to-worker assignment — are deterministic; the
/// callable must still write only to per-index output slots for results to
/// be independent of scheduling. Worker 0 always runs on the calling
/// thread, so it may use that thread's thread-local state.
template <typename Fn>
void ParallelForWorkers(size_t n, unsigned num_threads, Fn&& fn) {
  if (n == 0) return;
  if (num_threads <= 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(0u, i);
    return;
  }
  unsigned workers = num_threads;
  if (workers > n) workers = static_cast<unsigned>(n);
  std::atomic<size_t> next{0};
  internal::DispatchLedger ledger(n);
  auto body = [&](unsigned worker) {
    CKR_DCHECK_LT(worker, workers);
    while (true) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      ledger.Claim(i);
      fn(worker, i);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (unsigned t = 0; t + 1 < workers; ++t) {
    threads.emplace_back(body, t + 1);
  }
  body(0);
  for (std::thread& t : threads) t.join();
}

/// A sensible default worker count for the offline phase.
inline unsigned DefaultWorkerCount() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace ckr

#endif  // CKR_COMMON_PARALLEL_H_
