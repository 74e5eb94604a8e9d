// SymCeX -- shared-memory parallel evaluation (DESIGN.md §14).
//
// Two pieces:
//
//   * ParallelExecutor: a bounded pool of worker threads bound to one
//     bdd::Manager.  run() opens a parallel region on the manager
//     (striped unique table, per-thread computed caches -- see
//     bdd::Manager::parallel_region_begin), fans a batch of BDD-producing
//     tasks out over the workers, joins, closes the region, and returns
//     the per-task results in task order.
//
//   * sliced_parallel_sweep(): the decomposition that makes image/
//     preimage parallel.  The per-cluster AndExists sweep is inherently
//     sequential (each step consumes the previous accumulator), so
//     instead of fanning out clusters we fan out *operand slices*:
//     restrict the state-set operand S to the 2^k minterms over the
//     first k variables of its support, run the EXISTING sequential
//     sweep on each disjoint slice concurrently, and OR the results in
//     ascending slice order.  Image and preimage distribute over union,
//     so  sweep(S) = sweep(S&m_0) | ... | sweep(S&m_{2^k-1})  exactly;
//     BDD canonicity makes the combined result the same node-for-node
//     function the sequential engine computes, at ANY thread count --
//     which is why verdicts, certified traces, and evidence bundles do
//     not depend on SYMCEX_THREADS.
//
// With 1 thread nothing here is ever invoked: callers route straight
// through the unchanged sequential code paths, byte-for-byte.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bdd/bdd.hpp"

namespace symcex::ts {

/// Effective thread count from the SYMCEX_THREADS environment variable:
/// unset / unparsable / 0 -> 1, clamped to [1, 64].
[[nodiscard]] unsigned env_threads();

/// A persistent worker pool bound to one manager.  Not itself
/// thread-safe: run() must be called from one coordinating thread at a
/// time (the engine's evaluation loop).
class ParallelExecutor {
 public:
  /// Spawns `threads - 1` workers (the coordinator participates in every
  /// batch, so total parallelism is `threads`).  threads <= 1 spawns
  /// nothing and makes run() execute tasks inline.
  ParallelExecutor(bdd::Manager& mgr, unsigned threads);
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  /// Total parallelism (workers + coordinator).
  [[nodiscard]] unsigned threads() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }
  [[nodiscard]] bdd::Manager& manager() { return mgr_; }

  /// Execute every task, all inside one parallel region of the manager,
  /// and return their results in task order.  If tasks threw, the
  /// lowest-indexed primary exception (anything but the secondary
  /// bdd::WorkerCancelled cancellations it triggered) is rethrown after
  /// the region is closed and the manager recovered.  The manager is
  /// always left with the region closed.
  std::vector<bdd::Bdd> run(
      const std::vector<std::function<bdd::Bdd()>>& tasks);

 private:
  struct Batch {
    const std::vector<std::function<bdd::Bdd()>>* tasks = nullptr;
    std::vector<bdd::Bdd> results;
    std::vector<std::exception_ptr> errors;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    // Workers that took this batch and have not yet left it (guarded by
    // mu_).  run() returns only once this is zero: a worker can take the
    // batch just before its last task finishes and enter work_on after.
    std::size_t participants = 0;
  };

  void worker_main(unsigned slot);
  void work_on(Batch& batch);

  bdd::Manager& mgr_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for a new batch
  std::condition_variable done_cv_;   // coordinator waits for completion
  std::shared_ptr<Batch> batch_;      // null when idle
  std::uint64_t batch_seq_ = 0;
  bool stop_ = false;
};

/// Run `sweep` over `operand` with the executor's parallelism by
/// disjunctive slicing (see the file comment).  Falls back to a single
/// sequential sweep(operand) when parallelism cannot help (1 thread,
/// constant or tiny operand) or when the region aborts because the
/// manager's frozen node capacity ran out mid-region
/// (bdd::ParallelCapacityExceeded) -- the fallback runs after the
/// manager has recovered, so it always succeeds or fails exactly like
/// the sequential engine.  Resource exhaustion (budget) propagates.
[[nodiscard]] bdd::Bdd sliced_parallel_sweep(
    bdd::Manager& mgr, ParallelExecutor& exec, const bdd::Bdd& operand,
    const std::function<bdd::Bdd(const bdd::Bdd&)>& sweep);

}  // namespace symcex::ts
