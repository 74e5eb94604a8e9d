#include "ts/parallel.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "diag/metrics.hpp"

namespace symcex::ts {

unsigned env_threads() {
  const char* raw = std::getenv("SYMCEX_THREADS");
  if (raw == nullptr || *raw == '\0') return 1;
  char* end = nullptr;
  const unsigned long v = std::strtoul(raw, &end, 10);
  if (end == raw || *end != '\0' || v == 0) return 1;
  return static_cast<unsigned>(std::min<unsigned long>(v, 64));
}

ParallelExecutor::ParallelExecutor(bdd::Manager& mgr, unsigned threads)
    : mgr_(mgr) {
  if (threads <= 1) return;
  workers_.reserve(threads - 1);
  for (unsigned i = 0; i < threads - 1; ++i) {
    // Worker i binds manager thread-context slot i + 1 per batch; slot 0
    // belongs to the coordinator.
    workers_.emplace_back([this, slot = i + 1] { worker_main(slot); });
  }
}

ParallelExecutor::~ParallelExecutor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ParallelExecutor::work_on(Batch& batch) {
  const std::size_t n = batch.tasks->size();
  for (;;) {
    const std::size_t t = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (t >= n) break;
    try {
      batch.results[t] = (*batch.tasks)[t]();
    } catch (...) {
      batch.errors[t] = std::current_exception();
    }
    if (batch.done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
      std::lock_guard<std::mutex> lock(mu_);
      done_cv_.notify_all();
    }
  }
}

void ParallelExecutor::worker_main(unsigned slot) {
  std::uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || batch_seq_ > seen; });
      if (stop_) return;
      seen = batch_seq_;
      batch = batch_;
      if (batch) ++batch->participants;
    }
    if (!batch) continue;
    // Hold the manager's quiescence gate (shared side) while touching the
    // table: stop-the-world sections (gc / reorder / audit) take the
    // exclusive side and therefore wait for in-flight workers to drain.
    mgr_.bind_worker(slot);
    mgr_.gate_lock_shared();
    work_on(*batch);
    mgr_.gate_unlock_shared();
    mgr_.unbind_worker();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--batch->participants == 0) done_cv_.notify_all();
    }
  }
}

std::vector<bdd::Bdd> ParallelExecutor::run(
    const std::vector<std::function<bdd::Bdd()>>& tasks) {
  const std::size_t n = tasks.size();
  if (workers_.empty() || n <= 1) {
    // Inline execution: no region, identical to the sequential engine.
    std::vector<bdd::Bdd> results;
    results.reserve(n);
    for (const auto& t : tasks) results.push_back(t());
    return results;
  }

  auto batch = std::make_shared<Batch>();
  batch->tasks = &tasks;
  batch->results.resize(n);
  batch->errors.resize(n);

  mgr_.parallel_region_begin(static_cast<unsigned>(workers_.size()));
  {
    std::lock_guard<std::mutex> lock(mu_);
    batch_ = batch;
    ++batch_seq_;
  }
  work_cv_.notify_all();

  // The coordinator pitches in on thread-context slot 0 (its default),
  // under the shared gate like any worker.
  mgr_.gate_lock_shared();
  work_on(*batch);
  mgr_.gate_unlock_shared();

  {
    std::unique_lock<std::mutex> lock(mu_);
    // Unpublish once every task is done, so no further worker takes the
    // batch; then wait for the workers that already took it to leave.
    done_cv_.wait(lock, [&] {
      return batch->done.load(std::memory_order_acquire) == n;
    });
    batch_ = nullptr;
    done_cv_.wait(lock, [&] { return batch->participants == 0; });
  }
  // No worker is inside the batch or bound to the manager any more (each
  // one leaves only after unbinding); close the region.  On an aborted
  // region this runs the manager's recovery.
  mgr_.parallel_region_end();

  // Rethrow the lowest-indexed primary failure.  WorkerCancelled entries
  // are secondary -- peers cancelled by the abort flag the primary set.
  for (const std::exception_ptr& err : batch->errors) {
    if (!err) continue;
    try {
      std::rethrow_exception(err);
    } catch (const bdd::WorkerCancelled&) {
      continue;
    }
  }
  // Defensive: a cancellation with no recorded primary (cannot happen --
  // the first abort-flag setter always records its own exception).
  for (const std::exception_ptr& err : batch->errors) {
    if (err) std::rethrow_exception(err);
  }
  return std::move(batch->results);
}

bdd::Bdd sliced_parallel_sweep(
    bdd::Manager& mgr, ParallelExecutor& exec, const bdd::Bdd& operand,
    const std::function<bdd::Bdd(const bdd::Bdd&)>& sweep) {
  const unsigned threads = exec.threads();
  if (threads <= 1 || operand.is_null() || operand.is_constant() ||
      operand.dag_size() < 16) {
    return sweep(operand);
  }
  const std::vector<std::uint32_t> support = operand.support();
  if (support.empty()) return sweep(operand);

  // Split on the first k support variables (ascending variable index --
  // deterministic regardless of thread count): 2^k slices, at least two
  // per thread so an unbalanced split still keeps everyone busy, capped
  // so slicing overhead stays negligible.
  unsigned k = 1;
  while ((std::size_t{1} << k) < 2 * static_cast<std::size_t>(threads) &&
         k < 6) {
    ++k;
  }
  k = static_cast<unsigned>(
      std::min<std::size_t>(k, support.size()));

  // Cofactor tree: 2^(k+1) cheap restrictions, built sequentially so the
  // slice set is identical run to run.
  std::vector<bdd::Bdd> slices{operand};
  for (unsigned j = 0; j < k; ++j) {
    const bdd::Bdd lit = mgr.var(support[j]);
    std::vector<bdd::Bdd> split;
    split.reserve(slices.size() * 2);
    for (const bdd::Bdd& s : slices) {
      split.push_back(s & !lit);
      split.push_back(s & lit);
    }
    slices = std::move(split);
  }

  std::vector<std::function<bdd::Bdd()>> tasks;
  tasks.reserve(slices.size());
  const bdd::Bdd empty = mgr.zero();
  for (const bdd::Bdd& slice : slices) {
    if (slice.is_false()) {
      tasks.push_back([empty] { return empty; });
    } else {
      tasks.push_back([&sweep, slice] { return sweep(slice); });
    }
  }

  // Engine metrics are pinned to the "parallel" phase (not the caller's
  // phase stack): sweeps fan out from arbitrary fixpoints, and pinning
  // gives tests and reports one stable place to find them.
  const bool diag_on = diag::enabled();
  if (diag_on) {
    auto& r = diag::Registry::global();
    r.add_in("parallel", "sweeps", 1);
    r.add_in("parallel", "slices", slices.size());
  }
  std::vector<bdd::Bdd> pieces;
  try {
    pieces = exec.run(tasks);
  } catch (const bdd::ParallelCapacityExceeded&) {
    // The region's frozen node capacity ran out.  The manager has already
    // recovered (region closed, orphans collected); redo sequentially,
    // where the table can grow freely.
    if (diag_on)
      diag::Registry::global().add_in("parallel", "capacity_fallback", 1);
    return sweep(operand);
  } catch (const std::bad_alloc&) {
    if (diag_on)
      diag::Registry::global().add_in("parallel", "capacity_fallback", 1);
    return sweep(operand);
  }

  // Fixed reduction order: ascending slice index.  The operands are a
  // disjoint cover of `operand`, so the union equals the unsliced sweep;
  // canonicity makes the equality literal handle equality.
  bdd::Bdd acc = empty;
  for (const bdd::Bdd& piece : pieces) acc |= piece;
  return acc;
}

}  // namespace symcex::ts
