// Fork-join thread pool for the analysis pipeline.
//
// Reconstruction and diagnosis are sharded across this pool (per node or
// per victim). Every use in the codebase writes results into
// pre-assigned, disjoint output slots, so the analysis output is
// byte-identical to a sequential run regardless of scheduling; see
// DESIGN.md "Parallel analysis".
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace microscope {

/// Parallelism knob threaded through ReconstructOptions and
/// DiagnoserOptions.
struct ParallelOptions {
  /// Worker threads for the analysis pool; the calling thread runs chunks
  /// beside them, so N + 1 threads work. 0 or 1 = run sequentially on
  /// the calling thread (no pool is created; the default preserves all
  /// pre-existing single-threaded behavior exactly).
  unsigned num_threads = 0;

  bool sequential() const { return num_threads <= 1; }
};

/// A fork-join loop: `ThreadPool(N)` starts N persistent workers, and the
/// thread calling parallel_for() runs chunks beside them, so N + 1 threads
/// work on a fan-out. Each fan-out cuts [0, n) into chunks of
/// ceil(n / 64) items, which the workers and the caller claim from one
/// atomic cursor.
class ThreadPool {
 public:
  explicit ThreadPool(unsigned num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Run body(begin, end) over disjoint chunks covering [0, n), returning
  /// once every chunk is done. Chunk boundaries depend only on n, never on
  /// scheduling or the pool size. Calls from inside a chunk run inline (no
  /// nested fan-out); concurrent callers of one pool take turns.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// nullptr when opts ask for a sequential run.
  static std::unique_ptr<ThreadPool> make(const ParallelOptions& opts);

 private:
  void worker_main();
  /// Claim and run chunks of the open fan-out until none is left.
  void run_chunks();

  /// Held by a caller for its whole fan-out.
  std::mutex call_m_;

  std::mutex m_;
  std::condition_variable wake_cv_;  // a fan-out opened, or stop_
  std::condition_variable done_cv_;  // active_ reached 0
  // The open fan-out, written under m_ while no worker is active; null
  // body_ means none is open.
  const std::function<void(std::size_t, std::size_t)>* body_ = nullptr;
  std::size_t n_ = 0;
  std::size_t grain_ = 1;
  std::size_t chunks_ = 0;
  unsigned active_ = 0;  // workers inside run_chunks()
  bool stop_ = false;
  std::atomic<std::size_t> next_{0};  // next chunk to claim

  std::vector<std::thread> workers_;
};

/// Run body(begin, end) over [0, n): inline when pool is null, sharded
/// across the pool otherwise. The common entry point for optional
/// parallelism.
void parallel_for_over(
    ThreadPool* pool, std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace microscope
