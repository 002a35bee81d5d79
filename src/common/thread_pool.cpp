#include "common/thread_pool.hpp"

#include <algorithm>

namespace microscope {

namespace {
/// Set while a pool worker (or the helping caller) runs a task; nested
/// parallel_for calls from inside a task execute inline.
thread_local bool t_inside_pool_task = false;

/// Lives on parallel_for's stack, so wait() returning ends its lifetime.
/// The count is only touched under `m`: the last count_down must be done
/// with the latch (decrement and notify) before wait() can observe zero.
struct Latch {
  explicit Latch(std::size_t n) : remaining(n) {}
  std::size_t remaining;  // guarded by m
  std::mutex m;
  std::condition_variable cv;

  void count_down() {
    std::lock_guard<std::mutex> lk(m);
    if (--remaining == 0) cv.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [this] { return remaining == 0; });
  }
};
}  // namespace

ThreadPool::ThreadPool(unsigned num_threads) {
  const unsigned n = std::max(1u, num_threads);
  shards_.reserve(n);
  for (unsigned i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i)
    workers_.emplace_back([this, i] { worker_main(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(wake_m_);
    stop_.store(true, std::memory_order_release);
  }
  wake_cv_.notify_all();
  for (std::thread& w : workers_)
    if (w.joinable()) w.join();
}

bool ThreadPool::try_run_one(unsigned home) {
  const unsigned n = static_cast<unsigned>(shards_.size());
  for (unsigned k = 0; k < n; ++k) {
    const unsigned s = (home + k) % n;
    std::function<void()> task;
    {
      std::lock_guard<std::mutex> lk(shards_[s]->m);
      if (shards_[s]->q.empty()) continue;
      if (k == 0) {  // own deque: LIFO for locality
        task = std::move(shards_[s]->q.back());
        shards_[s]->q.pop_back();
      } else {  // stealing: FIFO end
        task = std::move(shards_[s]->q.front());
        shards_[s]->q.pop_front();
      }
    }
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    task();
    return true;
  }
  return false;
}

void ThreadPool::worker_main(unsigned me) {
  while (true) {
    if (try_run_one(me)) continue;
    std::unique_lock<std::mutex> lk(wake_m_);
    wake_cv_.wait(lk, [this] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0)
      return;
  }
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t grain) {
  if (n == 0) return;
  if (t_inside_pool_task || workers_.empty()) {
    body(0, n);
    return;
  }
  if (grain == 0) grain = std::max<std::size_t>(1, n / (size() * std::size_t{8}));
  const std::size_t chunks = (n + grain - 1) / grain;
  Latch latch(chunks);

  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t b = c * grain;
    const std::size_t e = std::min(n, b + grain);
    auto task = [&body, &latch, b, e] {
      t_inside_pool_task = true;
      body(b, e);
      t_inside_pool_task = false;
      latch.count_down();
    };
    Shard& s = *shards_[c % shards_.size()];
    pending_.fetch_add(1, std::memory_order_acq_rel);
    {
      std::lock_guard<std::mutex> lk(s.m);
      s.q.push_back(std::move(task));
    }
  }
  // Empty critical section: a worker between its predicate check and its
  // block holds wake_m_, so locking here orders the notify after it blocks
  // (or its re-check sees pending_ > 0). Prevents a lost wakeup.
  { std::lock_guard<std::mutex> lk(wake_m_); }
  wake_cv_.notify_all();

  // The caller helps until no unclaimed chunk remains, then waits for the
  // in-flight ones.
  while (try_run_one(0)) {
  }
  latch.wait();
}

std::unique_ptr<ThreadPool> ThreadPool::make(const ParallelOptions& opts) {
  if (opts.sequential()) return nullptr;
  return std::make_unique<ThreadPool>(opts.num_threads);
}

void parallel_for_over(ThreadPool* pool, std::size_t n,
                       const std::function<void(std::size_t, std::size_t)>& body,
                       std::size_t grain) {
  if (!pool) {
    if (n > 0) body(0, n);
    return;
  }
  pool->parallel_for(n, body, grain);
}

}  // namespace microscope
