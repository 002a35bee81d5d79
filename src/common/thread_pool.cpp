#include "common/thread_pool.hpp"

#include <algorithm>

namespace microscope {

namespace {
/// Set on pool workers, and on a caller while it runs its fan-out's
/// chunks: parallel_for calls made there execute inline.
thread_local bool t_inside_pool = false;
}  // namespace

ThreadPool::ThreadPool(unsigned num_threads) {
  const unsigned n = std::max(1u, num_threads);
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i)
    workers_.emplace_back([this] { worker_main(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::run_chunks() {
  const auto& body = *body_;
  while (true) {
    const std::size_t c = next_.fetch_add(1, std::memory_order_relaxed);
    if (c >= chunks_) return;
    const std::size_t b = c * grain_;
    body(b, std::min(n_, b + grain_));
  }
}

void ThreadPool::worker_main() {
  t_inside_pool = true;
  std::unique_lock<std::mutex> lk(m_);
  while (true) {
    // A worker that wakes after its fan-out closed finds body_ null (or a
    // newer fan-out open) and never touches the closed one's body.
    wake_cv_.wait(lk, [this] {
      return stop_ || (body_ != nullptr &&
                       next_.load(std::memory_order_relaxed) < chunks_);
    });
    if (stop_) return;
    ++active_;
    lk.unlock();
    run_chunks();
    lk.lock();
    if (--active_ == 0) done_cv_.notify_one();
  }
}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  if (t_inside_pool) {
    body(0, n);
    return;
  }
  std::lock_guard<std::mutex> turn(call_m_);
  {
    std::lock_guard<std::mutex> lk(m_);
    body_ = &body;
    n_ = n;
    grain_ = (n + 63) / 64;
    chunks_ = (n + grain_ - 1) / grain_;
    next_.store(0, std::memory_order_relaxed);
  }
  wake_cv_.notify_all();
  // Runs on return and if body throws here: the workers must be out of
  // body before its owner's frame can unwind.
  struct Close {
    ThreadPool& p;
    ~Close() {
      t_inside_pool = false;
      // Workers claim what is left; the chunks they hold are done once
      // active_ is 0. Closing under the same lock keeps late wakers out.
      std::unique_lock<std::mutex> lk(p.m_);
      p.done_cv_.wait(lk, [this] { return p.active_ == 0; });
      p.body_ = nullptr;
    }
  } close{*this};
  t_inside_pool = true;
  run_chunks();
}

void parallel_for_over(
    ThreadPool* pool, std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (!pool) {
    if (n > 0) body(0, n);
    return;
  }
  pool->parallel_for(n, body);
}

}  // namespace microscope
