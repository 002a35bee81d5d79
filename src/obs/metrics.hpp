// Self-observability: a lock-cheap metrics registry for the analysis
// pipeline itself.
//
// Microscope diagnoses NFs from queue signals without touching NF
// internals; this module applies the same discipline to our own pipeline
// (collector -> align -> reconstruct -> diagnose -> online engine). Every
// stage publishes named counters, gauges, and fixed-bucket latency
// histograms into a process-wide registry; snapshots are exported as
// aligned human text or stable JSON (the `BENCH_*.json` / `--metrics=json`
// surfaces CI and operators consume).
//
// Design rules (see DESIGN.md §8):
//  * Hot-path updates are single relaxed atomic RMWs — no locks, no
//    allocation, no syscalls. Registration (name -> metric) takes a mutex
//    but happens once per site; instrumented classes cache the pointer.
//    Each name has exactly one registration site, in the module that
//    updates it (ci/check_metric_names.py enforces this).
//  * Snapshots are wait-free for writers: readers copy atomics metric by
//    metric. A snapshot is internally consistent per metric (monotone
//    counters never appear to run backward) but makes no cross-metric
//    atomicity promise.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace microscope::obs {

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Monotone snapshot read.
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value (e.g. retained bytes, watermark lag).
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double d) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Point-in-time copy of a histogram, with quantile extraction.
struct HistogramSnapshot {
  /// Ascending bucket upper bounds; bucket i counts values <= bounds[i],
  /// and counts.back() is the overflow bucket (> bounds.back()).
  std::vector<std::int64_t> bounds;
  std::vector<std::uint64_t> counts;  // bounds.size() + 1
  std::uint64_t count{0};
  std::int64_t sum{0};
  std::int64_t min{0};  // valid only when count > 0
  std::int64_t max{0};

  double mean() const {
    return count ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
  }
  /// Quantile in [0, 1] by linear interpolation inside the owning bucket
  /// (clamped to the observed min/max). 0 when empty.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }
};

/// Fixed-bucket histogram over int64 samples (latency ns, scores, depths).
/// record() is two relaxed RMWs plus a branch-light bucket search; bounds
/// are immutable after construction.
class Histogram {
 public:
  explicit Histogram(std::vector<std::int64_t> bounds);

  void record(std::int64_t v) noexcept {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    update_min(v);
    update_max(v);
  }

  HistogramSnapshot snapshot() const;

 private:
  std::size_t bucket_of(std::int64_t v) const noexcept {
    // Buckets are few (tens); a branchy binary search is cheap and avoids
    // per-record allocation entirely.
    std::size_t lo = 0, hi = bounds_.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (v <= bounds_[mid]) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;  // == bounds_.size() -> overflow bucket
  }
  void update_min(std::int64_t v) noexcept {
    std::int64_t cur = min_.load(std::memory_order_relaxed);
    while (v < cur &&
           !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  void update_max(std::int64_t v) noexcept {
    std::int64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::vector<std::int64_t> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> min_;
  std::atomic<std::int64_t> max_;
};

/// RAII stage timer: records elapsed wall nanoseconds into a histogram on
/// destruction (or an explicit stop()).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& h) noexcept
      : h_(&h), t0_(std::chrono::steady_clock::now()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() { stop(); }

  void stop() noexcept {
    if (!h_) return;
    const auto t1 = std::chrono::steady_clock::now();
    h_->record(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0_)
            .count());
    h_ = nullptr;
  }

 private:
  Histogram* h_;
  std::chrono::steady_clock::time_point t0_;
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// One metric's point-in-time value (hist only filled for histograms).
struct MetricSnapshot {
  std::string name;
  MetricKind kind{MetricKind::kCounter};
  double value{0.0};  // counter / gauge
  HistogramSnapshot hist;
};

/// A full registry snapshot, sorted by metric name.
struct Snapshot {
  std::vector<MetricSnapshot> metrics;
  const MetricSnapshot* find(std::string_view name) const;
};

/// Default bucket bounds: wall-latency ns (1-2-5 decades, 100 ns .. 10 s).
const std::vector<std::int64_t>& latency_bounds_ns();
/// Default bounds for packet-denominated scores (1-2-5 decades, 1 .. 1e6).
const std::vector<std::int64_t>& score_bounds();
/// Small-integer bounds (recursion depths, ranks): 0..16 then overflow.
const std::vector<std::int64_t>& depth_bounds();

/// Named metric registry. Registration is idempotent: the first call for a
/// name creates the metric, later calls return the same object (and throw
/// std::logic_error on a kind mismatch). Returned references stay valid for
/// the registry's lifetime.
class Registry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` is only consulted on first registration; empty = latency ns.
  Histogram& histogram(std::string_view name,
                       std::vector<std::int64_t> bounds = {});

  Snapshot snapshot() const;

  /// The process-wide registry every pipeline stage publishes into.
  static Registry& global();

 private:
  struct Entry {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry& entry(std::string_view name, MetricKind kind,
               std::vector<std::int64_t> bounds);

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> metrics_;
};

/// Appends `v` as a number for the JSON and Prometheus bodies: integers
/// without a decimal point, everything else as %.9g. Keeps the JSON golden
/// test byte-stable.
void append_num(std::string& out, double v);

/// Aligned human-readable rendering (histograms as count/mean/p50/p95/p99).
std::string to_text(const Snapshot& snap);

/// Stable machine-readable rendering: {"metrics": [...]} sorted by name,
/// integers emitted without a decimal point, only non-empty histogram
/// buckets listed. The golden test in tests/test_obs.cpp pins this format.
std::string to_json(const Snapshot& snap);

/// Prometheus text exposition (format 0.0.4): one HELP + TYPE block per
/// metric, names prefixed microscope_ with dots mapped to underscores,
/// counters suffixed _total, histograms as cumulative _bucket/_sum/_count
/// with an explicit +Inf bucket, and *_ns durations converted to base-unit
/// seconds (name and values) per Prometheus convention. When
/// `include_build_info` is set, a microscope_build_info gauge labelled
/// from obs/build_info (git_hash, build_type, compiler) is appended.
/// ci/check_prom_format.py validates this output in CI.
std::string to_prometheus(const Snapshot& snap, bool include_build_info = true);

/// Shared snapshot-and-render entry points used by --metrics dumps, the
/// periodic --metrics-every observer, and the /metrics endpoint. Each
/// records its own wall cost into the obs.render_ns histogram, so export
/// cost is itself observable.
std::string render_text(Registry& reg = Registry::global());
std::string render_json(Registry& reg = Registry::global());
std::string render_prometheus(Registry& reg = Registry::global());

}  // namespace microscope::obs
