// Pipeline flight recorder: spans + instant events with correlation tags.
//
// Where obs/metrics answers "how much / how fast on aggregate", this module
// answers "where did wall-clock go in *this* run": every pipeline stage
// (collector drain, align, reconstruct, victim selection, diagnose) and
// every online-window lifecycle step (open / watermark / close) records a
// timestamped span or instant event into a process-wide recorder, tagged
// with the window id and victim id it was working for, so the events of one
// window stitch into one timeline across stages and threads. The export is
// Chrome trace-event JSON — open in Perfetto / chrome://tracing — carrying
// ns-precision timestamps, every tag, the obs/build_info block (so an
// artifact names its binary) and the dropped-event count.
//
// Design rules (mirror DESIGN.md §8 for metrics; see §10 for this layer):
//  * Recording is opt-in at runtime (TraceRecorder::global().enable()) and
//    a single relaxed atomic load when disabled — binaries that never ask
//    for a trace pay one branch per site.
//  * Hot-path records go to thread-local buffers guarded by a per-thread
//    mutex that only the owning thread and drain() ever touch (uncontended
//    lock ≈ one CAS). When a buffer reaches the epoch size it is flushed
//    wholesale into the central store, so per-thread memory stays bounded.
//  * A global event cap (set_capacity) drops the newest events past the
//    limit and counts them; exports surface the dropped count rather than
//    silently truncating the timeline.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace microscope::obs {

/// Correlation tag value meaning "not associated".
inline constexpr std::int64_t kNoCorrelation = -1;

enum class TraceEventKind : std::uint8_t { kSpan, kInstant };

/// One recorded event. Spans cover [t0_ns, t1_ns]; instants have t0 == t1.
/// Timestamps are steady-clock nanoseconds since the recorder's epoch.
/// `cat` and `name` must be string literals (stored by pointer).
struct TraceEvent {
  const char* cat{""};
  const char* name{""};
  TraceEventKind kind{TraceEventKind::kSpan};
  std::uint32_t tid{0};
  std::int64_t t0_ns{0};
  std::int64_t t1_ns{0};
  /// Online window index this work belonged to (kNoCorrelation offline).
  std::int64_t window_id{kNoCorrelation};
  /// Victim journey id being diagnosed (kNoCorrelation outside diagnosis).
  std::int64_t victim_id{kNoCorrelation};
  /// Optional payload: items processed, bytes drained, victims found, ...
  std::uint64_t items{0};
};

/// Thread-local correlation tags applied to events recorded in scope.
struct Correlation {
  std::int64_t window{kNoCorrelation};
  std::int64_t victim{kNoCorrelation};
};

namespace tracing_detail {
Correlation& current_correlation() noexcept;
}  // namespace tracing_detail

/// The process-wide recorder. Disabled by default; all record paths check
/// the enabled flag first, so an untraced run costs one relaxed load per
/// instrumented site.
class TraceRecorder {
 public:
  static TraceRecorder& global();

  void enable() noexcept { enabled_.store(true, std::memory_order_relaxed); }
  void disable() noexcept { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Cap on retained events (default 1M). Events past the cap are dropped
  /// and counted (dropped()). Takes effect for subsequent records.
  void set_capacity(std::size_t max_events) noexcept;

  /// Record a finished event (tid is assigned by the recorder).
  void record(TraceEvent ev);

  /// Move every recorded event out (thread-local buffers included), sorted
  /// by (t0_ns, tid). Resets the dropped counter.
  std::vector<TraceEvent> drain();

  /// Drop all recorded events without returning them.
  void clear();

  /// Events dropped by the capacity cap since the last drain()/clear().
  std::uint64_t dropped() const noexcept;

  /// Nanoseconds since the recorder epoch (process start).
  std::int64_t now_ns() const noexcept;

 private:
  TraceRecorder();
  struct Impl;
  Impl* impl_;  // leaked singleton state; safe during static destruction

  std::atomic<bool> enabled_{false};
};

/// RAII span: captures t0 at construction, records at destruction (or an
/// explicit stop()). Correlation tags are captured at construction from the
/// thread-local scope. A span constructed while the recorder is disabled
/// records nothing even if tracing is enabled before it closes.
class TraceSpan {
 public:
  TraceSpan(const char* cat, const char* name,
            std::uint64_t items = 0) noexcept {
    TraceRecorder& rec = TraceRecorder::global();
    if (!rec.enabled()) return;
    active_ = true;
    ev_.cat = cat;
    ev_.name = name;
    ev_.kind = TraceEventKind::kSpan;
    ev_.items = items;
    const Correlation& c = tracing_detail::current_correlation();
    ev_.window_id = c.window;
    ev_.victim_id = c.victim;
    ev_.t0_ns = rec.now_ns();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() { stop(); }

  /// Attach/overwrite the payload count before the span closes.
  void set_items(std::uint64_t items) noexcept { ev_.items = items; }

  void stop() noexcept {
    if (!active_) return;
    active_ = false;
    TraceRecorder& rec = TraceRecorder::global();
    ev_.t1_ns = rec.now_ns();
    rec.record(ev_);
  }

 private:
  bool active_{false};
  TraceEvent ev_{};
};

/// Record a point-in-time event with the current correlation tags.
void trace_instant(const char* cat, const char* name,
                   std::uint64_t items = 0);

/// RAII correlation tag: events recorded on this thread while the scope is
/// alive carry the given window/victim id. Scopes nest; each restores the
/// previous value on destruction. Cost when tracing is disabled: two
/// thread-local stores.
class CorrelationScope {
 public:
  static CorrelationScope for_window(std::int64_t id) noexcept {
    return CorrelationScope(id, kKeep);
  }
  static CorrelationScope for_victim(std::int64_t id) noexcept {
    return CorrelationScope(kKeep, id);
  }
  /// This thread's window tag, for reopening it on a pool thread.
  static std::int64_t current_window() noexcept {
    return tracing_detail::current_correlation().window;
  }
  CorrelationScope(const CorrelationScope&) = delete;
  CorrelationScope& operator=(const CorrelationScope&) = delete;
  CorrelationScope(CorrelationScope&& other) noexcept
      : saved_(other.saved_), armed_(other.armed_) {
    other.armed_ = false;
  }
  ~CorrelationScope() {
    if (armed_) tracing_detail::current_correlation() = saved_;
  }

 private:
  static constexpr std::int64_t kKeep =
      std::numeric_limits<std::int64_t>::min();
  CorrelationScope(std::int64_t window, std::int64_t victim) noexcept {
    Correlation& cur = tracing_detail::current_correlation();
    saved_ = cur;
    if (window != kKeep) cur.window = window;
    if (victim != kKeep) cur.victim = victim;
    armed_ = true;
  }
  Correlation saved_{};
  bool armed_{false};
};

/// Chrome trace-event JSON: {"traceEvents": [...], "displayTimeUnit":
/// "ms", "otherData": {"build": {...}, "droppedEvents": N}}. Spans become
/// matched B/E pairs; per-tid streams are emitted in timestamp order with
/// proper nesting (ci/check_trace_export.py validates this). Timestamps
/// are microseconds with nanosecond precision.
std::string export_chrome_trace(const std::vector<TraceEvent>& events,
                                std::uint64_t dropped = 0);

}  // namespace microscope::obs
