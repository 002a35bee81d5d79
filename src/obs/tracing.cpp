#include "obs/tracing.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

#include "obs/build_info.hpp"

namespace microscope::obs {

namespace tracing_detail {

Correlation& current_correlation() noexcept {
  thread_local Correlation c;
  return c;
}

}  // namespace tracing_detail

namespace {

/// Buffer flush threshold: a thread hands its events to the central store
/// once it has this many, bounding per-thread memory while keeping the
/// flush (one lock + vector splice) rare.
constexpr std::size_t kEpochSize = 4096;

struct ThreadBuf {
  std::mutex mu;  // owning thread vs drain(); uncontended in steady state
  std::vector<TraceEvent> events;
  std::uint32_t tid{0};
};

}  // namespace

struct TraceRecorder::Impl {
  std::mutex mu;  // guards bufs, flushed, tid assignment
  std::vector<std::shared_ptr<ThreadBuf>> bufs;
  std::vector<TraceEvent> flushed;
  std::uint32_t next_tid{0};
  std::atomic<std::size_t> approx_size{0};
  std::atomic<std::size_t> capacity{1u << 20};
  std::atomic<std::uint64_t> dropped{0};
  std::chrono::steady_clock::time_point epoch{
      std::chrono::steady_clock::now()};

  ThreadBuf& local() {
    thread_local std::shared_ptr<ThreadBuf> buf;
    if (!buf) {
      buf = std::make_shared<ThreadBuf>();
      std::lock_guard<std::mutex> lock(mu);
      buf->tid = next_tid++;
      bufs.push_back(buf);
    }
    return *buf;
  }
};

TraceRecorder::TraceRecorder() : impl_(new Impl) {}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder rec;
  return rec;
}

void TraceRecorder::set_capacity(std::size_t max_events) noexcept {
  impl_->capacity.store(max_events, std::memory_order_relaxed);
}

std::int64_t TraceRecorder::now_ns() const noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - impl_->epoch)
      .count();
}

std::uint64_t TraceRecorder::dropped() const noexcept {
  return impl_->dropped.load(std::memory_order_relaxed);
}

void TraceRecorder::record(TraceEvent ev) {
  Impl& im = *impl_;
  if (im.approx_size.load(std::memory_order_relaxed) >=
      im.capacity.load(std::memory_order_relaxed)) {
    im.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ThreadBuf& buf = im.local();
  ev.tid = buf.tid;
  bool flush = false;
  {
    std::lock_guard<std::mutex> lock(buf.mu);
    buf.events.push_back(ev);
    flush = buf.events.size() >= kEpochSize;
  }
  im.approx_size.fetch_add(1, std::memory_order_relaxed);
  if (flush) {
    std::vector<TraceEvent> batch;
    {
      std::lock_guard<std::mutex> lock(buf.mu);
      batch.swap(buf.events);
    }
    std::lock_guard<std::mutex> lock(im.mu);
    im.flushed.insert(im.flushed.end(), batch.begin(), batch.end());
  }
}

std::vector<TraceEvent> TraceRecorder::drain() {
  Impl& im = *impl_;
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(im.mu);
    out.swap(im.flushed);
    for (const auto& buf : im.bufs) {
      std::lock_guard<std::mutex> blk(buf->mu);
      out.insert(out.end(), buf->events.begin(), buf->events.end());
      buf->events.clear();
    }
  }
  im.approx_size.store(0, std::memory_order_relaxed);
  im.dropped.store(0, std::memory_order_relaxed);
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.t0_ns != b.t0_ns) return a.t0_ns < b.t0_ns;
                     return a.tid < b.tid;
                   });
  return out;
}

void TraceRecorder::clear() { drain(); }

void trace_instant(const char* cat, const char* name, std::uint64_t items) {
  TraceRecorder& rec = TraceRecorder::global();
  if (!rec.enabled()) return;
  TraceEvent ev;
  ev.cat = cat;
  ev.name = name;
  ev.kind = TraceEventKind::kInstant;
  ev.items = items;
  const Correlation& c = tracing_detail::current_correlation();
  ev.window_id = c.window;
  ev.victim_id = c.victim;
  ev.t0_ns = ev.t1_ns = rec.now_ns();
  rec.record(ev);
}

// ---- exporters ---------------------------------------------------------

namespace {

/// Microsecond timestamp with nanosecond precision (Chrome's unit).
void append_ts_us(std::string& out, std::int64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  out += buf;
}

void append_args(std::string& out, const TraceEvent& ev) {
  out += "\"args\": {";
  bool first = true;
  auto field = [&](const char* key, long long v) {
    if (!first) out += ", ";
    first = false;
    out += std::string("\"") + key + "\": " + std::to_string(v);
  };
  if (ev.window_id != kNoCorrelation) field("window", ev.window_id);
  if (ev.victim_id != kNoCorrelation) field("victim", ev.victim_id);
  if (ev.items != 0) field("items", static_cast<long long>(ev.items));
  out += "}";
}

void append_common(std::string& out, const TraceEvent& ev, char ph,
                   std::int64_t ts_ns) {
  out += "{\"name\": \"";
  out += ev.name;
  out += "\", \"cat\": \"";
  out += ev.cat;
  out += "\", \"ph\": \"";
  out += ph;
  out += "\", \"ts\": ";
  append_ts_us(out, ts_ns);
  out += ", \"pid\": 1, \"tid\": " + std::to_string(ev.tid) + ", ";
  if (ph == 'i') out += "\"s\": \"t\", ";
  append_args(out, ev);
  out += "}";
}

/// Emit one tid's events as a valid B/E stream: spans sorted (t0 asc,
/// t1 desc) are properly nested (RAII guarantees it per thread), so a
/// stack walk produces begin/end entries in monotonically non-decreasing
/// timestamp order; instants are merged in by timestamp.
void emit_tid_stream(std::string& out, bool& first,
                     std::vector<const TraceEvent*>& spans,
                     std::vector<const TraceEvent*>& instants) {
  std::stable_sort(spans.begin(), spans.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     if (a->t0_ns != b->t0_ns) return a->t0_ns < b->t0_ns;
                     return a->t1_ns > b->t1_ns;
                   });
  std::stable_sort(instants.begin(), instants.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     return a->t0_ns < b->t0_ns;
                   });
  auto emit = [&](const TraceEvent& ev, char ph, std::int64_t ts) {
    if (!first) out += ",\n";
    first = false;
    append_common(out, ev, ph, ts);
  };
  std::size_t ii = 0;
  auto flush_instants_until = [&](std::int64_t ts) {
    while (ii < instants.size() && instants[ii]->t0_ns <= ts) {
      emit(*instants[ii], 'i', instants[ii]->t0_ns);
      ++ii;
    }
  };
  std::vector<const TraceEvent*> stack;
  for (const TraceEvent* sp : spans) {
    while (!stack.empty() && stack.back()->t1_ns <= sp->t0_ns) {
      flush_instants_until(stack.back()->t1_ns);
      emit(*stack.back(), 'E', stack.back()->t1_ns);
      stack.pop_back();
    }
    flush_instants_until(sp->t0_ns);
    emit(*sp, 'B', sp->t0_ns);
    stack.push_back(sp);
  }
  while (!stack.empty()) {
    flush_instants_until(stack.back()->t1_ns);
    emit(*stack.back(), 'E', stack.back()->t1_ns);
    stack.pop_back();
  }
  flush_instants_until(std::numeric_limits<std::int64_t>::max());
}

}  // namespace

std::string export_chrome_trace(const std::vector<TraceEvent>& events,
                                std::uint64_t dropped) {
  std::uint32_t max_tid = 0;
  for (const TraceEvent& ev : events) max_tid = std::max(max_tid, ev.tid);
  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  for (std::uint32_t tid = 0; tid <= max_tid; ++tid) {
    std::vector<const TraceEvent*> spans, instants;
    for (const TraceEvent& ev : events) {
      if (ev.tid != tid) continue;
      (ev.kind == TraceEventKind::kSpan ? spans : instants).push_back(&ev);
    }
    emit_tid_stream(out, first, spans, instants);
  }
  out += "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"build\": ";
  out += build_info_json();
  out += ", \"droppedEvents\": " + std::to_string(dropped) + "}}";
  return out;
}

}  // namespace microscope::obs
