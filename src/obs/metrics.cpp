#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "obs/build_info.hpp"

namespace microscope::obs {

namespace {

/// 1-2-5 series covering [lo, hi] inclusive.
std::vector<std::int64_t> decade_bounds(std::int64_t lo, std::int64_t hi) {
  std::vector<std::int64_t> out;
  for (std::int64_t base = 1; base <= hi; base *= 10) {
    for (const std::int64_t m : {1, 2, 5}) {
      const std::int64_t v = base * m;
      if (v < lo) continue;
      if (v > hi) return out;
      out.push_back(v);
    }
  }
  return out;
}

}  // namespace

const std::vector<std::int64_t>& latency_bounds_ns() {
  static const std::vector<std::int64_t> bounds =
      decade_bounds(100, 10'000'000'000);  // 100 ns .. 10 s
  return bounds;
}

const std::vector<std::int64_t>& score_bounds() {
  static const std::vector<std::int64_t> bounds = decade_bounds(1, 1'000'000);
  return bounds;
}

const std::vector<std::int64_t>& depth_bounds() {
  static const std::vector<std::int64_t> bounds = [] {
    std::vector<std::int64_t> out;
    for (std::int64_t i = 0; i <= 16; ++i) out.push_back(i);
    return out;
  }();
  return bounds;
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double before = static_cast<double>(cum);
    cum += counts[i];
    if (static_cast<double>(cum) < target) continue;
    // Interpolate inside bucket i between its lower and upper bound,
    // clamped to the observed extremes (exact for single-value buckets).
    const double lo = std::max(
        i == 0 ? static_cast<double>(min)
               : static_cast<double>(bounds[i - 1]),
        static_cast<double>(min));
    const double hi = std::min(
        i < bounds.size() ? static_cast<double>(bounds[i])
                          : static_cast<double>(max),
        static_cast<double>(max));
    const double frac =
        counts[i] ? (target - before) / static_cast<double>(counts[i]) : 0.0;
    return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
  }
  return static_cast<double>(max);
}

Histogram::Histogram(std::vector<std::int64_t> bounds)
    : bounds_(std::move(bounds)),
      min_(std::numeric_limits<std::int64_t>::max()),
      max_(std::numeric_limits<std::int64_t>::min()) {
  if (bounds_.empty()) bounds_ = latency_bounds_ns();
  if (!std::is_sorted(bounds_.begin(), bounds_.end()))
    throw std::invalid_argument("histogram bounds must be ascending");
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.bounds = bounds_;
  s.counts.resize(bounds_.size() + 1);
  // Read `count_` first: writers bump buckets before count_, so the bucket
  // sum can only be >= the count we report, never behind it — a snapshot
  // taken mid-write still describes a plausible past state.
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    s.counts[i] = buckets_[i].load(std::memory_order_relaxed);
  const std::int64_t mn = min_.load(std::memory_order_relaxed);
  const std::int64_t mx = max_.load(std::memory_order_relaxed);
  s.min = s.count && mn != std::numeric_limits<std::int64_t>::max() ? mn : 0;
  s.max = s.count && mx != std::numeric_limits<std::int64_t>::min() ? mx : 0;
  return s;
}

const MetricSnapshot* Snapshot::find(std::string_view name) const {
  for (const MetricSnapshot& m : metrics)
    if (m.name == name) return &m;
  return nullptr;
}

Registry::Entry& Registry::entry(std::string_view name, MetricKind kind,
                                 std::vector<std::int64_t> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    if (it->second.kind != kind)
      throw std::logic_error("metric re-registered with a different kind: " +
                             std::string(name));
    return it->second;
  }
  Entry e;
  e.kind = kind;
  switch (kind) {
    case MetricKind::kCounter:
      e.counter = std::make_unique<Counter>();
      break;
    case MetricKind::kGauge:
      e.gauge = std::make_unique<Gauge>();
      break;
    case MetricKind::kHistogram:
      e.histogram = std::make_unique<Histogram>(std::move(bounds));
      break;
  }
  return metrics_.emplace(std::string(name), std::move(e)).first->second;
}

Counter& Registry::counter(std::string_view name) {
  return *entry(name, MetricKind::kCounter, {}).counter;
}

Gauge& Registry::gauge(std::string_view name) {
  return *entry(name, MetricKind::kGauge, {}).gauge;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<std::int64_t> bounds) {
  return *entry(name, MetricKind::kHistogram, std::move(bounds)).histogram;
}

Snapshot Registry::snapshot() const {
  Snapshot s;
  std::lock_guard<std::mutex> lock(mu_);
  s.metrics.reserve(metrics_.size());
  for (const auto& [name, e] : metrics_) {
    MetricSnapshot m;
    m.name = name;
    m.kind = e.kind;
    switch (e.kind) {
      case MetricKind::kCounter:
        m.value = static_cast<double>(e.counter->value());
        break;
      case MetricKind::kGauge:
        m.value = e.gauge->value();
        break;
      case MetricKind::kHistogram:
        m.hist = e.histogram->snapshot();
        m.value = static_cast<double>(m.hist.count);
        break;
    }
    s.metrics.push_back(std::move(m));
  }
  return s;  // std::map iteration is already name-sorted
}

Registry& Registry::global() {
  static Registry reg;
  return reg;
}

namespace {

/// Explicit unit assignments for canonical names whose suffix alone is
/// ambiguous (filled by register_pipeline_metrics; mutex-guarded because
/// registration can race snapshots in tests).
std::mutex& units_mu() {
  static std::mutex mu;
  return mu;
}
std::map<std::string, MetricUnit, std::less<>>& units_map() {
  static std::map<std::string, MetricUnit, std::less<>> m;
  return m;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void note_unit(std::string_view name, MetricUnit unit) {
  std::lock_guard<std::mutex> lock(units_mu());
  units_map().emplace(std::string(name), unit);
}

}  // namespace

MetricUnit metric_unit(std::string_view name) {
  {
    std::lock_guard<std::mutex> lock(units_mu());
    const auto it = units_map().find(name);
    if (it != units_map().end()) return it->second;
  }
  if (ends_with(name, "_ns")) return MetricUnit::kNanoseconds;
  if (ends_with(name, "_seconds")) return MetricUnit::kSeconds;
  if (ends_with(name, "_bytes")) return MetricUnit::kBytes;
  if (ends_with(name, "_records")) return MetricUnit::kRecords;
  if (ends_with(name, "_batches")) return MetricUnit::kBatches;
  if (ends_with(name, "_packets")) return MetricUnit::kPackets;
  if (ends_with(name, "_frac")) return MetricUnit::kRatio;
  if (ends_with(name, "_unix")) return MetricUnit::kUnixTime;
  return MetricUnit::kNone;
}

const std::map<std::string, std::string>& metric_renames() {
  // The unit-suffix audit: old dashboards querying the left column must
  // move to the right one. Keys must stay absent from the registry and
  // values present (pinned by test_obs.UnitAuditRenames).
  static const std::map<std::string, std::string> renames = {
      {"core.diagnose.ns", "core.diagnose.total_ns"},
  };
  return renames;
}

void register_pipeline_metrics(Registry& reg) {
  // Stage 1: collector hooks + SPSC ring / dumper.
  reg.counter("collector.rx_batches");
  reg.counter("collector.rx_packets");
  reg.counter("collector.tx_batches");
  reg.counter("collector.tx_packets");
  reg.counter("collector.ring.records");
  reg.counter("collector.ring.overruns");
  reg.counter("collector.ring.drained_bytes");
  reg.histogram("collector.ring.dump_ns");
  // Wire decode validation (one per DecodeErrorKind, plus throughput).
  reg.counter("collector.decode.records");
  reg.counter("collector.decode.bad_sync");
  reg.counter("collector.decode.bad_length");
  reg.counter("collector.decode.bad_crc");
  reg.counter("collector.decode.bad_kind");
  reg.counter("collector.decode.unknown_node");
  reg.counter("collector.decode.oversized_batch");
  reg.counter("collector.decode.timestamp_regression");
  reg.counter("collector.decode.truncated_tail");
  reg.counter("collector.decode.resync_bytes");
  // Stage 2: record alignment.
  reg.histogram("trace.align.prepare_ns");
  reg.histogram("trace.align.link_pass_ns");
  reg.histogram("trace.align.internal_pass_ns");
  reg.counter("trace.align.link_matched");
  reg.counter("trace.align.link_ambiguous");
  reg.counter("trace.align.link_unmatched");
  reg.counter("trace.align.queue_drops_inferred");
  reg.counter("trace.align.internal_matched");
  reg.counter("trace.align.internal_ambiguous");
  reg.counter("trace.align.internal_expired");
  reg.counter("trace.align.policy_drops_inferred");
  // Stage 3: trace reconstruction.
  reg.counter("trace.reconstruct.runs");
  reg.counter("trace.reconstruct.journeys");
  reg.counter("trace.reconstruct.truncated_journeys");
  reg.histogram("trace.reconstruct.total_ns");
  reg.histogram("trace.reconstruct.walk_ns");
  reg.histogram("trace.reconstruct.timeline_ns");
  // Stage 4: core diagnosis.
  reg.counter("core.diagnose.victims");
  reg.counter("core.diagnose.no_period");
  reg.counter("core.diagnose.relations");
  reg.histogram("core.diagnose.total_ns");
  reg.histogram("core.diagnose.depth", depth_bounds());
  reg.histogram("core.diagnose.relation_score", score_bounds());
  // Conservation check: accumulated |rounding error| between each
  // propagated S_i and the sum of the shares handed out for it.
  reg.gauge("core.diagnosis.attribution_residual");
  // Stage 5: online streaming engine.
  reg.counter("online.batches_ingested");
  reg.counter("online.packets_ingested");
  reg.counter("online.late_dropped_batches");
  reg.counter("online.backpressure_dropped_batches");
  reg.counter("online.windows_closed");
  reg.counter("online.windows_idle_forced");
  reg.counter("online.windows_skipped_empty");
  reg.histogram("online.window_close_ns");
  // Journeys a closed window walked / journeys it committed (1 = no
  // repeated reconstruction work).
  reg.gauge("online.window.amplification");
  reg.gauge("online.watermark_lag_ns");
  reg.gauge("online.ring_dropped_records");
  reg.gauge("online.retained_batches");
  reg.gauge("online.retained_bytes");
  // Stage 5c: culprit aggregation (exact board cap + bounded-memory
  // sketch mode, DESIGN.md §14).
  reg.counter("agg.board_evicted");
  reg.gauge("sketch.budget_bytes");
  reg.gauge("sketch.fill_frac");
  reg.gauge("sketch.est_error_bound");
  reg.counter("sketch.hh_evicted");
  // Introspection plane (DESIGN.md §15): the HTTP endpoint, the metric
  // sampler, the export renderers, and the health watchdog.
  reg.counter("obs.http.requests");
  reg.counter("obs.http.bad_requests");
  reg.counter("obs.series.samples");
  reg.histogram("obs.render_ns");
  reg.gauge("obs.uptime_seconds");
  reg.gauge("obs.start_time_unix");
  reg.gauge("obs.health.state");

  // Units for names the suffix heuristic cannot classify (shares, scores,
  // plain entry counts). Everything else derives from its suffix.
  note_unit("sketch.est_error_bound", MetricUnit::kRatio);
  note_unit("online.window.amplification", MetricUnit::kRatio);
  note_unit("core.diagnosis.attribution_residual", MetricUnit::kPackets);
  note_unit("obs.health.state", MetricUnit::kNone);
  refresh_runtime_gauges(reg);
}

namespace {

/// Integers print without a decimal point; everything else as shortest
/// round-trippable-ish %.9g. Keeps the JSON golden test byte-stable.
void append_num(std::string& out, double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 9e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(v));
    out += buf;
  } else {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    out += buf;
  }
}

std::string format_duration_ns(double ns) {
  char buf[48];
  if (ns >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.3gs", ns / 1e9);
  } else if (ns >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.3gms", ns / 1e6);
  } else if (ns >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.3gus", ns / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3gns", ns);
  }
  return buf;
}

/// Histogram names ending in _ns hold wall latencies; render human units.
bool is_duration_metric(const std::string& name) {
  return name.size() > 3 && name.compare(name.size() - 3, 3, "_ns") == 0;
}

}  // namespace

std::string to_text(const Snapshot& snap) {
  std::size_t width = 0;
  for (const MetricSnapshot& m : snap.metrics)
    width = std::max(width, m.name.size());
  std::string out;
  for (const MetricSnapshot& m : snap.metrics) {
    out += m.name;
    out.append(width + 2 - m.name.size(), ' ');
    switch (m.kind) {
      case MetricKind::kCounter:
        append_num(out, m.value);
        break;
      case MetricKind::kGauge:
        append_num(out, m.value);
        out += " (gauge)";
        break;
      case MetricKind::kHistogram: {
        const HistogramSnapshot& h = m.hist;
        char buf[32];
        std::snprintf(buf, sizeof(buf), "count=%llu",
                      static_cast<unsigned long long>(h.count));
        out += buf;
        if (h.count > 0) {
          const bool dur = is_duration_metric(m.name);
          auto fmt = [&](double v) {
            if (dur) return format_duration_ns(v);
            char b[32];
            std::snprintf(b, sizeof(b), "%.4g", v);
            return std::string(b);
          };
          out += " mean=" + fmt(h.mean());
          out += " p50=" + fmt(h.p50());
          out += " p95=" + fmt(h.p95());
          out += " p99=" + fmt(h.p99());
          out += " max=" + fmt(static_cast<double>(h.max));
        }
        break;
      }
    }
    out += '\n';
  }
  return out;
}

std::string to_json(const Snapshot& snap) {
  std::string out = "{\"metrics\": [";
  bool first = true;
  for (const MetricSnapshot& m : snap.metrics) {
    if (!first) out += ", ";
    first = false;
    out += "{\"name\": \"" + m.name + "\", ";
    switch (m.kind) {
      case MetricKind::kCounter:
        out += "\"type\": \"counter\", \"value\": ";
        append_num(out, m.value);
        break;
      case MetricKind::kGauge:
        out += "\"type\": \"gauge\", \"value\": ";
        append_num(out, m.value);
        break;
      case MetricKind::kHistogram: {
        const HistogramSnapshot& h = m.hist;
        out += "\"type\": \"histogram\", \"count\": ";
        append_num(out, static_cast<double>(h.count));
        out += ", \"sum\": ";
        append_num(out, static_cast<double>(h.sum));
        out += ", \"min\": ";
        append_num(out, static_cast<double>(h.min));
        out += ", \"max\": ";
        append_num(out, static_cast<double>(h.max));
        out += ", \"p50\": ";
        append_num(out, h.p50());
        out += ", \"p95\": ";
        append_num(out, h.p95());
        out += ", \"p99\": ";
        append_num(out, h.p99());
        out += ", \"buckets\": [";
        bool bfirst = true;
        for (std::size_t i = 0; i < h.counts.size(); ++i) {
          if (h.counts[i] == 0) continue;
          if (!bfirst) out += ", ";
          bfirst = false;
          out += "{\"le\": ";
          if (i < h.bounds.size()) {
            append_num(out, static_cast<double>(h.bounds[i]));
          } else {
            out += "\"inf\"";
          }
          out += ", \"count\": ";
          append_num(out, static_cast<double>(h.counts[i]));
          out += "}";
        }
        out += "]";
        break;
      }
    }
    out += "}";
  }
  out += "]}";
  return out;
}

namespace {

/// Prometheus metric name: microscope_ prefix, dots to underscores, and —
/// per the exposition convention that durations are base-unit seconds —
/// *_ns names become *_seconds with values scaled by 1e-9 (`scale` out).
std::string prom_name(const std::string& name, double& scale) {
  scale = 1.0;
  std::string base = name;
  if (metric_unit(name) == MetricUnit::kNanoseconds &&
      base.size() > 3 && base.compare(base.size() - 3, 3, "_ns") == 0) {
    base.replace(base.size() - 3, 3, "_seconds");
    scale = 1e-9;
  }
  std::string out = "microscope_";
  for (const char c : base) out += (c == '.') ? '_' : c;
  return out;
}

/// HELP text escaping: backslash and newline (the only escapes the
/// exposition format defines outside label values).
void prom_escape_help(std::string& out, std::string_view s) {
  for (const char c : s) {
    if (c == '\\') out += "\\\\";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
}

/// Label-value escaping: backslash, double quote, newline.
void prom_escape_label(std::string& out, std::string_view s) {
  for (const char c : s) {
    if (c == '\\') out += "\\\\";
    else if (c == '"') out += "\\\"";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
}

void prom_help_type(std::string& out, const std::string& pname,
                    const std::string& orig, const char* type) {
  out += "# HELP " + pname + " Microscope metric ";
  prom_escape_help(out, orig);
  out += ".\n";
  out += "# TYPE " + pname + " ";
  out += type;
  out += "\n";
}

}  // namespace

std::string to_prometheus(const Snapshot& snap, bool include_build_info) {
  std::string out;
  for (const MetricSnapshot& m : snap.metrics) {
    double scale = 1.0;
    const std::string pname = prom_name(m.name, scale);
    switch (m.kind) {
      case MetricKind::kCounter: {
        const std::string cname = pname + "_total";
        prom_help_type(out, cname, m.name, "counter");
        out += cname + " ";
        append_num(out, m.value * scale);
        out += '\n';
        break;
      }
      case MetricKind::kGauge:
        prom_help_type(out, pname, m.name, "gauge");
        out += pname + " ";
        append_num(out, m.value * scale);
        out += '\n';
        break;
      case MetricKind::kHistogram: {
        const HistogramSnapshot& h = m.hist;
        prom_help_type(out, pname, m.name, "histogram");
        // Cumulative buckets; the +Inf bucket equals _count by definition.
        // The count is re-derived from the bucket sum (not h.count): a
        // snapshot racing a writer can have buckets ahead of the count
        // field, and the exposition invariant must hold regardless.
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < h.counts.size(); ++i) {
          cum += h.counts[i];
          out += pname + "_bucket{le=\"";
          if (i < h.bounds.size()) {
            append_num(out, static_cast<double>(h.bounds[i]) * scale);
          } else {
            out += "+Inf";
          }
          out += "\"} ";
          append_num(out, static_cast<double>(cum));
          out += '\n';
        }
        out += pname + "_sum ";
        append_num(out, static_cast<double>(h.sum) * scale);
        out += '\n';
        out += pname + "_count ";
        append_num(out, static_cast<double>(cum));
        out += '\n';
        break;
      }
    }
  }
  if (include_build_info) {
    const BuildInfo& b = build_info();
    out += "# HELP microscope_build_info Build provenance of the serving "
           "binary (value is constant 1).\n";
    out += "# TYPE microscope_build_info gauge\n";
    out += "microscope_build_info{git_hash=\"";
    prom_escape_label(out, b.git_hash);
    out += "\",build_type=\"";
    prom_escape_label(out, b.build_type);
    out += "\",compiler=\"";
    prom_escape_label(out, b.compiler);
    out += "\",metrics=\"";
    out += b.metrics_enabled ? "on" : "off";
    out += "\"} 1\n";
  }
  return out;
}

namespace {

/// Process start instants, latched on first use (register_pipeline_metrics
/// calls refresh_runtime_gauges, so "first use" is registration time).
struct ProcessClock {
  std::chrono::steady_clock::time_point steady_start;
  double start_unix_seconds;
};

const ProcessClock& process_clock() {
  static const ProcessClock pc = [] {
    ProcessClock p;
    p.steady_start = std::chrono::steady_clock::now();
    p.start_unix_seconds =
        std::chrono::duration<double>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    return p;
  }();
  return pc;
}

}  // namespace

void refresh_runtime_gauges(Registry& reg) {
  const ProcessClock& pc = process_clock();
  reg.gauge("obs.start_time_unix").set(pc.start_unix_seconds);
  reg.gauge("obs.uptime_seconds")
      .set(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         pc.steady_start)
               .count());
}

namespace {

template <typename Fn>
std::string render_with_cost(Registry& reg, Fn&& fn) {
  refresh_runtime_gauges(reg);
  // The timer's sample lands after this snapshot is taken; it shows up in
  // the next render. Export cost being one render stale is fine.
  ScopedTimer t(reg.histogram("obs.render_ns"));
  return fn(reg.snapshot());
}

}  // namespace

std::string render_text(Registry& reg) {
  return render_with_cost(reg, [](const Snapshot& s) { return to_text(s); });
}

std::string render_json(Registry& reg) {
  return render_with_cost(reg, [](const Snapshot& s) { return to_json(s); });
}

std::string render_prometheus(Registry& reg) {
  return render_with_cost(reg,
                          [](const Snapshot& s) { return to_prometheus(s); });
}

}  // namespace microscope::obs
