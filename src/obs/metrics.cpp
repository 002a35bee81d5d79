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

namespace {

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
  if (is_duration_metric(name)) {
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
    out += "\"} 1\n";
  }
  return out;
}

namespace {

template <typename Fn>
std::string render_with_cost(Registry& reg, Fn&& fn) {
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
