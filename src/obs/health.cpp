#include "obs/health.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace microscope::obs {

namespace {

constexpr std::size_t kNumSignals = 4;
constexpr const char* kSignalNames[kNumSignals] = {
    "watermark_lag", "drop_rate", "sketch_fill", "board_evictions"};

double p95_of(std::vector<double> vals) {
  if (vals.empty()) return 0.0;
  const std::size_t idx =
      std::min(vals.size() - 1,
               static_cast<std::size_t>(
                   std::ceil(0.95 * static_cast<double>(vals.size())) - 1));
  std::nth_element(vals.begin(),
                   vals.begin() + static_cast<std::ptrdiff_t>(idx), vals.end());
  return vals[idx];
}

/// Newest per-second rate of a sampled counter (0 before two samples exist
/// or while the counter is flat).
double newest_rate(const TimeSeriesStore& store, std::string_view name) {
  const auto r = store.rate(name, 1);
  return r.empty() ? 0.0 : r.back().value;
}

double gauge_value(const Snapshot& snap, std::string_view name) {
  const MetricSnapshot* m = snap.find(name);
  return m ? m->value : 0.0;
}

void append_double(std::string& out, double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 9e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out += buf;
  } else {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    out += buf;
  }
}

}  // namespace

std::string_view health_state_name(HealthState s) {
  switch (s) {
    case HealthState::kOk: return "ok";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kUnhealthy: return "unhealthy";
  }
  return "ok";
}

HealthWatchdog::HealthWatchdog(Registry& reg, const TimeSeriesStore& store,
                               HealthOptions opts)
    : reg_(reg), store_(store), opts_(opts) {
  const double degraded_at[kNumSignals] = {
      opts_.lag_p95_degraded_ns, opts_.drop_rate_degraded,
      opts_.sketch_fill_degraded, opts_.evict_rate_degraded};
  const double unhealthy_at[kNumSignals] = {
      opts_.lag_p95_unhealthy_ns, opts_.drop_rate_unhealthy,
      opts_.sketch_fill_unhealthy, opts_.evict_rate_unhealthy};
  trackers_.resize(kNumSignals);
  for (std::size_t i = 0; i < kNumSignals; ++i) {
    Tracker& t = trackers_[i];
    t.report.name = kSignalNames[i];
    t.report.degraded_at = degraded_at[i];
    t.report.unhealthy_at = unhealthy_at[i];
    t.flip_counter = &reg_.counter(std::string("obs.health.signal_flips.") +
                                   kSignalNames[i]);
  }
  reg_.gauge("obs.health.state").set(0.0);
}

HealthState HealthWatchdog::grade(double value, double degraded_at,
                                  double unhealthy_at) {
  if (value >= unhealthy_at) return HealthState::kUnhealthy;
  if (value >= degraded_at) return HealthState::kDegraded;
  return HealthState::kOk;
}

void HealthWatchdog::feed(Tracker& t, double value) {
  t.report.value = value;
  t.raw = grade(value, t.report.degraded_at, t.report.unhealthy_at);
  HealthState next = t.report.state;
  if (t.raw > t.report.state) {
    // Breaches act immediately: the tick a threshold is crossed, the
    // signal (and /healthz) reflects it.
    next = t.raw;
    t.calm_ticks = 0;
  } else if (t.raw < t.report.state) {
    // Recovery needs recover_ticks consecutive calmer verdicts so a
    // single quiet sampling interval mid-storm does not flap the state.
    if (++t.calm_ticks >= opts_.recover_ticks) {
      next = t.raw;
      t.calm_ticks = 0;
    }
  } else {
    t.calm_ticks = 0;
  }
  if (next != t.report.state) {
    t.report.state = next;
    ++t.report.flips;
    t.flip_counter->add();
  }
}

void HealthWatchdog::evaluate(const Snapshot& snap) {
  // Signal values come from the time-series store (rates, p95 history) and
  // the snapshot (instantaneous gauges); both are safe from this thread.
  std::vector<double> lag_hist;
  for (const SeriesPoint& p :
       store_.last("online.watermark_lag_ns", opts_.history)) {
    lag_hist.push_back(p.value);
  }
  const double lag_p95 = p95_of(std::move(lag_hist));

  const double drop_rate =
      newest_rate(store_, "online.late_dropped_batches") +
      newest_rate(store_, "online.backpressure_dropped_batches") +
      newest_rate(store_, "online.ring_dropped_records");
  const double fill = gauge_value(snap, "sketch.fill_frac");
  const double evict_rate = newest_rate(store_, "agg.board_evicted");

  const double values[kNumSignals] = {lag_p95, drop_rate, fill, evict_rate};

  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < kNumSignals; ++i) feed(trackers_[i], values[i]);
  HealthState worst = HealthState::kOk;
  for (const Tracker& t : trackers_) worst = std::max(worst, t.report.state);
  overall_ = worst;
  ++ticks_;
  reg_.gauge("obs.health.state").set(static_cast<double>(overall_));
}

HealthState HealthWatchdog::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return overall_;
}

std::vector<SignalReport> HealthWatchdog::signals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SignalReport> out;
  out.reserve(trackers_.size());
  for (const Tracker& t : trackers_) out.push_back(t.report);
  return out;
}

std::uint64_t HealthWatchdog::ticks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ticks_;
}

std::string HealthWatchdog::report_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"state\": \"";
  out += health_state_name(overall_);
  out += "\", \"state_code\": ";
  append_double(out, static_cast<double>(overall_));
  out += ", \"ticks\": ";
  append_double(out, static_cast<double>(ticks_));
  out += ", \"signals\": [";
  for (std::size_t i = 0; i < trackers_.size(); ++i) {
    const SignalReport& s = trackers_[i].report;
    if (i > 0) out += ", ";
    out += "{\"name\": \"";
    out += s.name;
    out += "\", \"value\": ";
    append_double(out, s.value);
    out += ", \"degraded_at\": ";
    append_double(out, s.degraded_at);
    out += ", \"unhealthy_at\": ";
    append_double(out, s.unhealthy_at);
    out += ", \"state\": \"";
    out += health_state_name(s.state);
    out += "\", \"flips\": ";
    append_double(out, static_cast<double>(s.flips));
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace microscope::obs
