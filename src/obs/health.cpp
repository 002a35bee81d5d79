#include "obs/health.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

namespace microscope::obs {

namespace {

constexpr std::size_t kNumSignals = 4;
constexpr const char* kSignalNames[kNumSignals] = {
    "watermark_lag", "drop_rate", "sketch_fill", "board_evictions"};

/// Counters (and the ring's cumulative drop gauge) whose per-second change
/// feeds a signal: the first three sum to drop_rate, the last is
/// board_evictions.
constexpr std::size_t kNumRateInputs = 4;
constexpr const char* kRateInputs[kNumRateInputs] = {
    "online.late_dropped_batches", "online.backpressure_dropped_batches",
    "online.ring_dropped_records", "agg.board_evicted"};

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

double gauge_value(const Snapshot& snap, std::string_view name) {
  const MetricSnapshot* m = snap.find(name);
  return m ? m->value : 0.0;
}

/// Per-second change of `name` over the `dt_s` since the previous tick,
/// whose value `prev` holds and is advanced (NaN until the metric is first
/// seen): 0 until the metric has been seen on two ticks.
double rate_since(const Snapshot& snap, const char* name, double& prev,
                  double dt_s) {
  const MetricSnapshot* m = snap.find(name);
  if (!m) return 0.0;
  const double before = std::exchange(prev, m->value);
  if (std::isnan(before) || dt_s <= 0) return 0.0;
  return (m->value - before) / dt_s;
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

HealthWatchdog::HealthWatchdog(Registry& reg, HealthOptions opts)
    : reg_(reg),
      opts_(opts),
      state_gauge_(reg.gauge("obs.health.state")),
      prev_inputs_(kNumRateInputs, std::numeric_limits<double>::quiet_NaN()) {
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
  state_gauge_.set(0.0);
}

HealthWatchdog::~HealthWatchdog() { stop(); }

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

void HealthWatchdog::tick(Clock::time_point now) {
  evaluate(reg_.snapshot(), now);
}

void HealthWatchdog::evaluate(const Snapshot& snap, Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (const MetricSnapshot* lag = snap.find("online.watermark_lag_ns")) {
    lag_history_.push_back(lag->value);
    while (lag_history_.size() > opts_.history) lag_history_.pop_front();
  }
  const double lag_p95 =
      p95_of(std::vector<double>(lag_history_.begin(), lag_history_.end()));

  const double dt_s =
      ticks_ == 0 ? 0.0
                  : std::chrono::duration<double>(now - prev_tick_).count();
  prev_tick_ = now;
  double rates[kNumRateInputs];
  for (std::size_t i = 0; i < kNumRateInputs; ++i)
    rates[i] = rate_since(snap, kRateInputs[i], prev_inputs_[i], dt_s);
  const double drop_rate = rates[0] + rates[1] + rates[2];
  const double evict_rate = rates[3];
  const double fill = gauge_value(snap, "sketch.fill_frac");

  const double values[kNumSignals] = {lag_p95, drop_rate, fill, evict_rate};
  for (std::size_t i = 0; i < kNumSignals; ++i) feed(trackers_[i], values[i]);
  HealthState worst = HealthState::kOk;
  for (const Tracker& t : trackers_) worst = std::max(worst, t.report.state);
  overall_ = worst;
  ++ticks_;
  state_gauge_.set(static_cast<double>(overall_));
}

void HealthWatchdog::start(std::chrono::milliseconds every) {
  if (thread_.joinable()) return;
  if (every.count() <= 0) every = std::chrono::milliseconds(1);
  stop_requested_ = false;
  thread_ = std::thread([this, every] {
    tick();  // immediate first verdict: short runs still get one
    std::unique_lock<std::mutex> lock(thread_mu_);
    while (!cv_.wait_for(lock, every, [this] { return stop_requested_; })) {
      lock.unlock();
      tick();
      lock.lock();
    }
  });
}

void HealthWatchdog::stop() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(thread_mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
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
