// Health/SLO watchdog: derived signals over the metric registry feeding an
// ok -> degraded -> unhealthy state machine with hysteresis.
//
// Raw metrics say what the pipeline did; operators polling /healthz want a
// verdict: is the engine keeping up? The watchdog derives four signals on
// every sampler tick (timeseries.hpp invokes evaluate() as its hook):
//
//   watermark_lag    p95 of online.watermark_lag_ns over recent history
//   drop_rate        late + backpressure + ring drops per second
//   sketch_fill      sketch.fill_frac, instantaneous
//   board_evictions  agg.board_evicted per second
//
// Each signal maps its value through degraded/unhealthy thresholds
// (CLI --health-*); the overall state is the worst signal. Upgrades are
// immediate — a breach is actionable the tick it happens — but downgrades
// require `recover_ticks` consecutive calmer ticks, so one quiet interval
// in the middle of a storm does not flap /healthz. State is exported as
// the obs.health.state gauge (0/1/2), per-signal flip counters
// (obs.health.signal_flips.<name>), and the /healthz JSON body; the HTTP
// layer maps unhealthy to status 503 and everything else to 200.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

namespace microscope::obs {

enum class HealthState : std::uint8_t { kOk = 0, kDegraded = 1, kUnhealthy = 2 };

std::string_view health_state_name(HealthState s);

struct HealthOptions {
  /// Watermark lag p95 thresholds (ns). Defaults sized for the 100 ms
  /// Fig. 10 window: one window behind is degraded, ten is unhealthy.
  double lag_p95_degraded_ns = 100e6;
  double lag_p95_unhealthy_ns = 1e9;
  /// Dropped batches/records per second (late + backpressure + ring).
  double drop_rate_degraded = 1.0;
  double drop_rate_unhealthy = 50.0;
  /// Sketch occupancy (0..1); past ~0.7 the CM error bound degrades fast.
  double sketch_fill_degraded = 0.70;
  double sketch_fill_unhealthy = 0.95;
  /// Aggregation board evictions per second (windows falling off the board
  /// before being read).
  double evict_rate_degraded = 1.0;
  double evict_rate_unhealthy = 50.0;
  /// Consecutive calmer ticks required before a downgrade (hysteresis).
  int recover_ticks = 3;
  /// Samples of history consulted for the lag p95.
  std::size_t history = 30;
};

/// One evaluated signal, as surfaced in /healthz.
struct SignalReport {
  std::string name;
  double value{0.0};
  double degraded_at{0.0};
  double unhealthy_at{0.0};
  HealthState state{HealthState::kOk};
  std::uint64_t flips{0};  // state transitions since start
};

class HealthWatchdog {
 public:
  HealthWatchdog(Registry& reg, const TimeSeriesStore& store,
                 HealthOptions opts = {});

  /// One evaluation tick over the freshest snapshot (the sampler hook).
  /// Thread-safe against state()/signals()/report_json().
  void evaluate(const Snapshot& snap);

  HealthState state() const;
  bool healthy() const { return state() != HealthState::kUnhealthy; }
  std::vector<SignalReport> signals() const;
  std::uint64_t ticks() const;

  /// The /healthz body: {"state": ..., "state_code": ..., "ticks": ...,
  /// "signals": [{"name", "value", "degraded_at", "unhealthy_at", "state",
  /// "flips"}, ...]}.
  std::string report_json() const;

  const HealthOptions& options() const { return opts_; }

 private:
  struct Tracker {
    SignalReport report;
    HealthState raw{HealthState::kOk};  // this tick's unhysteresed verdict
    int calm_ticks{0};
    Counter* flip_counter{nullptr};
  };

  // Severity of `value` against the tracker's thresholds.
  static HealthState grade(double value, double degraded_at,
                           double unhealthy_at);
  void feed(Tracker& t, double value);

  Registry& reg_;
  const TimeSeriesStore& store_;
  HealthOptions opts_;

  mutable std::mutex mu_;
  std::vector<Tracker> trackers_;
  HealthState overall_{HealthState::kOk};
  std::uint64_t ticks_{0};
};

}  // namespace microscope::obs
