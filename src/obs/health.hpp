// Health/SLO watchdog: derived signals over the metric registry feeding an
// ok -> degraded -> unhealthy state machine with hysteresis.
//
// Raw metrics say what the pipeline did; operators polling /healthz want a
// verdict: is the engine keeping up? Each tick the watchdog snapshots the
// registry and derives four signals, keeping only the history they read:
//
//   watermark_lag    p95 of online.watermark_lag_ns over the last
//                    `history` ticks
//   drop_rate        late + backpressure + ring drops per second since the
//                    previous tick
//   sketch_fill      sketch.fill_frac, instantaneous
//   board_evictions  agg.board_evicted (culprits the board's cap evicted)
//                    per second since the previous tick
//
// Each signal maps its value through degraded/unhealthy thresholds
// (CLI --health-*); the overall state is the worst signal. Upgrades are
// immediate — a breach is actionable the tick it happens — but downgrades
// require `recover_ticks` consecutive calmer ticks, so one quiet interval
// in the middle of a storm does not flap /healthz. State is exported as
// the obs.health.state gauge (0/1/2), per-signal flip counters
// (obs.health.signal_flips.<name>), and the /healthz JSON body; the HTTP
// layer maps unhealthy to status 503 and everything else to 200.
//
// start() runs the ticks on the watchdog's own thread, paced by CLI
// --sample-every; tests call tick() with a synthetic clock instead.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace microscope::obs {

enum class HealthState : std::uint8_t { kOk = 0, kDegraded = 1, kUnhealthy = 2 };

std::string_view health_state_name(HealthState s);

struct HealthOptions {
  /// Watermark lag p95 thresholds (ns): 100 ms degraded, 1 s unhealthy,
  /// which at the default (and CLI) 10 ms window is 10 and 100 windows
  /// behind.
  double lag_p95_degraded_ns = 100e6;
  double lag_p95_unhealthy_ns = 1e9;
  /// Dropped batches/records per second (late + backpressure + ring).
  double drop_rate_degraded = 1.0;
  double drop_rate_unhealthy = 50.0;
  /// Sketch occupancy (0..1); past ~0.7 the CM error bound degrades fast.
  double sketch_fill_degraded = 0.70;
  double sketch_fill_unhealthy = 0.95;
  /// Culprits per second that the aggregation board's cap evicts
  /// (agg.board_evicted): a steady rate means the culprit population
  /// outgrows the board.
  double evict_rate_degraded = 1.0;
  double evict_rate_unhealthy = 50.0;
  /// Consecutive calmer ticks required before a downgrade (hysteresis).
  int recover_ticks = 3;
  /// Ticks of history consulted for the lag p95.
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
  using Clock = std::chrono::steady_clock;

  explicit HealthWatchdog(Registry& reg, HealthOptions opts = {});
  ~HealthWatchdog();

  HealthWatchdog(const HealthWatchdog&) = delete;
  HealthWatchdog& operator=(const HealthWatchdog&) = delete;

  /// One evaluation tick over a fresh registry snapshot taken at `now`.
  void tick(Clock::time_point now = Clock::now());

  /// The evaluation behind tick(), over a snapshot the caller took at
  /// `now`. Thread-safe against state()/signals()/report_json().
  void evaluate(const Snapshot& snap, Clock::time_point now);

  /// Tick on the watchdog's own thread: once immediately, then every
  /// `every`. start()/stop() are idempotent; stop() joins.
  void start(std::chrono::milliseconds every);
  void stop();

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
  HealthOptions opts_;
  Gauge& state_gauge_;

  mutable std::mutex mu_;
  std::vector<Tracker> trackers_;
  HealthState overall_{HealthState::kOk};
  std::uint64_t ticks_{0};
  // Signal history: the newest `history` lag values, and each rate
  // input's value at the previous tick (NaN until seen) with that tick's
  // time.
  std::deque<double> lag_history_;
  std::vector<double> prev_inputs_;
  Clock::time_point prev_tick_{};

  std::thread thread_;
  std::mutex thread_mu_;
  std::condition_variable cv_;
  bool stop_requested_{false};
};

}  // namespace microscope::obs
