// Queuing periods and local diagnosis (paper §4.1).
//
// A queuing period at NF f, relative to a victim packet p arriving at time
// t_p, is the interval from the moment the queue last started building
// (empty -> non-empty) until t_p. Over that period the buildup
// n_i(T) - n_p(T) is split into:
//
//   S_i = n_i - r*T  when the input exceeded the peak rate, else 0   (eq 1)
//   S_p = r*T - n_p  when input exceeded peak, else n_i - n_p        (eq 2)
//
// so that S_i + S_p equals the buildup.
#pragma once

#include <optional>

#include "common/time.hpp"
#include "trace/reconstruct.hpp"

namespace microscope::core {

struct QueuingPeriodOptions {
  /// Queue-length threshold defining the start of a period (§7 discussion).
  /// 0 uses the paper's deployed rule: a read batch shorter than max_batch
  /// proves the queue emptied. A positive value instead starts the period
  /// when the reconstructed queue length last rose above the threshold.
  std::uint32_t queue_threshold = 0;
  /// How far back to search for the period start at most.
  DurationNs max_lookback = 500_ms;
};

struct QueuingPeriod {
  /// Time the first packet of the period entered the queue.
  TimeNs start{0};
  /// The victim's arrival (the period's anchor).
  TimeNs end{0};
  /// Indices into NodeTimeline::arrivals covered by the period
  /// [first_arrival, last_arrival).
  std::size_t first_arrival{0};
  std::size_t last_arrival{0};

  DurationNs length() const { return end - start; }
  std::size_t arrival_count() const { return last_arrival - first_arrival; }
};

/// Find the queuing period at a node for a packet arriving at `t_p`.
/// Returns nullopt when the queue was provably empty on arrival (no
/// queue-caused problem at this NF).
std::optional<QueuingPeriod> find_queuing_period(
    const trace::NodeTimeline& tl, TimeNs t_p,
    const QueuingPeriodOptions& opts = {});

struct LocalScores {
  double n_i{0};       // packets arriving during the period
  double n_p{0};       // packets processed during the period
  double expected{0};  // r_f * T
  double s_i{0};       // input workload score (eq 1)
  double s_p{0};       // processing score (eq 2)

  friend bool operator==(const LocalScores&, const LocalScores&) = default;
};

/// Evaluate eqns (1)-(2) over a period with peak rate `r`.
LocalScores local_scores(const trace::NodeTimeline& tl,
                         const QueuingPeriod& period, RatePerNs r);

}  // namespace microscope::core
