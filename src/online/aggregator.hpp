// Live culprit aggregation across closed windows.
//
// Folds each window's per-victim diagnoses into (1) an exponentially
// decaying per-culprit score board — the operator's "who is hurting us
// right now" top-k — and (2) a live view the existing AutoFocus two-phase
// pattern aggregation (§4.4) can be computed from at any time.
//
// Two implementations share the CulpritAggregator surface:
//   * StreamingAggregator (here): exact. The board holds one entry per
//     culprit (hard-capped at max_board_entries with lowest-score
//     eviction) and a bounded deque of per-window flattened relation
//     records feeds aggregate_patterns(). Memory is bounded by
//     max_windows * records-per-window — fine for testbeds, not for
//     millions of distinct flows.
//   * sketch::SketchAggregator (sketch/sketch_aggregator.hpp): bounded
//     memory. Count-min estimates plus a hierarchical heavy-hitter
//     pattern board sized from a byte budget; see DESIGN.md §14.
// Engines pick via make_aggregator(): a nonzero memory budget selects the
// sketch.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "autofocus/aggregate.hpp"
#include "core/relation.hpp"

namespace microscope::online {

/// One live-board row: a culprit with its decayed cumulative score.
struct TopCulprit {
  core::Culprit culprit{};
  /// Decayed cumulative score.
  double score{0.0};
  /// Number of closed windows in which this culprit appeared (while it
  /// was resident on the board — eviction forgets history).
  std::uint64_t windows_seen{0};
  /// End of the culprit's most recent behaviour interval.
  TimeNs last_seen{0};
};

/// The aggregation surface the online engine drives at window close.
class CulpritAggregator {
 public:
  virtual ~CulpritAggregator() = default;

  /// Fold one closed window's diagnoses in (decays everything first).
  virtual void ingest(std::span<const core::Diagnosis> diagnoses) = 0;

  /// The live board: top culprits by decayed score, ties broken by
  /// (node, kind) so the order is deterministic.
  virtual std::vector<TopCulprit> top() const = 0;

  /// §4.4 pattern aggregation over the retained (or sketched) state.
  virtual std::vector<autofocus::Pattern> patterns(
      const autofocus::NfCatalog& catalog,
      const autofocus::AggregateOptions& opts = {}) const = 0;

  virtual std::uint64_t windows_ingested() const = 0;

  /// Approximate heap footprint of the aggregation state (estimated
  /// per-entry costs; exact for fixed-size sketch tables).
  virtual std::size_t memory_bytes() const = 0;
};

struct StreamingAggregatorOptions {
  /// Multiplier applied to every accumulated score at each window close;
  /// 1.0 = never forget, 0.0 = only the latest window.
  double decay = 0.8;
  /// Size of the live culprit board returned by top().
  std::size_t top_k = 10;
  /// Windows of relation records retained for pattern aggregation.
  std::size_t max_windows = 32;
  /// Culprits decayed below this score are dropped from the board.
  double min_score = 1e-6;
  /// Hard cap on board entries, enforced even when min_score == 0 or
  /// decay == 1.0 would otherwise never erase anything: the lowest-score
  /// entries are evicted (counted by board_evicted() and the
  /// agg.board_evicted metric). 0 = unlimited (tests only).
  std::size_t max_board_entries = 65536;
};

class StreamingAggregator : public CulpritAggregator {
 public:
  using TopCulprit = online::TopCulprit;

  explicit StreamingAggregator(StreamingAggregatorOptions opts = {});

  void ingest(std::span<const core::Diagnosis> diagnoses) override;
  std::vector<online::TopCulprit> top() const override;

  /// Run §4.4 pattern aggregation over the retained window records, each
  /// window's scores scaled by decay^age (age 0 = the newest window,
  /// whose scale is exactly 1.0).
  std::vector<autofocus::Pattern> patterns(
      const autofocus::NfCatalog& catalog,
      const autofocus::AggregateOptions& opts = {}) const override;

  std::uint64_t windows_ingested() const override { return windows_; }
  std::size_t memory_bytes() const override;
  std::size_t retained_records() const;
  /// Board entries dropped by the max_board_entries cap (not by decay).
  std::uint64_t board_evicted() const { return board_evicted_; }

 private:
  struct Entry {
    double score{0.0};
    std::uint64_t windows_seen{0};
    TimeNs last_seen{0};
  };

  StreamingAggregatorOptions opts_;
  std::map<core::Culprit, Entry> board_;  // ordered: deterministic output
  std::deque<std::vector<autofocus::RelationRecord>> recent_;  // per window
  std::uint64_t windows_{0};
  std::uint64_t board_evicted_{0};
};

/// Engine factory: the exact StreamingAggregator when `memory_budget` is
/// 0, otherwise a sketch::SketchAggregator sized to the budget (decay,
/// top_k and min_score carry over; see SketchOptions::from_streaming).
/// `catalog` feeds the sketch's NF generalization ladder (instance ->
/// type); it is copied and only consulted in sketch mode.
std::unique_ptr<CulpritAggregator> make_aggregator(
    const StreamingAggregatorOptions& opts, std::size_t memory_budget,
    const autofocus::NfCatalog& catalog = {});

}  // namespace microscope::online
