// Live culprit aggregation across closed windows.
//
// Folds each window's per-victim diagnoses into (1) an exponentially
// decaying per-culprit score board — the operator's "who is hurting us
// right now" top-k — and (2) a live view the existing AutoFocus two-phase
// pattern aggregation (§4.4) can be computed from at any time.
//
// The board is CulpritAggregator's own: one entry per culprit, decayed,
// floored at min_score and capped with lowest-score eviction. Two
// implementations add the pattern state:
//   * StreamingAggregator (here): exact. A bounded deque of per-window
//     flattened relation records feeds aggregate_patterns(). Memory is
//     bounded by max_windows * records-per-window — fine for testbeds, not
//     for millions of distinct flows.
//   * sketch::SketchAggregator (sketch/sketch_aggregator.hpp): bounded
//     memory. Count-min estimates plus a hierarchical heavy-hitter
//     pattern table sized from a byte budget; see DESIGN.md §14.
// Engines pick via make_aggregator(): a nonzero memory budget selects the
// sketch. Both are built into the microscope_online library.
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
  /// Hard cap on the exact aggregator's board entries, enforced even when
  /// min_score == 0 or decay == 1.0 would otherwise never erase anything
  /// (the sketch sizes its cap from its byte budget instead). 0 =
  /// unlimited (tests only).
  std::size_t max_board_entries = 65536;
};

/// Estimated heap cost of one board entry (key + value + red-black node
/// overhead); used for the sketch's budget split and for memory_bytes().
inline constexpr std::size_t kBoardBytesPerCulprit = 96;

/// The aggregation surface the online engine drives at window close. The
/// decayed per-culprit board behind top() is written once, here; each
/// implementation adds only the state its patterns() reads.
class CulpritAggregator {
 public:
  virtual ~CulpritAggregator() = default;

  /// Fold one closed window in. The board first decays every score and
  /// drops culprits below min_score, so the newest window enters at full
  /// weight; then it adds each relation's score, counts windows_seen once
  /// per distinct culprit of the window, and evicts the lowest (score,
  /// culprit) first while it holds more than its cap (counted by
  /// board_evicted() and the agg.board_evicted metric). The
  /// implementation's pattern state follows.
  void ingest(std::span<const core::Diagnosis> diagnoses);

  /// The live board: top culprits by decayed score, ties broken by
  /// (node, kind) so the order is deterministic.
  std::vector<TopCulprit> top() const;

  /// §4.4 pattern aggregation over the retained (or sketched) state.
  virtual std::vector<autofocus::Pattern> patterns(
      const autofocus::NfCatalog& catalog,
      const autofocus::AggregateOptions& opts = {}) const = 0;

  std::uint64_t windows_ingested() const { return windows_; }

  /// Approximate heap footprint of the aggregation state (estimated
  /// per-entry costs; exact for fixed-size sketch tables).
  virtual std::size_t memory_bytes() const = 0;

  /// Culprits on the board, its cap (0 = unlimited), and the culprits the
  /// cap evicted (not counting those decay dropped).
  std::size_t board_size() const { return board_.size(); }
  std::size_t board_capacity() const { return board_capacity_; }
  std::uint64_t board_evicted() const { return board_evicted_; }

 protected:
  /// Board settings: decay, top_k and min_score from `opts`, capped at
  /// `board_capacity` culprits (0 = unlimited).
  CulpritAggregator(const StreamingAggregatorOptions& opts,
                    std::size_t board_capacity);

  /// Fold the window into the implementation's pattern state; ingest()
  /// calls it after updating the board.
  virtual void ingest_patterns(std::span<const core::Diagnosis> diagnoses) = 0;

  const StreamingAggregatorOptions& options() const { return opts_; }

 private:
  struct Entry {
    double score{0.0};
    std::uint64_t windows_seen{0};
    TimeNs last_seen{0};
    /// windows_ + 1 of the last window that counted in windows_seen.
    std::uint64_t seen_in{0};
  };

  StreamingAggregatorOptions opts_;
  std::size_t board_capacity_;
  std::map<core::Culprit, Entry> board_;  // ordered: deterministic output
  std::uint64_t windows_{0};
  std::uint64_t board_evicted_{0};
};

/// The exact aggregator: the board capped at max_board_entries, plus a
/// bounded deque of per-window flattened relation records that feeds
/// aggregate_patterns().
class StreamingAggregator : public CulpritAggregator {
 public:
  explicit StreamingAggregator(StreamingAggregatorOptions opts = {});

  /// Run §4.4 pattern aggregation over the retained window records, each
  /// window's scores scaled by decay^age (age 0 = the newest window,
  /// whose scale is exactly 1.0).
  std::vector<autofocus::Pattern> patterns(
      const autofocus::NfCatalog& catalog,
      const autofocus::AggregateOptions& opts = {}) const override;

  std::size_t memory_bytes() const override;
  std::size_t retained_records() const;

 private:
  void ingest_patterns(std::span<const core::Diagnosis> diagnoses) override;

  std::deque<std::vector<autofocus::RelationRecord>> recent_;  // per window
};

/// Engine factory: the exact StreamingAggregator when `memory_budget` is
/// 0, otherwise a sketch::SketchAggregator sized to the budget (its board
/// takes decay, top_k and min_score from `opts`). `catalog` feeds the
/// sketch's NF generalization ladder (instance -> type); it is copied and
/// only consulted in sketch mode.
std::unique_ptr<CulpritAggregator> make_aggregator(
    const StreamingAggregatorOptions& opts, std::size_t memory_budget,
    const autofocus::NfCatalog& catalog = {});

}  // namespace microscope::online
