// Bounded-memory culprit aggregation (ROADMAP item 3; DESIGN.md §14).
//
// The exact StreamingAggregator keeps every retained relation record, so
// its footprint scales with distinct-flow count — unusable against
// internet-scale flow populations. This aggregator trades exactness for a
// byte budget, fixed at construction:
//
//   * A conservative-update count-min sketch (countmin.hpp) holds decayed
//     mass estimates for <culprit agg, kind, victim agg> pattern keys at
//     every level of a fixed generalization chain (below). Estimates only
//     ever overshoot, by at most epsilon() * (decayed mass * chain length)
//     with probability >= 1 - e^{-depth}.
//   * A capped set of *tracked* pattern entries — the heavy hitters — keyed
//     at the most specific chain level whose sketch estimate clears the
//     admission threshold. Tracked scores are residual masses (mass not
//     claimed by a more specific tracked descendant), which is exactly the
//     AutoFocus §4.4 compressed-report form, so patterns() emits them
//     directly. Eviction folds an entry's mass into its nearest tracked
//     ancestor; per-kind root entries are always resident, so folding
//     terminates and total mass is conserved — the root's own score is the
//     live "unexplained by any specific pattern" residual.
//   * The exact per-culprit board for top() is CulpritAggregator's own,
//     the same one the exact aggregator holds, capped at the budget's
//     board share: the culprit domain (NF node x cause kind) is
//     topology-bounded, so exactness here costs little and keeps the
//     operator board trustworthy.
//
// Decay is the lean-algorithm periodic scaling: every window close
// multiplies the sketch counters and all scores by `decay` (a literal
// halving at decay = 0.5). Scaling commutes with the sketch's min/update
// structure, so the error bound holds over decayed mass at any time.
//
// The generalization chain moves along the AutoFocus ladders of
// autofocus/hierarchy.hpp but walks both pattern sides *together* (a
// diagonal through the 12-D lattice), keeping the per-record work at
// kChainLevels sketch updates instead of a lattice explosion. See
// clamp_to_level().
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "autofocus/aggregate.hpp"
#include "autofocus/hierarchy.hpp"
#include "core/relation.hpp"
#include "online/aggregator.hpp"
#include "sketch/countmin.hpp"

namespace microscope::sketch {

/// A pattern aggregate at some chain level: both sides plus the cause kind.
struct PatternKey {
  autofocus::SideKey culprit{};
  core::CauseKind kind{core::CauseKind::kLocalProcessing};
  autofocus::SideKey victim{};

  friend auto operator<=>(const PatternKey&, const PatternKey&) = default;
};

/// Well-mixed 64-bit hash of a pattern key (sketch addressing).
std::uint64_t pattern_key_hash(const PatternKey& k) noexcept;

/// Levels of the diagonal generalization chain (level 0 = the exact leaf,
/// level kChainLevels-1 = the per-kind root).
inline constexpr int kChainLevels = 8;

/// Generalize `k` so no dimension is more specific than chain level
/// `level` allows: each dimension of both sides moves up its AutoFocus
/// ladder (autofocus::dim_ladder) to the level one table row names.
/// Idempotent and monotone: clamp(clamp(k, a), b) == clamp(k, max(a, b));
/// the ancestor of a level-l key at level m >= l is clamp_to_level(k, m).
///
///   level 0: exact leaf            level 4: IPs -> /16
///   level 1: ports -> band         level 5: NF instance -> type
///   level 2: IPs -> /24            level 6: IPs -> /8, proto -> any
///   level 3: ports -> any          level 7: root (all dims any, NF any)
PatternKey clamp_to_level(PatternKey k, int level);

/// The chain above `k`, a key of chain level `level` (each dimension at
/// the rung that level's row names, as on every chain): chain[level] == k
/// and chain[m] == clamp_to_level(k, m) for every m > level (the entries
/// below `level` are left default). Reads each of k's 12 ladders once.
std::array<PatternKey, kChainLevels> chain_from(PatternKey k, int level);

/// The full ancestor chain of a relation record, most specific first:
/// chain_from(leaf, 0), chain.back() the per-kind root. Adjacent duplicate
/// keys are NOT removed (fixed length keeps sketch totals comparable across
/// records); callers dedupe when it matters.
std::array<PatternKey, kChainLevels> generalization_chain(
    const autofocus::RelationRecord& rec, const autofocus::NfCatalog& catalog);

/// Target failure probability of the count-min error bound: the sketch
/// has depth = ceil(ln(1/kDelta)) = 5 rows.
inline constexpr double kDelta = 0.01;

/// Budget -> table shape, for a budget of at least 1 KiB (smaller ones are
/// raised to it). Split: ~50% count-min counters, ~40% tracked pattern
/// entries (with 2x churn headroom, see DESIGN.md §14), ~10% culprit
/// board.
struct SketchSizing {
  std::size_t width{0};
  std::size_t depth{0};
  std::size_t tracked_capacity{0};
  std::size_t board_capacity{0};

  static SketchSizing from_budget(std::size_t budget_bytes);
};

/// Point-in-time internals snapshot (CLI summary + obs export).
struct SketchStats {
  std::size_t budget_bytes{0};
  std::size_t width{0};
  std::size_t depth{0};
  std::size_t tracked_capacity{0};
  std::size_t tracked_size{0};
  std::uint64_t hh_evicted{0};
  /// Decayed relation mass ingested so far (before chain multiplication).
  double total_mass{0.0};
  /// Absolute estimate-error bound right now: the count-min's e/width
  /// times the total sketch mass (= total_mass * kChainLevels, each record
  /// updates every chain level).
  double est_error_bound{0.0};
};

class SketchAggregator : public online::CulpritAggregator {
 public:
  /// The board takes decay, top_k and min_score from `opts` (decay also
  /// scales the sketch and the tracked table, min_score also drops tracked
  /// entries) and its cap from the budget. `memory_budget` is the total
  /// byte budget across sketch counters, tracked pattern entries and the
  /// board; it must be > 0 (0 means "use the exact aggregator" at the
  /// factory level, never here).
  SketchAggregator(const online::StreamingAggregatorOptions& opts,
                   std::size_t memory_budget, autofocus::NfCatalog catalog);

  /// Emit the tracked heavy-hitter patterns. Residual compression is
  /// structural (tracked scores already exclude tracked-descendant mass),
  /// so this is a threshold + sort: entries with score >= threshold_frac *
  /// total tracked mass, descending score, PatternKey tie-break.
  std::vector<autofocus::Pattern> patterns(
      const autofocus::NfCatalog& catalog,
      const autofocus::AggregateOptions& opts = {}) const override;

  std::size_t memory_bytes() const override;

  /// The sketch's own tables; the board's numbers are the base class's
  /// board_size(), board_capacity() and board_evicted().
  SketchStats stats() const;

 private:
  struct Tracked {
    double score{0.0};  // residual mass claimed at this key
    int level{0};       // chain level the key was admitted at
    bool is_root{false};
  };

  void ingest_patterns(std::span<const core::Diagnosis> diagnoses) override;
  void add_record(const autofocus::RelationRecord& rec);
  /// Evict lowest-score non-root tracked entries until size <= capacity,
  /// folding each victim's mass into its nearest tracked ancestor.
  void evict_tracked_down_to(std::size_t capacity);
  void fold_into_ancestor(const PatternKey& key, int level, double mass);
  double recompute_admission_threshold() const;

  std::size_t budget_;
  autofocus::NfCatalog catalog_;
  SketchSizing sizing_;
  CountMinSketch cm_;
  // std::map: deterministic iteration -> byte-stable patterns()/JSON.
  std::map<PatternKey, Tracked> tracked_;
  /// Admission bar for new tracked keys; refreshed at every window close
  /// (and after mid-window evictions) to the minimum tracked non-root
  /// score once the table has been full.
  double admission_threshold_{0.0};
  std::uint64_t hh_evicted_{0};
  double total_mass_{0.0};
};

}  // namespace microscope::sketch
