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
//
// Ingest does constant work per relation record (DESIGN.md §14):
//
//   * A chain level's key is its two sides' keys at that level plus the
//     kind, and a side's keys depend only on its (flow, NF): walk_side()
//     builds one side's keys and SideKeyHashes once, and
//     combine_pattern_hash() joins two sides' hashes per level into exactly
//     pattern_key_hash(). The victim side is walked once per diagnosis,
//     each culprit side once per (flow, NF) while it stays in a fixed-size
//     direct-mapped cache; the victim's chain lives outside that cache.
//   * One count-min call updates all kChainLevels keys in chain order.
//   * Tracked keys are found in O(1) by their pattern hash through an
//     open-addressing index over the std::map's nodes; the per-kind roots
//     are held directly. The map stays: it keeps patterns() and eviction
//     in key order.
//   * Records are read straight from diagnoses -> relations -> flows, in
//     flatten_diagnoses' order.
// Every step keeps the record order, the hashes, the admission rule and the
// eviction order of adding each record's generalization_chain() key by
// key, so the output is the same (SketchAggregator.OutputDigestIsPinned).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
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

/// A pattern key's hash from its parts: the SideKeyHash of each side and
/// the kind.
inline std::uint64_t combine_pattern_hash(std::uint64_t culprit,
                                          core::CauseKind kind,
                                          std::uint64_t victim) noexcept {
  std::uint64_t h = culprit;
  h ^= static_cast<std::uint64_t>(kind) + 0x9e3779b97f4a7c15ULL + (h << 6) +
       (h >> 2);
  h ^= victim + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

/// Well-mixed 64-bit hash of a pattern key (sketch addressing and the
/// tracked-key index): combine_pattern_hash of its sides' SideKeyHashes.
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

/// One pattern side along the chain: its key and SideKeyHash at each level
/// from the walk's start up (the entries below it are left default).
struct SideChain {
  std::array<autofocus::SideKey, kChainLevels> key{};
  std::array<std::uint64_t, kChainLevels> hash{};
};

/// Walk one side up the chain from `side`, a side of chain level `level`
/// (each dimension at the rung that level's row names): out.key[level] ==
/// side, out.key[m] is the side of clamp_to_level at every m > level, and
/// out.hash[m] is SideKeyHash of out.key[m]. Reads each of the side's 6
/// ladders once. Level m of a pattern chain is {culprit.key[m], kind,
/// victim.key[m]}, with hash combine_pattern_hash(culprit.hash[m], kind,
/// victim.hash[m]).
void walk_side(const autofocus::SideKey& side, int level, SideChain& out);

/// The leaf side of a flow at a node: SideKey::leaf, except that a node
/// missing from the catalog (a replay against a partial catalog) gets type
/// 0 instead of a throw.
autofocus::SideKey leaf_side(const FiveTuple& flow, NodeId node,
                             const autofocus::NfCatalog& catalog);

/// The chain above `k`, a key of chain level `level`: chain[level] == k
/// and chain[m] == clamp_to_level(k, m) for every m > level (the entries
/// below `level` are left default). walk_side() on each side.
std::array<PatternKey, kChainLevels> chain_from(const PatternKey& k,
                                                int level);

/// The full ancestor chain of a relation record, most specific first:
/// chain_from(leaf, 0) for the leaf_side()s of the record's two (flow,
/// NF)s, chain.back() the per-kind root. Adjacent duplicate keys are NOT
/// removed (fixed length keeps sketch totals comparable across records);
/// callers dedupe when it matters.
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
  // The tracked-key index points into the table's nodes.
  SketchAggregator(const SketchAggregator&) = delete;
  SketchAggregator& operator=(const SketchAggregator&) = delete;

  /// Emit the tracked heavy-hitter patterns. Residual compression is
  /// structural (tracked scores already exclude tracked-descendant mass),
  /// so this is a threshold + sort: entries with score >= threshold_frac *
  /// total tracked mass, descending score, PatternKey tie-break.
  std::vector<autofocus::Pattern> patterns(
      const autofocus::NfCatalog& catalog,
      const autofocus::AggregateOptions& opts = {}) const override;

  /// The residual score tracked at `key`, found through the tracked-key
  /// index; nullopt when `key` is not tracked.
  std::optional<double> tracked_score(const PatternKey& key) const;

  /// Counters, tracked entries (kTrackedEntryBytes each), the tracked-key
  /// index, the culprit-side cache and the board.
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
  // std::map: deterministic iteration -> byte-stable patterns()/JSON.
  using Table = std::map<PatternKey, Tracked>;

  /// One slot of the tracked-key index: a table node and its key's
  /// pattern_key_hash; empty when `entry` is the table's end().
  struct Slot {
    std::uint64_t hash{0};
    Table::iterator entry;
  };

  /// A culprit side's chain, cached by (flow, NF).
  struct CachedSide {
    FiveTuple flow{};
    NodeId node{kInvalidNode};
    bool valid{false};
    SideChain chain;
  };

  void ingest_patterns(std::span<const core::Diagnosis> diagnoses) override;
  /// One relation record of the diagnosis whose victim side victim_
  /// holds: `culprit_flow` at the culprit's NF, of the culprit's kind.
  void add_record(const FiveTuple& culprit_flow, const core::Culprit& c,
                  double score);
  /// The chain of the culprit side (flow, node), from the cache or walked
  /// into it. Valid until the next call.
  const SideChain& culprit_side(const FiveTuple& flow, NodeId node);

  /// The tracked entry with pattern hash `hash` whose key `same` accepts,
  /// or tracked_.end().
  template <typename Same>
  Table::iterator find(std::uint64_t hash, Same same) const;
  /// find() for chain level `level` of the sides `culprit` and `victim`:
  /// the key {culprit.key[level], kind, victim.key[level]}.
  Table::iterator find_level(std::uint64_t hash, const SideChain& culprit,
                             core::CauseKind kind, const SideChain& victim,
                             int level) const;
  /// Track `key` (untracked, with pattern hash `hash`) as `t`.
  Table::iterator track(std::uint64_t hash, const PatternKey& key, Tracked t);
  /// Stop tracking `it` (its key has pattern hash `hash`).
  void untrack(Table::iterator it, std::uint64_t hash);

  /// Evict lowest-score non-root tracked entries until size <= capacity,
  /// folding each victim's mass into its nearest tracked ancestor.
  void evict_tracked_down_to(std::size_t capacity);
  double recompute_admission_threshold() const;

  std::size_t budget_;
  autofocus::NfCatalog catalog_;
  SketchSizing sizing_;
  CountMinSketch cm_;
  Table tracked_;
  /// Linear probing over a power-of-two slot count, at most 3/4 full at
  /// the table's peak; deletion shifts back, so there are no tombstones.
  std::vector<Slot> index_;
  std::size_t index_mask_{0};
  /// Each kind's root entry, or tracked_.end() before its first record.
  std::array<Table::iterator, 2> root_;
  std::vector<CachedSide> side_cache_;
  /// The chain of the diagnosis being ingested.
  SideChain victim_;
  /// Admission bar for new tracked keys; refreshed at every window close
  /// (and after mid-window evictions) to the minimum tracked non-root
  /// score once the table has been full.
  double admission_threshold_{0.0};
  std::uint64_t hh_evicted_{0};
  double total_mass_{0.0};
};

}  // namespace microscope::sketch
