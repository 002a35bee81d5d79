#include "sketch/sketch_aggregator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "common/flow.hpp"
#include "obs/metrics.hpp"

namespace microscope::sketch {

namespace {

/// Estimated heap cost of one tracked pattern entry (key + value +
/// red-black node overhead); used for budget sizing and memory_bytes()
/// accounting.
constexpr std::size_t kTrackedEntryBytes = 160;

/// Registry handles, resolved once per process (same pattern as the
/// engines' OnlineMetrics); building a SketchAggregator registers them.
struct SketchMetrics {
  obs::Gauge& budget_bytes;
  obs::Gauge& fill_frac;
  obs::Gauge& est_error_bound;
  obs::Counter& hh_evicted;

  static SketchMetrics& get() {
    obs::Registry& r = obs::Registry::global();
    static SketchMetrics m{
        r.gauge("sketch.budget_bytes"), r.gauge("sketch.fill_frac"),
        r.gauge("sketch.est_error_bound"), r.counter("sketch.hh_evicted")};
    return m;
  }
};

/// The per-dimension AutoFocus level (autofocus::dim_level) each chain
/// level generalizes both sides to. Dimensions: src IP, dst IP, src port,
/// dst port, proto, NF.
constexpr int kChainDimLevel[kChainLevels][autofocus::kSideDims] = {
    {0, 0, 0, 0, 0, 0},  // 0: exact leaf
    {0, 0, 1, 1, 0, 0},  // 1: ports -> band
    {1, 1, 1, 1, 0, 0},  // 2: IPs -> /24
    {1, 1, 2, 2, 0, 0},  // 3: ports -> any
    {2, 2, 2, 2, 0, 0},  // 4: IPs -> /16
    {2, 2, 2, 2, 0, 1},  // 5: NF instance -> type
    {3, 3, 2, 2, 1, 1},  // 6: IPs -> /8, proto -> any
    {4, 4, 2, 2, 1, 2},  // 7: root
};

constexpr int kRoot = kChainLevels - 1;

}  // namespace

autofocus::SideKey leaf_side(const FiveTuple& flow, NodeId node,
                             const autofocus::NfCatalog& catalog) {
  using autofocus::NfSet;
  if (node < catalog.type_of.size())
    return autofocus::SideKey::leaf(flow, node, catalog);
  autofocus::SideKey k;
  k.src = Ipv4Prefix::host(flow.src_ip);
  k.dst = Ipv4Prefix::host(flow.dst_ip);
  k.sport = autofocus::PortRange::exact(flow.src_port);
  k.dport = autofocus::PortRange::exact(flow.dst_port);
  k.proto = flow.proto;
  k.nf = NfSet{NfSet::Level::kInstance, node, 0};
  return k;
}

std::uint64_t pattern_key_hash(const PatternKey& k) noexcept {
  const autofocus::SideKeyHash sh;
  return combine_pattern_hash(sh(k.culprit), k.kind, sh(k.victim));
}

PatternKey clamp_to_level(PatternKey k, int level) {
  const int(&want)[autofocus::kSideDims] = kChainDimLevel[level];
  for (autofocus::SideKey* side : {&k.culprit, &k.victim}) {
    for (int d = 0; d < autofocus::kSideDims; ++d) {
      const int have = autofocus::dim_level(*side, d);
      if (have >= want[d]) continue;
      std::uint64_t ladder[autofocus::kMaxDimLevels];
      autofocus::dim_ladder(*side, d, ladder);
      autofocus::set_dim_code(*side, d, ladder[want[d] - have]);
    }
  }
  return k;
}

void walk_side(const autofocus::SideKey& side, int level, SideChain& out) {
  using autofocus::kSideDims;
  // Every dimension of the side sits at rung `have` of its ladder, the one
  // its level's table row names, so rung i of the ladder read from it is
  // rung have + i: read each ladder once and give every higher level rung
  // want - have (the sides clamp_to_level computes level by level).
  const int(&have)[kSideDims] = kChainDimLevel[level];
  std::uint64_t ladder[kSideDims][autofocus::kMaxDimLevels];
  for (int d = 0; d < kSideDims; ++d)
    autofocus::dim_ladder(side, d, ladder[d]);
  const autofocus::SideKeyHash sh;
  autofocus::SideKey k = side;
  out.key[level] = k;
  out.hash[level] = sh(k);
  for (int l = level + 1; l < kChainLevels; ++l) {
    for (int d = 0; d < kSideDims; ++d) {
      const int want = kChainDimLevel[l][d];
      if (want != kChainDimLevel[l - 1][d])
        autofocus::set_dim_code(k, d, ladder[d][want - have[d]]);
    }
    out.key[l] = k;
    out.hash[l] = sh(k);
  }
}

std::array<PatternKey, kChainLevels> chain_from(const PatternKey& k,
                                                int level) {
  SideChain cul;
  SideChain vic;
  walk_side(k.culprit, level, cul);
  walk_side(k.victim, level, vic);
  std::array<PatternKey, kChainLevels> chain;
  for (int l = level; l < kChainLevels; ++l)
    chain[l] = {cul.key[l], k.kind, vic.key[l]};
  return chain;
}

std::array<PatternKey, kChainLevels> generalization_chain(
    const autofocus::RelationRecord& rec,
    const autofocus::NfCatalog& catalog) {
  return chain_from({leaf_side(rec.culprit_flow, rec.culprit_nf, catalog),
                     rec.kind,
                     leaf_side(rec.victim_flow, rec.victim_nf, catalog)},
                    0);
}

SketchSizing SketchSizing::from_budget(std::size_t budget_bytes) {
  budget_bytes = std::max<std::size_t>(budget_bytes, 1024);
  SketchSizing s;
  s.depth = static_cast<std::size_t>(std::ceil(std::log(1.0 / kDelta)));
  // ~50% counters / ~40% tracked entries (2x churn headroom, entries may
  // transiently reach twice the steady capacity) / ~10% culprit board.
  s.width = std::max<std::size_t>(
      64, (budget_bytes / 2) / (s.depth * sizeof(double)));
  s.tracked_capacity = std::max<std::size_t>(
      16, (budget_bytes * 2 / 5) / (2 * kTrackedEntryBytes));
  s.board_capacity = std::max<std::size_t>(
      16, (budget_bytes / 10) / online::kBoardBytesPerCulprit);
  return s;
}

SketchAggregator::SketchAggregator(
    const online::StreamingAggregatorOptions& opts, std::size_t memory_budget,
    autofocus::NfCatalog catalog)
    : CulpritAggregator(opts,
                        SketchSizing::from_budget(memory_budget).board_capacity),
      budget_(memory_budget),
      catalog_(std::move(catalog)),
      sizing_(SketchSizing::from_budget(memory_budget)),
      cm_(sizing_.width, sizing_.depth),
      // About a tenth of the budget, in a power of two of entries.
      side_cache_(std::bit_floor(
          std::max<std::size_t>(1, budget_ / 10 / sizeof(CachedSide)))) {
  // The table peaks at 2 x capacity plus one root and one admission
  // (add_record's churn guard); the index is at most 3/4 full there.
  const std::size_t peak = 2 * sizing_.tracked_capacity + 2;
  const std::size_t slots = std::bit_ceil(peak + peak / 3 + 1);
  index_.assign(slots, Slot{0, tracked_.end()});
  index_mask_ = slots - 1;
  root_.fill(tracked_.end());
  SketchMetrics::get();
}

template <typename Same>
SketchAggregator::Table::iterator SketchAggregator::find(std::uint64_t hash,
                                                         Same same) const {
  for (std::size_t i = hash & index_mask_;; i = (i + 1) & index_mask_) {
    const Slot& s = index_[i];
    if (s.entry == tracked_.end()) return s.entry;
    if (s.hash == hash && same(s.entry->first)) return s.entry;
  }
}

SketchAggregator::Table::iterator SketchAggregator::find_level(
    std::uint64_t hash, const SideChain& culprit, core::CauseKind kind,
    const SideChain& victim, int level) const {
  return find(hash, [&](const PatternKey& k) {
    return k.kind == kind && k.culprit == culprit.key[level] &&
           k.victim == victim.key[level];
  });
}

SketchAggregator::Table::iterator SketchAggregator::track(
    std::uint64_t hash, const PatternKey& key, Tracked t) {
  const Table::iterator it = tracked_.emplace(key, t).first;
  std::size_t i = hash & index_mask_;
  while (index_[i].entry != tracked_.end()) i = (i + 1) & index_mask_;
  index_[i] = {hash, it};
  return it;
}

void SketchAggregator::untrack(Table::iterator it, std::uint64_t hash) {
  std::size_t hole = hash & index_mask_;
  while (index_[hole].entry != it) hole = (hole + 1) & index_mask_;
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless its home lies cyclically in (hole, j].
  for (std::size_t j = (hole + 1) & index_mask_;
       index_[j].entry != tracked_.end(); j = (j + 1) & index_mask_) {
    const std::size_t home = index_[j].hash & index_mask_;
    if (((j - home) & index_mask_) >= ((j - hole) & index_mask_)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole].entry = tracked_.end();
  tracked_.erase(it);
}

const SideChain& SketchAggregator::culprit_side(const FiveTuple& flow,
                                                NodeId node) {
  // The low bits of node * odd are a permutation of the node's low bits.
  const std::uint64_t h = flow_hash(flow) ^ node * 0x9e3779b97f4a7c15ULL;
  CachedSide& c = side_cache_[h & (side_cache_.size() - 1)];
  if (!c.valid || c.node != node || c.flow != flow) {
    c.flow = flow;
    c.node = node;
    c.valid = true;
    walk_side(leaf_side(flow, node, catalog_), 0, c.chain);
  }
  return c.chain;
}

void SketchAggregator::ingest_patterns(
    std::span<const core::Diagnosis> diagnoses) {
  // Decay first so the newest window always enters at full weight. This is
  // the sketch-halving step: every counter and score scales by decay.
  const double decay = options().decay;
  cm_.scale(decay);
  total_mass_ *= decay;
  for (auto it = tracked_.begin(); it != tracked_.end();) {
    const Table::iterator cur = it++;
    cur->second.score *= decay;
    if (!cur->second.is_root && cur->second.score < options().min_score)
      untrack(cur, pattern_key_hash(cur->first));
  }

  // flatten_diagnoses' records, in its order: a relation with no flows is
  // one record on the zero flow.
  for (const core::Diagnosis& d : diagnoses) {
    if (d.relations.empty()) continue;
    walk_side(leaf_side(d.victim.flow, d.victim.node, catalog_), 0, victim_);
    for (const core::CausalRelation& rel : d.relations) {
      if (rel.flows.empty()) {
        add_record({}, rel.culprit, rel.score);
        continue;
      }
      for (const core::FlowWeight& fw : rel.flows)
        add_record(fw.flow, rel.culprit, fw.weight);
    }
  }
  evict_tracked_down_to(sizing_.tracked_capacity);
  admission_threshold_ = recompute_admission_threshold();

  SketchMetrics& m = SketchMetrics::get();
  m.budget_bytes.set(static_cast<double>(budget_));
  m.fill_frac.set(static_cast<double>(tracked_.size()) /
                  static_cast<double>(sizing_.tracked_capacity));
  m.est_error_bound.set(cm_.epsilon() * total_mass_ * kChainLevels);
}

void SketchAggregator::add_record(const FiveTuple& culprit_flow,
                                  const core::Culprit& c, double score) {
  if (score <= 0.0) return;
  total_mass_ += score;
  const SideChain& culprit = culprit_side(culprit_flow, c.node);
  const SideChain& victim = victim_;
  const core::CauseKind kind = c.kind;
  std::uint64_t hash[kChainLevels] = {};
  for (int l = 0; l < kChainLevels; ++l)
    hash[l] = combine_pattern_hash(culprit.hash[l], kind, victim.hash[l]);
  double est[kChainLevels] = {};
  cm_.add(hash, score, est);
  // The per-kind root is always resident: fold-ups terminate there and its
  // score is the live "unexplained by any specific pattern" residual.
  Table::iterator& root = root_[static_cast<std::size_t>(kind)];
  if (root == tracked_.end())
    root = track(hash[kRoot], PatternKey{{}, kind, {}},
                 Tracked{0.0, kRoot, /*is_root=*/true});
  Table::iterator target = root;
  int first_tracked = kRoot;
  for (int l = 0; l < kRoot; ++l) {
    const Table::iterator it = find_level(hash[l], culprit, kind, victim, l);
    if (it != tracked_.end()) {
      target = it;
      first_tracked = l;
      break;
    }
  }
  // Admit the most specific untracked ancestor whose sketch estimate
  // clears the bar; otherwise the mass lands on the nearest tracked
  // ancestor (residual semantics).
  for (int l = 0; l < first_tracked; ++l) {
    if (est[l] >= admission_threshold_ && est[l] > 0.0) {
      target = track(hash[l], {culprit.key[l], kind, victim.key[l]},
                     Tracked{0.0, l, /*is_root=*/false});
      break;
    }
  }
  target->second.score += score;
  // Mid-window churn guard: never exceed 2x capacity (the sizing's entry
  // budget reserves exactly this headroom).
  if (tracked_.size() > 2 * sizing_.tracked_capacity) {
    evict_tracked_down_to(sizing_.tracked_capacity);
    admission_threshold_ = recompute_admission_threshold();
  }
}

void SketchAggregator::evict_tracked_down_to(std::size_t capacity) {
  if (tracked_.size() <= capacity) return;
  // Order the non-root entries by ascending (score, key) as they stand
  // now. Every entry the sweep visits is evicted, so only the first
  // to_evict of that order matter. Fold-ups during the sweep can grow a
  // later entry past its snapshot rank; the live score is what gets
  // folded, so mass stays conserved.
  std::vector<std::pair<double, Table::iterator>> order;
  order.reserve(tracked_.size());
  for (auto it = tracked_.begin(); it != tracked_.end(); ++it)
    if (!it->second.is_root) order.emplace_back(it->second.score, it);
  const std::size_t to_evict =
      std::min(tracked_.size() - capacity, order.size());
  std::partial_sort(order.begin(), order.begin() + to_evict, order.end(),
                    [](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first < b.first;
                      return a.second->first < b.second->first;
                    });
  SketchMetrics& m = SketchMetrics::get();
  SideChain cul;
  SideChain vic;
  for (std::size_t i = 0; i < to_evict; ++i) {
    const Table::iterator it = order[i].second;
    const core::CauseKind kind = it->first.kind;
    const int level = it->second.level;
    const double mass = it->second.score;
    walk_side(it->first.culprit, level, cul);
    walk_side(it->first.victim, level, vic);
    untrack(it, combine_pattern_hash(cul.hash[level], kind, vic.hash[level]));
    // Fold into the nearest tracked ancestor; the kind's root is always
    // tracked, so the walk ends there at the latest.
    Table::iterator into = root_[static_cast<std::size_t>(kind)];
    for (int l = level + 1; l < kRoot; ++l) {
      const Table::iterator up = find_level(
          combine_pattern_hash(cul.hash[l], kind, vic.hash[l]), cul, kind,
          vic, l);
      if (up != tracked_.end()) {
        into = up;
        break;
      }
    }
    into->second.score += mass;
    ++hh_evicted_;
    m.hh_evicted.add();
  }
}

double SketchAggregator::recompute_admission_threshold() const {
  if (tracked_.size() < sizing_.tracked_capacity) return 0.0;
  double mn = std::numeric_limits<double>::infinity();
  bool any = false;
  for (const auto& [key, t] : tracked_) {
    if (t.is_root) continue;
    any = true;
    mn = std::min(mn, t.score);
  }
  return any ? mn : 0.0;
}

std::vector<autofocus::Pattern> SketchAggregator::patterns(
    const autofocus::NfCatalog& /*catalog*/,
    const autofocus::AggregateOptions& opts) const {
  double total = 0.0;
  for (const auto& [key, t] : tracked_) total += t.score;
  const double threshold = total * opts.threshold_frac;
  std::vector<autofocus::Pattern> out;
  for (const auto& [key, t] : tracked_) {
    if (t.score <= 0.0 || t.score < threshold) continue;
    out.push_back({key.culprit, key.kind, key.victim, t.score});
  }
  std::sort(out.begin(), out.end(),
            [](const autofocus::Pattern& a, const autofocus::Pattern& b) {
              if (a.score != b.score) return a.score > b.score;
              const PatternKey ka{a.culprit, a.kind, a.victim};
              const PatternKey kb{b.culprit, b.kind, b.victim};
              return ka < kb;
            });
  return out;
}

std::optional<double> SketchAggregator::tracked_score(
    const PatternKey& key) const {
  const Table::iterator it = find(
      pattern_key_hash(key), [&](const PatternKey& k) { return k == key; });
  if (it == tracked_.end()) return std::nullopt;
  return it->second.score;
}

std::size_t SketchAggregator::memory_bytes() const {
  return cm_.memory_bytes() + tracked_.size() * kTrackedEntryBytes +
         index_.size() * sizeof(Slot) +
         side_cache_.size() * sizeof(CachedSide) +
         board_size() * online::kBoardBytesPerCulprit;
}

SketchStats SketchAggregator::stats() const {
  SketchStats s;
  s.budget_bytes = budget_;
  s.width = cm_.width();
  s.depth = cm_.depth();
  s.tracked_capacity = sizing_.tracked_capacity;
  s.tracked_size = tracked_.size();
  s.hh_evicted = hh_evicted_;
  s.total_mass = total_mass_;
  s.est_error_bound = cm_.epsilon() * total_mass_ * kChainLevels;
  return s;
}

}  // namespace microscope::sketch
