#include "sketch/sketch_aggregator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

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

/// SideKey::leaf that tolerates nodes missing from the catalog (a replay
/// against a partial catalog): falls back to type 0 instead of throwing
/// out of type_of.at().
autofocus::SideKey leaf_side(const FiveTuple& ft, NodeId node,
                             const autofocus::NfCatalog& cat) {
  using autofocus::NfSet;
  if (node < cat.type_of.size())
    return autofocus::SideKey::leaf(ft, node, cat);
  autofocus::SideKey k;
  k.src = Ipv4Prefix::host(ft.src_ip);
  k.dst = Ipv4Prefix::host(ft.dst_ip);
  k.sport = autofocus::PortRange::exact(ft.src_port);
  k.dport = autofocus::PortRange::exact(ft.dst_port);
  k.proto = ft.proto;
  k.nf = NfSet{NfSet::Level::kInstance, node, 0};
  return k;
}

}  // namespace

std::uint64_t pattern_key_hash(const PatternKey& k) noexcept {
  const autofocus::SideKeyHash sh;
  std::uint64_t h = sh(k.culprit);
  h ^= static_cast<std::uint64_t>(k.kind) + 0x9e3779b97f4a7c15ULL + (h << 6) +
       (h >> 2);
  h ^= sh(k.victim) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
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

std::array<PatternKey, kChainLevels> chain_from(PatternKey k, int level) {
  using autofocus::kSideDims;
  // Every dimension of k sits at rung `have` of its ladder, the one its
  // level's table row names, so rung i of the ladder read from k is rung
  // have + i: read each ladder once and give every higher level rung
  // want - have (the keys clamp_to_level computes level by level).
  const int(&have)[kSideDims] = kChainDimLevel[level];
  std::uint64_t cul[kSideDims][autofocus::kMaxDimLevels];
  std::uint64_t vic[kSideDims][autofocus::kMaxDimLevels];
  for (int d = 0; d < kSideDims; ++d) {
    autofocus::dim_ladder(k.culprit, d, cul[d]);
    autofocus::dim_ladder(k.victim, d, vic[d]);
  }
  std::array<PatternKey, kChainLevels> chain;
  chain[level] = k;
  for (int l = level + 1; l < kChainLevels; ++l) {
    for (int d = 0; d < kSideDims; ++d) {
      const int want = kChainDimLevel[l][d];
      if (want == kChainDimLevel[l - 1][d]) continue;
      autofocus::set_dim_code(k.culprit, d, cul[d][want - have[d]]);
      autofocus::set_dim_code(k.victim, d, vic[d][want - have[d]]);
    }
    chain[l] = k;
  }
  return chain;
}

std::array<PatternKey, kChainLevels> generalization_chain(
    const autofocus::RelationRecord& rec,
    const autofocus::NfCatalog& catalog) {
  PatternKey k;
  k.culprit = leaf_side(rec.culprit_flow, rec.culprit_nf, catalog);
  k.kind = rec.kind;
  k.victim = leaf_side(rec.victim_flow, rec.victim_nf, catalog);
  return chain_from(k, 0);
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
      cm_(sizing_.width, sizing_.depth) {
  SketchMetrics::get();
}

void SketchAggregator::ingest_patterns(
    std::span<const core::Diagnosis> diagnoses) {
  // Decay first so the newest window always enters at full weight. This is
  // the sketch-halving step: every counter and score scales by decay.
  const double decay = options().decay;
  cm_.scale(decay);
  total_mass_ *= decay;
  for (auto it = tracked_.begin(); it != tracked_.end();) {
    it->second.score *= decay;
    if (!it->second.is_root && it->second.score < options().min_score) {
      it = tracked_.erase(it);
    } else {
      ++it;
    }
  }

  for (const autofocus::RelationRecord& rec :
       autofocus::flatten_diagnoses(diagnoses))
    add_record(rec);
  evict_tracked_down_to(sizing_.tracked_capacity);
  admission_threshold_ = recompute_admission_threshold();

  SketchMetrics& m = SketchMetrics::get();
  m.budget_bytes.set(static_cast<double>(budget_));
  m.fill_frac.set(static_cast<double>(tracked_.size()) /
                  static_cast<double>(sizing_.tracked_capacity));
  m.est_error_bound.set(cm_.epsilon() * total_mass_ * kChainLevels);
}

void SketchAggregator::add_record(const autofocus::RelationRecord& rec) {
  if (rec.score <= 0.0) return;
  total_mass_ += rec.score;
  const std::array<PatternKey, kChainLevels> chain =
      generalization_chain(rec, catalog_);
  double est[kChainLevels];
  for (int l = 0; l < kChainLevels; ++l)
    est[l] = cm_.add(pattern_key_hash(chain[l]), rec.score);
  // The per-kind root is always resident: fold-ups terminate there and its
  // score is the live "unexplained by any specific pattern" residual.
  tracked_.try_emplace(chain.back(),
                       Tracked{0.0, kChainLevels - 1, /*is_root=*/true});
  int first_tracked = kChainLevels - 1;
  for (int l = 0; l < kChainLevels; ++l) {
    if (tracked_.count(chain[l])) {
      first_tracked = l;
      break;
    }
  }
  // Admit the most specific untracked ancestor whose sketch estimate
  // clears the bar; otherwise the mass lands on the nearest tracked
  // ancestor (residual semantics).
  int target = first_tracked;
  for (int l = 0; l < first_tracked; ++l) {
    if (est[l] >= admission_threshold_ && est[l] > 0.0) {
      tracked_.emplace(chain[l], Tracked{0.0, l, /*is_root=*/false});
      target = l;
      break;
    }
  }
  tracked_[chain[target]].score += rec.score;
  // Mid-window churn guard: never exceed 2x capacity (the sizing's entry
  // budget reserves exactly this headroom).
  if (tracked_.size() > 2 * sizing_.tracked_capacity) {
    evict_tracked_down_to(sizing_.tracked_capacity);
    admission_threshold_ = recompute_admission_threshold();
  }
}

void SketchAggregator::evict_tracked_down_to(std::size_t capacity) {
  if (tracked_.size() <= capacity) return;
  // Snapshot the non-root entries in ascending (score, key) order. Fold-ups
  // during the sweep can grow a not-yet-visited entry past its snapshot
  // rank; the live score is what gets folded, so mass stays conserved.
  std::vector<std::pair<double, const PatternKey*>> order;
  order.reserve(tracked_.size());
  for (const auto& [key, t] : tracked_)
    if (!t.is_root) order.emplace_back(t.score, &key);
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return *a.second < *b.second;
            });
  std::size_t to_evict = tracked_.size() - capacity;
  SketchMetrics& m = SketchMetrics::get();
  for (const auto& [snap_score, keyp] : order) {
    if (to_evict == 0) break;
    auto it = tracked_.find(*keyp);
    if (it == tracked_.end() || it->second.is_root) continue;
    const PatternKey key = it->first;
    const int level = it->second.level;
    const double mass = it->second.score;
    tracked_.erase(it);
    fold_into_ancestor(key, level, mass);
    ++hh_evicted_;
    m.hh_evicted.add();
    --to_evict;
  }
}

void SketchAggregator::fold_into_ancestor(const PatternKey& key, int level,
                                          double mass) {
  const std::array<PatternKey, kChainLevels> chain = chain_from(key, level);
  for (int m = level + 1; m < kChainLevels; ++m) {
    auto it = tracked_.find(chain[m]);
    if (it != tracked_.end()) {
      it->second.score += mass;
      return;
    }
  }
  // Unreachable while the per-kind root invariant holds; recreate it
  // rather than drop mass.
  tracked_[PatternKey{{}, key.kind, {}}] =
      Tracked{mass, kChainLevels - 1, /*is_root=*/true};
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

std::size_t SketchAggregator::memory_bytes() const {
  return cm_.memory_bytes() + tracked_.size() * kTrackedEntryBytes +
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
