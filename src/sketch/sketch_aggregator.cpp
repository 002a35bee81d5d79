#include "sketch/sketch_aggregator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "obs/metrics.hpp"

namespace microscope::sketch {

namespace {

/// Estimated heap cost of one tracked pattern entry / one board entry
/// (key + value + red-black node overhead); used for budget sizing and
/// memory_bytes() accounting.
constexpr std::size_t kTrackedEntryBytes = 160;
constexpr std::size_t kBoardEntryBytes = 96;

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

Ipv4Prefix clamp_prefix(Ipv4Prefix p, std::uint8_t len) {
  if (p.len <= len) return p;
  return {p.addr & prefix_mask(len), len};
}

autofocus::PortRange clamp_band(autofocus::PortRange r) {
  return r.is_exact() ? autofocus::PortRange::band(r.lo) : r;
}

void clamp_side(autofocus::SideKey& s, int level) {
  using autofocus::NfSet;
  using autofocus::PortRange;
  if (level >= 1) {
    s.sport = clamp_band(s.sport);
    s.dport = clamp_band(s.dport);
  }
  if (level >= 2) {
    s.src = clamp_prefix(s.src, 24);
    s.dst = clamp_prefix(s.dst, 24);
  }
  if (level >= 3) {
    s.sport = PortRange::any();
    s.dport = PortRange::any();
  }
  if (level >= 4) {
    s.src = clamp_prefix(s.src, 16);
    s.dst = clamp_prefix(s.dst, 16);
  }
  if (level >= 5 && s.nf.level == NfSet::Level::kInstance)
    s.nf = s.nf.generalize();
  if (level >= 6) {
    s.src = clamp_prefix(s.src, 8);
    s.dst = clamp_prefix(s.dst, 8);
    s.proto.reset();
  }
  if (level >= 7) s = autofocus::SideKey{};
}

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
  clamp_side(k.culprit, level);
  clamp_side(k.victim, level);
  return k;
}

std::vector<PatternKey> generalization_chain(
    const autofocus::RelationRecord& rec,
    const autofocus::NfCatalog& catalog) {
  PatternKey leaf;
  leaf.culprit = leaf_side(rec.culprit_flow, rec.culprit_nf, catalog);
  leaf.kind = rec.kind;
  leaf.victim = leaf_side(rec.victim_flow, rec.victim_nf, catalog);
  std::vector<PatternKey> chain;
  chain.reserve(kChainLevels);
  chain.push_back(leaf);
  // clamp is monotone, so each level clamps the previous one incrementally.
  for (int l = 1; l < kChainLevels; ++l)
    chain.push_back(clamp_to_level(chain.back(), l));
  return chain;
}

SketchSizing SketchSizing::from_budget(std::size_t budget_bytes,
                                       double delta) {
  if (!(delta > 0.0) || delta >= 1.0) delta = 0.01;
  SketchSizing s;
  s.depth = static_cast<std::size_t>(std::clamp(
      std::ceil(std::log(1.0 / delta)), 2.0, 8.0));
  // ~50% counters / ~40% tracked entries (2x churn headroom, entries may
  // transiently reach twice the steady capacity) / ~10% culprit board.
  s.width = std::max<std::size_t>(
      64, (budget_bytes / 2) / (s.depth * sizeof(double)));
  s.tracked_capacity = std::max<std::size_t>(
      16, (budget_bytes * 2 / 5) / (2 * kTrackedEntryBytes));
  s.board_capacity =
      std::max<std::size_t>(16, (budget_bytes / 10) / kBoardEntryBytes);
  return s;
}

SketchAggregator::SketchAggregator(SketchOptions opts,
                                   autofocus::NfCatalog catalog)
    : opts_(opts),
      catalog_(std::move(catalog)),
      sizing_(SketchSizing::from_budget(
          std::max<std::size_t>(opts.memory_budget, 1024), opts.delta)),
      cm_(sizing_.width, sizing_.depth) {
  SketchMetrics::get();
}

void SketchAggregator::ingest(std::span<const core::Diagnosis> diagnoses) {
  // Decay first so the newest window always enters at full weight. This is
  // the sketch-halving step: every counter and score scales by decay.
  cm_.scale(opts_.decay);
  total_mass_ *= opts_.decay;
  for (auto it = tracked_.begin(); it != tracked_.end();) {
    it->second.score *= opts_.decay;
    if (!it->second.is_root && it->second.score < opts_.min_score) {
      it = tracked_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = board_.begin(); it != board_.end();) {
    it->second.score *= opts_.decay;
    if (it->second.score < opts_.min_score) {
      it = board_.erase(it);
    } else {
      ++it;
    }
  }

  for (const core::Diagnosis& d : diagnoses)
    for (const core::CausalRelation& rel : d.relations)
      board_add(rel.culprit, rel.score, rel.culprit_t1);
  // windows_seen counts windows, not relations (mirrors the exact board;
  // entries evicted by the cap forget their history).
  std::set<core::Culprit> seen;
  for (const core::Diagnosis& d : diagnoses)
    for (const core::CausalRelation& rel : d.relations)
      seen.insert(rel.culprit);
  for (const core::Culprit& c : seen) {
    auto it = board_.find(c);
    if (it != board_.end()) it->second.windows_seen += 1;
  }

  for (const autofocus::RelationRecord& rec :
       autofocus::flatten_diagnoses(diagnoses))
    add_record(rec);
  evict_tracked_down_to(sizing_.tracked_capacity);
  admission_threshold_ = recompute_admission_threshold();
  ++windows_;

  SketchMetrics& m = SketchMetrics::get();
  m.budget_bytes.set(static_cast<double>(opts_.memory_budget));
  m.fill_frac.set(static_cast<double>(tracked_.size()) /
                  static_cast<double>(sizing_.tracked_capacity));
  m.est_error_bound.set(cm_.epsilon() * total_mass_ * kChainLevels);
}

void SketchAggregator::board_add(const core::Culprit& culprit, double score,
                                 TimeNs t1) {
  BoardEntry& e = board_[culprit];
  e.score += score;
  e.last_seen = std::max(e.last_seen, t1);
  if (board_.size() <= sizing_.board_capacity) return;
  // Lowest score leaves; ties evict the smallest key. The entry just
  // touched is eligible — a trickle never displaces established mass.
  auto victim = board_.begin();
  for (auto it = std::next(board_.begin()); it != board_.end(); ++it)
    if (it->second.score < victim->second.score) victim = it;
  board_.erase(victim);
  ++board_evicted_;
  board_evicted_metric().add();
}

void SketchAggregator::add_record(const autofocus::RelationRecord& rec) {
  if (rec.score <= 0.0) return;
  total_mass_ += rec.score;
  const std::vector<PatternKey> chain = generalization_chain(rec, catalog_);
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
  for (int m = level + 1; m < kChainLevels; ++m) {
    PatternKey anc = clamp_to_level(key, m);
    auto it = tracked_.find(anc);
    if (it != tracked_.end()) {
      it->second.score += mass;
      return;
    }
  }
  // Unreachable while the per-kind root invariant holds; recreate it
  // rather than drop mass.
  tracked_[root_key(key.kind)] =
      Tracked{mass, kChainLevels - 1, /*is_root=*/true};
}

PatternKey SketchAggregator::root_key(core::CauseKind kind) const {
  PatternKey k;
  k.kind = kind;
  return k;
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

std::vector<online::TopCulprit> SketchAggregator::top() const {
  std::vector<online::TopCulprit> out;
  out.reserve(board_.size());
  for (const auto& [culprit, e] : board_)
    out.push_back({culprit, e.score, e.windows_seen, e.last_seen});
  std::sort(out.begin(), out.end(),
            [](const online::TopCulprit& a, const online::TopCulprit& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.culprit < b.culprit;
            });
  if (out.size() > opts_.top_k) out.resize(opts_.top_k);
  return out;
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
         board_.size() * kBoardEntryBytes;
}

SketchStats SketchAggregator::stats() const {
  SketchStats s;
  s.budget_bytes = opts_.memory_budget;
  s.width = cm_.width();
  s.depth = cm_.depth();
  s.tracked_capacity = sizing_.tracked_capacity;
  s.tracked_size = tracked_.size();
  s.board_capacity = sizing_.board_capacity;
  s.board_size = board_.size();
  s.hh_evicted = hh_evicted_;
  s.board_evicted = board_evicted_;
  s.total_mass = total_mass_;
  s.epsilon = cm_.epsilon();
  s.est_error_bound = cm_.epsilon() * total_mass_ * kChainLevels;
  return s;
}

}  // namespace microscope::sketch
