#include "autofocus/aggregate.hpp"

#include <algorithm>
#include <sstream>
#include <tuple>
#include <unordered_map>

namespace microscope::autofocus {
namespace {

struct PairKey {
  SideKey culprit;
  core::CauseKind kind;

  bool operator==(const PairKey& o) const {
    return culprit == o.culprit && kind == o.kind;
  }
};

struct PairKeyHash {
  std::size_t operator()(const PairKey& k) const noexcept {
    return SideKeyHash{}(k.culprit) * 1099511628211ULL ^
           static_cast<std::size_t>(k.kind);
  }
};

}  // namespace

std::vector<Pattern> aggregate_patterns(std::span<const RelationRecord> records,
                                        const NfCatalog& catalog,
                                        const AggregateOptions& opts) {
  if (records.empty()) return {};
  double total = 0.0;
  for (const RelationRecord& r : records) total += r.score;
  const double th = total * opts.threshold_frac;
  HhhWorkspace ws;

  // ---- Phase 1: per exact culprit, compress the victim dimensions. ----
  // Groups (and, in phase 2, victim aggregates) are kept in order of first
  // appearance, never hash order.
  struct Group {
    PairKey key;
    double mass{0.0};
    std::vector<std::size_t> records;
  };
  std::vector<Group> groups;
  std::unordered_map<PairKey, std::size_t, PairKeyHash> group_of;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const RelationRecord& r = records[i];
    PairKey pk{SideKey::leaf(r.culprit_flow, r.culprit_nf, catalog), r.kind};
    const auto [it, fresh] = group_of.try_emplace(pk, groups.size());
    if (fresh) groups.push_back({pk, 0.0, {}});
    Group& g = groups[it->second];
    g.mass += r.score;
    g.records.push_back(i);
  }

  // Intermediate aggregates: <culprit leaf, kind, victim agg> : mass.
  struct Intermediate {
    SideKey culprit;
    core::CauseKind kind;
    SideKey victim;
    double mass;
  };
  std::vector<Intermediate> inter;
  std::vector<WeightedSide> victims;
  for (const Group& g : groups) {
    victims.clear();
    for (const std::size_t i : g.records) {
      const RelationRecord& r = records[i];
      victims.push_back(
          {SideKey::leaf(r.victim_flow, r.victim_nf, catalog), r.score});
    }
    HhhOptions ho;
    ho.threshold = std::max(g.mass * opts.phase1_frac, 1e-12);
    ho.max_clusters_per_dim = opts.max_clusters_per_dim;
    for (const SideCluster& c : side_hhh(victims, ho, ws)) {
      inter.push_back({g.key.culprit, g.key.kind, c.key, c.residual});
    }
  }

  // ---- Phase 2: per victim aggregate, compress the culprit dimensions. ----
  using Culprits = std::vector<std::pair<core::CauseKind, WeightedSide>>;
  std::vector<std::pair<SideKey, Culprits>> by_victim;
  std::unordered_map<SideKey, std::size_t, SideKeyHash> victim_of;
  for (const Intermediate& i : inter) {
    const auto [it, fresh] = victim_of.try_emplace(i.victim, by_victim.size());
    if (fresh) by_victim.push_back({i.victim, {}});
    by_victim[it->second].second.push_back({i.kind, {i.culprit, i.mass}});
  }

  std::vector<Pattern> out;
  for (auto& [victim, list] : by_victim) {
    // Kind is part of culprit identity: aggregate per kind.
    for (const core::CauseKind kind :
         {core::CauseKind::kSourceTraffic, core::CauseKind::kLocalProcessing}) {
      std::vector<WeightedSide> culprits;
      for (auto& [k, ws] : list)
        if (k == kind) culprits.push_back(ws);
      if (culprits.empty()) continue;
      HhhOptions ho;
      ho.threshold = th;
      ho.max_clusters_per_dim = opts.max_clusters_per_dim;
      for (const SideCluster& c : side_hhh(culprits, ho, ws)) {
        out.push_back({c.key, kind, victim, c.residual});
      }
    }
  }
  // Score ties fall back to (culprit, kind, victim), the order
  // SketchAggregator::patterns uses, so no tie depends on input order.
  std::sort(out.begin(), out.end(), [](const Pattern& a, const Pattern& b) {
    if (a.score != b.score) return a.score > b.score;
    return std::tie(a.culprit, a.kind, a.victim) <
           std::tie(b.culprit, b.kind, b.victim);
  });
  return out;
}

std::vector<RelationRecord> flatten_diagnoses(
    std::span<const core::Diagnosis> diagnoses) {
  std::vector<RelationRecord> out;
  for (const core::Diagnosis& d : diagnoses) {
    for (const core::CausalRelation& rel : d.relations) {
      if (rel.flows.empty()) {
        RelationRecord r;
        r.culprit_flow = {};
        r.culprit_nf = rel.culprit.node;
        r.kind = rel.culprit.kind;
        r.victim_flow = d.victim.flow;
        r.victim_nf = d.victim.node;
        r.score = rel.score;
        out.push_back(r);
        continue;
      }
      for (const core::FlowWeight& fw : rel.flows) {
        RelationRecord r;
        r.culprit_flow = fw.flow;
        r.culprit_nf = rel.culprit.node;
        r.kind = rel.culprit.kind;
        r.victim_flow = d.victim.flow;
        r.victim_nf = d.victim.node;
        r.score = fw.weight;
        out.push_back(r);
      }
    }
  }
  return out;
}

std::string format_pattern(const Pattern& p, const NfCatalog& catalog) {
  std::ostringstream os;
  os << format_side(p.culprit, catalog) << " ["
     << core::to_string(p.kind) << "] => " << format_side(p.victim, catalog)
     << "  " << p.score;
  return os.str();
}

}  // namespace microscope::autofocus
