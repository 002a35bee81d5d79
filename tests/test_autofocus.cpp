// Unit + property tests for the AutoFocus-style pattern aggregation:
// generalization hierarchies, the multi-dimensional HHH, and the two-phase
// culprit/victim aggregation (paper §4.4).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <set>

#include "autofocus/aggregate.hpp"
#include "autofocus/hhh.hpp"
#include "autofocus/hierarchy.hpp"
#include "common/rng.hpp"

namespace microscope::autofocus {
namespace {

NfCatalog small_catalog() {
  NfCatalog cat;
  cat.node_names = {"sink", "src", "fw1", "fw2", "vpn1"};
  cat.type_names = {"sink", "source", "fw", "vpn"};
  cat.type_of = {0, 1, 2, 2, 3};
  return cat;
}

FiveTuple ft(std::uint32_t src_last, std::uint16_t sport,
             std::uint16_t dport) {
  return {make_ipv4(10, 1, 1, src_last), make_ipv4(20, 2, 2, 2), sport, dport,
          6};
}

TEST(Hierarchy, PortRangeLadder) {
  const auto exact = PortRange::exact(8080);
  EXPECT_TRUE(exact.is_exact());
  const auto band = PortRange::band(8080);
  EXPECT_EQ(band.lo, 1024);
  EXPECT_EQ(band.hi, 65535);
  EXPECT_EQ(PortRange::band(80).hi, 1023);
  EXPECT_TRUE(PortRange::any().covers(band));
  EXPECT_TRUE(band.covers(exact));
  EXPECT_FALSE(exact.covers(band));
  EXPECT_EQ(format_port_range(exact), "8080");
  EXPECT_EQ(format_port_range(band), "1024-65535");
  EXPECT_EQ(format_port_range(PortRange::any()), "*");
}

TEST(Hierarchy, NfSetLadder) {
  const auto cat = small_catalog();
  NfSet inst = NfSet::of_instance(2, cat);  // fw1
  EXPECT_EQ(inst.level, NfSet::Level::kInstance);
  NfSet type = inst.generalize();
  EXPECT_EQ(type.level, NfSet::Level::kType);
  NfSet any = type.generalize();
  EXPECT_EQ(any.level, NfSet::Level::kAny);

  NfSet other = NfSet::of_instance(3, cat);  // fw2, same type
  EXPECT_TRUE(type.covers(inst));
  EXPECT_TRUE(type.covers(other));
  EXPECT_FALSE(inst.covers(other));
  EXPECT_TRUE(any.covers(inst));
  const NfSet vpn = NfSet::of_instance(4, cat);
  EXPECT_FALSE(type.covers(vpn));

  EXPECT_EQ(format_nf_set(inst, cat), "fw1");
  EXPECT_EQ(format_nf_set(type, cat), "fw*");
  EXPECT_EQ(format_nf_set(any, cat), "*");
}

TEST(Hierarchy, SideKeyLeafAndCovers) {
  const auto cat = small_catalog();
  SideKey leaf = SideKey::leaf(ft(5, 2000, 6000), 2, cat);
  EXPECT_EQ(leaf.generality(), 0);
  EXPECT_TRUE(leaf.covers(leaf));

  SideKey agg = leaf;
  agg.src = {make_ipv4(10, 1, 1, 0), 24};
  agg.sport = PortRange::band(2000);
  agg.nf = agg.nf.generalize();
  EXPECT_TRUE(agg.covers(leaf));
  EXPECT_FALSE(leaf.covers(agg));
  EXPECT_GT(agg.generality(), 0);

  // Root covers everything.
  SideKey root;
  EXPECT_TRUE(root.covers(leaf));
  EXPECT_TRUE(root.covers(agg));
  EXPECT_EQ(root.generality(), 4 + 4 + 2 + 2 + 1 + 2);
}

TEST(Hierarchy, GeneralizeDimLadders) {
  const auto cat = small_catalog();
  const SideKey leaf = SideKey::leaf(ft(5, 2000, 6000), 2, cat);
  EXPECT_EQ(generalize_dim(leaf, 0).size(), 5u);  // /32,/24,/16,/8,/0
  EXPECT_EQ(generalize_dim(leaf, 2).size(), 3u);  // exact, band, any
  EXPECT_EQ(generalize_dim(leaf, 4).size(), 2u);  // proto, any
  EXPECT_EQ(generalize_dim(leaf, 5).size(), 3u);  // inst, type, any
  // Each step strictly generalizes (covers the previous).
  for (int d = 0; d < kSideDims; ++d) {
    const auto ladder = generalize_dim(leaf, d);
    for (std::size_t i = 1; i < ladder.size(); ++i) {
      EXPECT_TRUE(ladder[i].covers(ladder[i - 1]))
          << "dim " << d << " step " << i;
    }
  }
}

TEST(Hhh, FindsPlantedHeavyAggregate) {
  const auto cat = small_catalog();
  std::vector<WeightedSide> leaves;
  Rng rng(5);
  // 60 units spread over one /24 with random hosts; 40 units of noise.
  for (int i = 0; i < 60; ++i) {
    leaves.push_back(
        {SideKey::leaf(ft(static_cast<std::uint32_t>(rng.uniform_u64(200)),
                          static_cast<std::uint16_t>(3000 + i), 443),
                       2, cat),
         1.0});
  }
  for (int i = 0; i < 40; ++i) {
    FiveTuple noise = ft(1, 1, 1);
    noise.src_ip = static_cast<std::uint32_t>(rng.next_u64());
    noise.dst_ip = static_cast<std::uint32_t>(rng.next_u64());
    noise.src_port = static_cast<std::uint16_t>(rng.next_u64());
    leaves.push_back({SideKey::leaf(noise, 3, cat), 1.0});
  }
  HhhOptions opts;
  opts.threshold = 20.0;
  const auto clusters = side_hhh(leaves, opts);
  ASSERT_FALSE(clusters.empty());
  // Some reported cluster must capture the 10.1.1.0/24 mass at fw1.
  bool found = false;
  for (const SideCluster& c : clusters) {
    if (c.key.src.covers({make_ipv4(10, 1, 1, 0), 24}) &&
        c.key.src.len >= 24 && c.mass >= 55.0) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Hhh, ResidualsRespectThreshold) {
  const auto cat = small_catalog();
  std::vector<WeightedSide> leaves;
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    FiveTuple f = ft(static_cast<std::uint32_t>(rng.uniform_u64(250)),
                     static_cast<std::uint16_t>(rng.uniform_u64(60000)),
                     static_cast<std::uint16_t>(rng.uniform_u64(60000)));
    leaves.push_back({SideKey::leaf(f, 2 + (i % 2), cat),
                      rng.uniform(0.1, 3.0)});
  }
  HhhOptions opts;
  opts.threshold = 30.0;
  const auto clusters = side_hhh(leaves, opts);
  double total_mass = 0;
  for (const auto& l : leaves) total_mass += l.mass;
  for (const SideCluster& c : clusters) {
    EXPECT_GE(c.residual, opts.threshold);
    EXPECT_LE(c.mass, total_mass + 1e-9);
    EXPECT_GE(c.mass, c.residual - 1e-9);
  }
  // Residual sum can never exceed the total input mass.
  double residuals = 0;
  for (const SideCluster& c : clusters) residuals += c.residual;
  EXPECT_LE(residuals, total_mass + 1e-6);
}

TEST(Hhh, SpecificBeatsGeneralInReportOrder) {
  const auto cat = small_catalog();
  std::vector<WeightedSide> leaves;
  for (int i = 0; i < 100; ++i)
    leaves.push_back({SideKey::leaf(ft(7, 2000, 6000), 2, cat), 1.0});
  HhhOptions opts;
  opts.threshold = 50.0;
  const auto clusters = side_hhh(leaves, opts);
  ASSERT_FALSE(clusters.empty());
  // The exact leaf itself is significant; once reported, every ancestor's
  // residual is ~0, so only the leaf appears.
  EXPECT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].key.generality(), 0);
  EXPECT_DOUBLE_EQ(clusters[0].mass, 100.0);
}

TEST(Aggregate, RecoversBugTriggerPattern) {
  // Fig. 14 setup in miniature: bug-trigger flows (100.0.0.1 -> 32.0.0.1,
  // sports 2000-2008, dports 6000-6008) are culprits at fw2; victims are
  // random flows at fw2. Noise relations elsewhere.
  const auto cat = small_catalog();
  std::vector<RelationRecord> records;
  Rng rng(3);
  for (int i = 0; i < 400; ++i) {
    RelationRecord r;
    r.culprit_flow = {make_ipv4(100, 0, 0, 1), make_ipv4(32, 0, 0, 1),
                      static_cast<std::uint16_t>(2000 + i % 9),
                      static_cast<std::uint16_t>(6000 + i % 9), 6};
    r.culprit_nf = 3;  // fw2
    r.kind = core::CauseKind::kLocalProcessing;
    r.victim_flow = ft(static_cast<std::uint32_t>(rng.uniform_u64(250)),
                       static_cast<std::uint16_t>(rng.uniform_u64(60000)),
                       443);
    r.victim_nf = 3;
    r.score = 1.0;
    records.push_back(r);
  }
  for (int i = 0; i < 100; ++i) {  // background noise
    RelationRecord r;
    r.culprit_flow = ft(static_cast<std::uint32_t>(rng.uniform_u64(250)),
                        static_cast<std::uint16_t>(rng.uniform_u64(60000)),
                        static_cast<std::uint16_t>(rng.uniform_u64(60000)));
    r.culprit_nf = 1;
    r.kind = core::CauseKind::kSourceTraffic;
    r.victim_flow = ft(static_cast<std::uint32_t>(rng.uniform_u64(250)), 1, 2);
    r.victim_nf = 2;
    r.score = 0.2;
    records.push_back(r);
  }

  AggregateOptions opts;
  opts.threshold_frac = 0.05;
  const auto patterns = aggregate_patterns(records, cat, opts);
  ASSERT_FALSE(patterns.empty());

  // The top pattern must be a bug-flow culprit at fw2 (the paper's Fig. 14
  // observation: each port pair appears as its own pattern because the
  // static port hierarchy cannot merge 2000-2008).
  const Pattern& top = patterns.front();
  EXPECT_EQ(top.kind, core::CauseKind::kLocalProcessing);
  EXPECT_TRUE(top.culprit.src.covers(Ipv4Prefix::host(make_ipv4(100, 0, 0, 1))));
  EXPECT_GE(top.culprit.src.len, 8);  // not washed out to "*"

  // Every one of the nine (sport, dport) bug pairs is covered by some
  // significant pattern.
  for (std::uint16_t off = 0; off < 9; ++off) {
    const SideKey probe = SideKey::leaf(
        {make_ipv4(100, 0, 0, 1), make_ipv4(32, 0, 0, 1),
         static_cast<std::uint16_t>(2000 + off),
         static_cast<std::uint16_t>(6000 + off), 6},
        3, cat);
    bool covered = false;
    for (const Pattern& p : patterns)
      if (p.kind == core::CauseKind::kLocalProcessing &&
          p.culprit.covers(probe))
        covered = true;
    EXPECT_TRUE(covered) << "bug pair +" << off << " not covered";
  }
  // Scores are ordered.
  for (std::size_t i = 1; i < patterns.size(); ++i)
    EXPECT_LE(patterns[i].score, patterns[i - 1].score);
}

TEST(Aggregate, FlattenDiagnoses) {
  core::Diagnosis d;
  d.victim.flow = ft(1, 2, 3);
  d.victim.node = 4;
  core::CausalRelation rel;
  rel.culprit = {2, core::CauseKind::kLocalProcessing};
  rel.score = 10.0;
  rel.flows.push_back({ft(9, 9, 9), 6.0});
  rel.flows.push_back({ft(8, 8, 8), 4.0});
  d.relations.push_back(rel);
  core::CausalRelation no_flows;
  no_flows.culprit = {1, core::CauseKind::kSourceTraffic};
  no_flows.score = 2.0;
  d.relations.push_back(no_flows);

  const auto records =
      flatten_diagnoses(std::span<const core::Diagnosis>(&d, 1));
  ASSERT_EQ(records.size(), 3u);
  EXPECT_DOUBLE_EQ(records[0].score, 6.0);
  EXPECT_DOUBLE_EQ(records[1].score, 4.0);
  EXPECT_DOUBLE_EQ(records[2].score, 2.0);
  EXPECT_EQ(records[0].victim_nf, 4u);
}

TEST(Aggregate, FormatPatternReadable) {
  const auto cat = small_catalog();
  Pattern p;
  p.culprit = SideKey::leaf(
      {make_ipv4(100, 0, 0, 1), make_ipv4(32, 0, 0, 1), 2004, 6004, 6}, 3,
      cat);
  p.victim = SideKey::leaf(ft(1, 1024, 443), 4, cat);
  p.victim.sport = PortRange::band(1024);
  p.victim.src = {make_ipv4(10, 1, 1, 0), 24};
  p.kind = core::CauseKind::kLocalProcessing;
  p.score = 12.5;
  const std::string s = format_pattern(p, cat);
  EXPECT_NE(s.find("100.0.0.1/32"), std::string::npos);
  EXPECT_NE(s.find("fw2"), std::string::npos);
  EXPECT_NE(s.find("=>"), std::string::npos);
  EXPECT_NE(s.find("10.1.1.0/24"), std::string::npos);
  EXPECT_NE(s.find("1024-65535"), std::string::npos);
}

/// Property: HHH mass accounting — every reported cluster's mass equals
/// the true mass of leaves it covers.
class HhhProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HhhProperty, ClusterMassMatchesCoveredLeaves) {
  const auto cat = small_catalog();
  Rng rng(GetParam());
  std::vector<WeightedSide> leaves;
  for (int i = 0; i < 300; ++i) {
    FiveTuple f = ft(static_cast<std::uint32_t>(rng.uniform_u64(16)),
                     static_cast<std::uint16_t>(rng.uniform_u64(4)),
                     static_cast<std::uint16_t>(80 + rng.uniform_u64(2)));
    leaves.push_back(
        {SideKey::leaf(f, 2 + rng.uniform_u64(3), cat), rng.uniform(0.5, 2.0)});
  }
  HhhOptions opts;
  opts.threshold = 25.0;
  for (const SideCluster& c : side_hhh(leaves, opts)) {
    double covered = 0;
    for (const WeightedSide& l : leaves)
      if (c.key.covers(l.key)) covered += l.mass;
    EXPECT_NEAR(c.mass, covered, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HhhProperty, ::testing::Values(1, 7, 42, 99));

TEST(Hierarchy, LadderCodesMatchGeneralizeDim) {
  const auto cat = small_catalog();
  SideKey agg = SideKey::leaf(ft(5, 80, 6000), 4, cat);
  agg.dst = {make_ipv4(20, 2, 0, 0), 16};
  agg.sport = PortRange::band(80);
  agg.proto.reset();
  agg.nf = agg.nf.generalize();
  for (const SideKey& k : {SideKey::leaf(ft(5, 80, 6000), 4, cat), agg,
                           SideKey{}}) {
    int levels = 0;
    for (int d = 0; d < kSideDims; ++d) {
      std::uint64_t codes[kMaxDimLevels];
      const int n = dim_ladder(k, d, codes);
      const auto ladder = generalize_dim(k, d);
      ASSERT_EQ(static_cast<std::size_t>(n), ladder.size());
      EXPECT_EQ(ladder.front(), k);
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(codes[i], dim_code(ladder[i], d));
        EXPECT_EQ(dim_level(ladder[i], d), dim_level(k, d) + i);
      }
      EXPECT_EQ(ladder.back().generality() - k.generality(),
                dim_level(SideKey{}, d) - dim_level(k, d));
      levels += dim_level(k, d);
    }
    EXPECT_EQ(levels, k.generality());
  }
}

struct ReferenceStats {
  bool cap_cut_tie{false};  // the cap fell between two equal masses
  std::size_t max_clusters{0};
};

/// Dimension `dim` of `from` copied into `into`.
void copy_dim(SideKey& into, const SideKey& from, int dim) {
  switch (dim) {
    case 0: into.src = from.src; break;
    case 1: into.dst = from.dst; break;
    case 2: into.sport = from.sport; break;
    case 3: into.dport = from.dport; break;
    case 4: into.proto = from.proto; break;
    case 5: into.nf = from.nf; break;
  }
}

/// Reference for side_hhh: enumerate every combination as a full SideKey,
/// sort the kept ones by (generality, descending mass, key) and subtract
/// the residual of every reported cluster a combination covers. Leaves and
/// 1-D values are summed in first-appearance order and the cap breaks mass
/// ties by dimension code, as side_hhh does.
std::vector<SideCluster> reference_side_hhh(
    std::span<const WeightedSide> leaves, const HhhOptions& opts,
    ReferenceStats& stats) {
  std::vector<WeightedSide> uniq;
  std::map<SideKey, std::size_t> at;
  for (const WeightedSide& w : leaves) {
    const auto [it, fresh] = at.try_emplace(w.key, uniq.size());
    if (fresh) uniq.push_back({w.key, 0.0});
    uniq[it->second].mass += w.mass;
  }

  std::set<std::uint64_t> clusters[kSideDims];
  for (int d = 0; d < kSideDims; ++d) {
    std::vector<std::pair<std::uint64_t, double>> mass;
    std::map<std::uint64_t, std::size_t> code_at;
    for (const WeightedSide& u : uniq) {
      for (const SideKey& anc : generalize_dim(u.key, d)) {
        const std::uint64_t code = dim_code(anc, d);
        const auto [it, fresh] = code_at.try_emplace(code, mass.size());
        if (fresh) mass.push_back({code, 0.0});
        mass[it->second].second += u.mass;
      }
    }
    std::vector<std::pair<std::uint64_t, double>> heavy;
    for (const auto& cm : mass)
      if (cm.second >= opts.threshold) heavy.push_back(cm);
    std::sort(heavy.begin(), heavy.end(), [](const auto& a, const auto& b) {
      return a.second != b.second ? a.second > b.second : a.first < b.first;
    });
    if (heavy.size() > opts.max_clusters_per_dim) {
      const std::size_t cap = opts.max_clusters_per_dim;
      if (cap > 0 && heavy[cap - 1].second == heavy[cap].second)
        stats.cap_cut_tie = true;
      heavy.resize(cap);
    }
    for (const auto& cm : heavy) clusters[d].insert(cm.first);
    clusters[d].insert(dim_code(SideKey{}, d));
    stats.max_clusters = std::max(stats.max_clusters, clusters[d].size());
  }

  std::map<SideKey, double> combo_mass;
  for (const WeightedSide& u : uniq) {
    std::vector<SideKey> combos{u.key};
    for (int d = 0; d < kSideDims; ++d) {
      std::vector<SideKey> ladder;
      for (const SideKey& anc : generalize_dim(u.key, d))
        if (clusters[d].contains(dim_code(anc, d))) ladder.push_back(anc);
      std::vector<SideKey> next;
      for (const SideKey& c : combos) {
        for (const SideKey& anc : ladder) {
          SideKey k = c;
          copy_dim(k, anc, d);
          next.push_back(k);
        }
      }
      combos.swap(next);
    }
    for (const SideKey& c : combos) combo_mass[c] += u.mass;
  }

  std::vector<std::pair<int, SideCluster>> kept;  // (generality, cluster)
  for (const auto& [key, m] : combo_mass)
    if (m >= opts.threshold) kept.push_back({key.generality(), {key, m, m}});
  std::sort(kept.begin(), kept.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    if (a.second.mass != b.second.mass) return a.second.mass > b.second.mass;
    return a.second.key < b.second.key;
  });
  std::vector<SideCluster> reported;
  for (auto& [generality, c] : kept) {
    double covered = 0.0;
    for (const SideCluster& r : reported)
      if (!(r.key == c.key) && c.key.covers(r.key)) covered += r.residual;
    c.residual = c.mass - covered;
    if (c.residual >= opts.threshold) reported.push_back(c);
  }
  return reported;
}

/// Seeded side_hhh input of one of six shapes (seed % 6): duplicate
/// leaves; one distinct leaf; keys already generalized along some
/// dimensions; threshold 0; a cap of 2-4 binding on equal masses; a cap
/// above 64 with more than 64 heavy values in a dimension.
struct OracleCase {
  std::vector<WeightedSide> leaves;
  HhhOptions opts;
};

OracleCase oracle_case(std::uint64_t seed) {
  NfCatalog cat;
  cat.node_names = {"a1", "a2", "a3", "b1", "b2", "c1"};
  cat.type_names = {"a", "b", "c"};
  cat.type_of = {0, 0, 0, 1, 1, 2};
  Rng rng(seed * 7919 + 1);
  const int shape = static_cast<int>(seed % 6);
  const auto pick = [&](std::uint64_t n) {
    return static_cast<std::uint32_t>(rng.uniform_u64(n));
  };
  // Small value pools make leaves collide in every dimension.
  const auto random_leaf = [&](std::uint32_t hosts, std::uint16_t ports) {
    const FiveTuple f{make_ipv4(10, pick(2), pick(3), pick(hosts)),
                      make_ipv4(20 + pick(2), 0, pick(2), pick(hosts)),
                      static_cast<std::uint16_t>(1000 * pick(2) + pick(ports)),
                      static_cast<std::uint16_t>(pick(ports)),
                      static_cast<std::uint8_t>(pick(2) ? 6 : 17)};
    return SideKey::leaf(f, static_cast<NodeId>(pick(6)), cat);
  };
  OracleCase c;
  std::size_t distinct = 4 + pick(20);
  if (shape == 1) distinct = 1;
  if (shape == 3) distinct = 1 + pick(3);
  if (shape == 5) distinct = 66 + pick(4);
  std::vector<SideKey> keys;
  for (std::size_t i = 0; i < distinct; ++i) {
    if (shape == 5) {  // distinct source ports: > 64 heavy values
      FiveTuple f{make_ipv4(10, 0, 0, pick(4)), make_ipv4(20, 0, 0, 1),
                  static_cast<std::uint16_t>(2000 + i), 443, 6};
      keys.push_back(SideKey::leaf(f, static_cast<NodeId>(pick(6)), cat));
      continue;
    }
    SideKey k = random_leaf(shape == 4 ? 3 : 6, shape == 4 ? 3 : 5);
    if (shape == 2) {  // generalize some dimensions to a random rung
      for (int d = 0; d < kSideDims; ++d) {
        if (!rng.bernoulli(0.4)) continue;
        const auto ladder = generalize_dim(k, d);
        k = ladder[rng.uniform_u64(ladder.size())];
      }
    }
    keys.push_back(k);
  }
  double total = 0.0;
  for (const SideKey& k : keys) {
    const int copies = shape <= 1 ? 1 + static_cast<int>(pick(3)) : 1;
    for (int j = 0; j < copies; ++j) {
      // Shapes 4 and 5 use equal dyadic masses so 1-D values tie.
      const double m = shape >= 4 ? 1.0 : rng.uniform(0.1, 3.0);
      c.leaves.push_back({k, m});
      total += m;
    }
  }
  if (shape != 1) {  // duplicates interleaved with other keys
    for (std::size_t i = c.leaves.size(); i > 1; --i)
      std::swap(c.leaves[i - 1], c.leaves[rng.uniform_u64(i)]);
  }
  c.opts.threshold = total * rng.uniform(0.02, 0.4);
  c.opts.max_clusters_per_dim = 32;
  switch (shape) {
    case 1:
      c.opts.threshold = total * rng.uniform(0.5, 1.5);
      c.opts.max_clusters_per_dim = rng.bernoulli(0.5) ? 2 + pick(3) : 32;
      break;
    case 3:
      c.opts.threshold = 0.0;
      break;
    case 4:
      c.opts.threshold = 1.0 + pick(3);
      c.opts.max_clusters_per_dim = 2 + pick(3);
      break;
    case 5:
      c.opts.threshold = 1.0;
      c.opts.max_clusters_per_dim = 65 + pick(64);
      break;
  }
  return c;
}

TEST(Hhh, MatchesReferenceOnSeededInputs) {
  int cap_ties = 0, wide = 0, single = 0;
  HhhWorkspace ws;  // one workspace across calls, as aggregate_patterns does
  for (std::uint64_t seed = 0; seed < 240; ++seed) {
    const OracleCase c = oracle_case(seed);
    ReferenceStats stats;
    const auto want = reference_side_hhh(c.leaves, c.opts, stats);
    const auto got = side_hhh(c.leaves, c.opts, ws);
    cap_ties += stats.cap_cut_tie;
    wide += stats.max_clusters > 64 && c.opts.max_clusters_per_dim > 64;
    single += seed % 6 == 1 && !want.empty();
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].key, want[i].key) << "seed " << seed << " cluster " << i;
      const double tol = 1e-9 * std::abs(want[i].mass);
      EXPECT_NEAR(got[i].mass, want[i].mass, tol) << "seed " << seed;
      EXPECT_NEAR(got[i].residual, want[i].residual, tol) << "seed " << seed;
    }
  }
  // The shapes that pin tie-breaking and key width really occurred.
  EXPECT_GE(cap_ties, 20);
  EXPECT_GE(wide, 20);
  EXPECT_GE(single, 10);
}

TEST(Hhh, WideClusterIdsReportEveryLeaf) {
  // 700 leaves that differ at every level of every dimension below the /8
  // and the root, down to protocol, NF instance and NF type. At a threshold
  // of one leaf's mass every ladder value is a cluster, too many for the
  // packed per-dimension ids to fit 63 bits. Each leaf is reported at its
  // own mass; every other combination's residual is exactly 0.
  constexpr std::uint32_t kLeaves = 700;
  NfCatalog cat;
  std::vector<WeightedSide> leaves;
  for (std::uint32_t i = 0; i < kLeaves; ++i) {
    cat.node_names.push_back("nf" + std::to_string(i));
    cat.type_names.push_back("t" + std::to_string(i));
    cat.type_of.push_back(static_cast<std::uint16_t>(i));
  }
  for (std::uint32_t i = 0; i < kLeaves; ++i) {
    const FiveTuple f{make_ipv4(1 + i % 251, i % 241, i % 239, 1),
                      make_ipv4(1 + i % 233, i % 229, i % 227, 2),
                      static_cast<std::uint16_t>(1024 + i),
                      static_cast<std::uint16_t>(i),
                      static_cast<std::uint8_t>(i % 256)};
    leaves.push_back({SideKey::leaf(f, i, cat), 1.0});
  }
  int bits = 0;
  for (int d = 0; d < kSideDims; ++d) {
    std::set<std::uint64_t> values;
    for (const WeightedSide& l : leaves)
      for (const SideKey& anc : generalize_dim(l.key, d))
        values.insert(dim_code(anc, d));
    bits += std::bit_width(values.size() - 1);
  }
  ASSERT_GE(bits, 64);

  HhhOptions opts;
  opts.threshold = 1.0;
  opts.max_clusters_per_dim = 1 << 20;
  const auto got = side_hhh(leaves, opts);
  std::vector<SideKey> want;
  for (const WeightedSide& l : leaves) want.push_back(l.key);
  std::sort(want.begin(), want.end());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i]) << i;
    EXPECT_EQ(got[i].mass, 1.0);
    EXPECT_EQ(got[i].residual, 1.0);
  }
}

TEST(Aggregate, OutputIndependentOfInputOrder) {
  // Dyadic scores keep every sum exact, so only tie-breaking can make two
  // orders of the same records differ. A cap of 2 clusters per dimension
  // binds on equal masses.
  const auto cat = small_catalog();
  std::vector<RelationRecord> records;
  Rng rng(17);
  for (int i = 0; i < 160; ++i) {
    RelationRecord r;
    r.culprit_flow = ft(static_cast<std::uint32_t>(rng.uniform_u64(4)),
                        static_cast<std::uint16_t>(2000 + rng.uniform_u64(3)),
                        443);
    r.culprit_nf = static_cast<NodeId>(2 + rng.uniform_u64(3));
    r.kind = rng.bernoulli(0.5) ? core::CauseKind::kLocalProcessing
                                : core::CauseKind::kSourceTraffic;
    r.victim_flow = ft(static_cast<std::uint32_t>(rng.uniform_u64(6)),
                       static_cast<std::uint16_t>(rng.uniform_u64(4)),
                       static_cast<std::uint16_t>(80 + rng.uniform_u64(2)));
    r.victim_nf = static_cast<NodeId>(2 + rng.uniform_u64(3));
    r.score = static_cast<double>(1 + rng.uniform_u64(4)) / 8.0;
    records.push_back(r);
  }
  AggregateOptions opts;
  opts.threshold_frac = 0.02;
  opts.max_clusters_per_dim = 2;
  const auto want = aggregate_patterns(records, cat, opts);
  ASSERT_GT(want.size(), 5u);

  std::vector<WeightedSide> leaves;
  for (const RelationRecord& r : records)
    leaves.push_back({SideKey::leaf(r.victim_flow, r.victim_nf, cat), 0.25});
  HhhOptions hopts;
  hopts.threshold = 2.0;
  hopts.max_clusters_per_dim = 2;
  const auto want_side = side_hhh(leaves, hopts);
  ASSERT_FALSE(want_side.empty());

  Rng shuffler(2024);
  for (int round = 0; round < 20; ++round) {
    for (std::size_t i = records.size(); i > 1; --i) {
      const std::size_t j = shuffler.uniform_u64(i);
      std::swap(records[i - 1], records[j]);
      std::swap(leaves[i - 1], leaves[j]);
    }
    SCOPED_TRACE("shuffle " + std::to_string(round));
    const auto got = aggregate_patterns(records, cat, opts);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].culprit, want[i].culprit) << "pattern " << i;
      EXPECT_EQ(got[i].kind, want[i].kind) << "pattern " << i;
      EXPECT_EQ(got[i].victim, want[i].victim) << "pattern " << i;
      EXPECT_EQ(got[i].score, want[i].score) << "pattern " << i;
    }
    const auto got_side = side_hhh(leaves, hopts);
    ASSERT_EQ(got_side.size(), want_side.size());
    for (std::size_t i = 0; i < want_side.size(); ++i) {
      EXPECT_EQ(got_side[i].key, want_side[i].key) << "cluster " << i;
      EXPECT_EQ(got_side[i].mass, want_side[i].mass) << "cluster " << i;
      EXPECT_EQ(got_side[i].residual, want_side[i].residual) << "cluster " << i;
    }
  }
}

}  // namespace
}  // namespace microscope::autofocus
