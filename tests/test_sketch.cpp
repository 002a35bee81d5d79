// Bounded-memory sketch aggregation (src/sketch/, DESIGN.md §14): the
// count-min error bound on seeded Zipf traffic, exact halving decay, the
// batched update against sequential ones, the diagonal generalization
// chain's lattice properties and its per-side walks, mass conservation
// under heavy-hitter eviction, the tracked-key index under churn,
// exact-vs-sketch agreement on the Fig-10 trace, byte-stable JSON, the
// pinned output digest, budget sizing, and the flat-memory soak the
// nightly job scales up via MICROSCOPE_SKETCH_SOAK_WINDOWS.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#ifdef __linux__
#include <fstream>
#endif

// Under AddressSanitizer (gcc defines __SANITIZE_ADDRESS__, clang reports
// it through __has_feature) the soak bounds the live heap instead of RSS.
#if defined(__SANITIZE_ADDRESS__)
#define MICROSCOPE_SOAK_LIVE_HEAP 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MICROSCOPE_SOAK_LIVE_HEAP 1
#endif
#endif
#ifdef MICROSCOPE_SOAK_LIVE_HEAP
// Declared in <sanitizer/allocator_interface.h>, which gcc does not ship;
// the ASan runtime exports it under both compilers.
extern "C" std::size_t __sanitizer_get_current_allocated_bytes();
#endif

#include "collector/collector.hpp"
#include "eval/json.hpp"
#include "eval/scenarios.hpp"
#include "nf/generate.hpp"
#include "nf/inject.hpp"
#include "nf/traffic.hpp"
#include "online/aggregator.hpp"
#include "online/engine.hpp"
#include "online/replay.hpp"
#include "sim/simulator.hpp"
#include "sketch/countmin.hpp"
#include "sketch/sketch_aggregator.hpp"
#include "trace/graph.hpp"

namespace microscope::sketch {
namespace {

using core::CauseKind;
using core::Diagnosis;

autofocus::NfCatalog small_catalog() {
  autofocus::NfCatalog cat;
  cat.node_names = {"src", "nat1", "nat2", "fw1"};
  cat.type_of = {0, 1, 1, 2};
  cat.type_names = {"source", "nat", "firewall"};
  return cat;
}

/// One-relation diagnosis: `culprit_flow` at `node` hurting `victim_flow`.
Diagnosis synth_diag(NodeId node, const FiveTuple& culprit_flow,
                     const FiveTuple& victim_flow, double score,
                     CauseKind kind = CauseKind::kLocalProcessing) {
  Diagnosis d;
  d.victim.node = node;
  d.victim.flow = victim_flow;
  core::CausalRelation rel;
  rel.culprit = {node, kind};
  rel.score = score;
  rel.culprit_t1 = 1000;
  rel.flows.push_back({culprit_flow, score});
  d.relations.push_back(rel);
  return d;
}

FiveTuple random_flow(std::mt19937_64& rng) {
  FiveTuple ft;
  ft.src_ip = make_ipv4(10, 0, 0, 0) | (rng() & 0xffff);
  ft.dst_ip = make_ipv4(172, 16, 0, 0) | (rng() & 0xffff);
  ft.src_port = static_cast<std::uint16_t>(1024 + (rng() % 60000));
  ft.dst_port = static_cast<std::uint16_t>(rng() % 1024);
  ft.proto = (rng() & 1) ? 6 : 17;
  return ft;
}

// ---- count-min ----------------------------------------------------------

TEST(CountMin, ErrorBoundHoldsOnZipfTraffic) {
  // Seeded Zipf flow popularity, as the paper's CAIDA stand-in produces.
  nf::CaidaLikeOptions topts;
  topts.duration = 5_ms;
  topts.rate_mpps = 1.2;
  topts.num_flows = 2000;
  topts.seed = 7;
  const auto trace = nf::generate_caida_like(topts);
  ASSERT_GT(trace.size(), 1000u);

  CountMinSketch cm(1024, 4);
  std::map<FiveTuple, double> exact;
  for (const nf::SourcePacket& p : trace) {
    cm.add(flow_hash(p.flow), 1.0);
    exact[p.flow] += 1.0;
  }
  const double n = static_cast<double>(trace.size());
  const double bound = cm.epsilon() * n;
  std::size_t within = 0;
  for (const auto& [flow, true_mass] : exact) {
    const double est = cm.estimate(flow_hash(flow));
    // One-sided: conservative update never undershoots.
    ASSERT_GE(est, true_mass) << format_five_tuple(flow);
    if (est <= true_mass + bound) ++within;
  }
  // The (e/w, 1 - e^{-d}) guarantee, checked empirically at >= 99%.
  EXPECT_GE(static_cast<double>(within),
            0.99 * static_cast<double>(exact.size()))
      << within << " of " << exact.size() << " flows within epsilon*N";
}

TEST(CountMin, ScaleHalvingIsExact) {
  CountMinSketch cm(256, 3);
  std::mt19937_64 rng(11);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 400; ++i) {
    keys.push_back(rng());
    cm.add(keys.back(), 1.0 + static_cast<double>(i % 17));
  }
  std::vector<double> before;
  for (std::uint64_t k : keys) before.push_back(cm.estimate(k));
  cm.scale(0.5, /*flush_below=*/0.0);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    // Halving a binary double is exact: bit-identical to before * 0.5.
    EXPECT_EQ(cm.estimate(keys[i]), before[i] * 0.5);
  }
}

TEST(CountMin, ScaleFlushesDustToZero) {
  CountMinSketch cm(64, 2);
  cm.add(123, 1e-9);
  EXPECT_GT(cm.estimate(123), 0.0);
  cm.scale(0.5, /*flush_below=*/1e-6);
  EXPECT_EQ(cm.estimate(123), 0.0);
}

TEST(CountMin, BatchedAddEqualsSequentialAdds) {
  // One add() over a chain of keys is the sequential add()s of its keys,
  // bit for bit: later keys see the counters earlier ones raised. A narrow
  // table makes keys share counters, and some chains repeat a key.
  for (std::size_t depth = 1; depth <= 5; ++depth) {
    CountMinSketch batched(16, depth);
    CountMinSketch sequential(16, depth);
    std::mt19937_64 rng(100 + depth);
    std::vector<std::uint64_t> seen;
    for (int rec = 0; rec < 300; ++rec) {
      std::uint64_t keys[kChainLevels];
      for (std::uint64_t& k : keys) {
        k = !seen.empty() && rng() % 3 == 0 ? seen[rng() % seen.size()] : rng();
        seen.push_back(k);
      }
      if (rec % 4 == 0) keys[5] = keys[2];  // a key twice in one chain
      const double mass = 0.25 * static_cast<double>(1 + rng() % 8);
      double est[kChainLevels];
      batched.add(keys, mass, est);
      for (int l = 0; l < kChainLevels; ++l) {
        // A conservative update raises the key's estimate by exactly mass.
        const double before = sequential.estimate(keys[l]);
        const double after = sequential.add(keys[l], mass);
        ASSERT_EQ(after, before + mass);
        ASSERT_EQ(sequential.estimate(keys[l]), after);
        ASSERT_EQ(est[l], after)
            << "depth " << depth << " record " << rec << " level " << l;
      }
    }
    for (const std::uint64_t k : seen)
      ASSERT_EQ(batched.estimate(k), sequential.estimate(k)) << depth;
  }
}

// ---- generalization chain -----------------------------------------------

TEST(Chain, LevelsCoverAndTerminateAtRoot) {
  const auto cat = small_catalog();
  autofocus::RelationRecord rec;
  rec.culprit_flow = {make_ipv4(10, 1, 2, 3), make_ipv4(172, 16, 9, 8), 3333,
                      443, 6};
  rec.culprit_nf = 1;
  rec.kind = CauseKind::kLocalProcessing;
  rec.victim_flow = {make_ipv4(10, 4, 5, 6), make_ipv4(172, 16, 7, 7), 5555,
                     53, 17};
  rec.victim_nf = 3;
  rec.score = 1.0;

  const auto chain = generalization_chain(rec, cat);
  ASSERT_EQ(chain.size(), static_cast<std::size_t>(kChainLevels));
  // Level 0 is the exact leaf.
  EXPECT_EQ(chain[0].culprit,
            autofocus::SideKey::leaf(rec.culprit_flow, rec.culprit_nf, cat));
  EXPECT_EQ(chain[0].victim,
            autofocus::SideKey::leaf(rec.victim_flow, rec.victim_nf, cat));
  for (int l = 0; l + 1 < kChainLevels; ++l) {
    // Each level is an ancestor of the previous on both sides; the cause
    // kind never generalizes.
    EXPECT_TRUE(chain[l + 1].culprit.covers(chain[l].culprit)) << l;
    EXPECT_TRUE(chain[l + 1].victim.covers(chain[l].victim)) << l;
    EXPECT_EQ(chain[l + 1].kind, rec.kind);
    // Idempotence: clamping a level to itself is a no-op.
    EXPECT_EQ(clamp_to_level(chain[l], l), chain[l]) << l;
  }
  // The last level is the per-kind root: every dimension any.
  EXPECT_EQ(chain.back().culprit, autofocus::SideKey{});
  EXPECT_EQ(chain.back().victim, autofocus::SideKey{});
}

TEST(Chain, LevelsFollowTheAutoFocusLadders) {
  // Each chain level puts every dimension of both sides at a fixed rung of
  // its AutoFocus ladder (autofocus::dim_level): IPs /32 /24 /16 /8 /0 are
  // 0..4, ports exact/band/any 0..2, proto set/any 0..1, NF
  // instance/type/any 0..2.
  constexpr int kWant[kChainLevels][autofocus::kSideDims] = {
      // src IP, dst IP, sport, dport, proto, NF
      {0, 0, 0, 0, 0, 0},  // 0: exact leaf
      {0, 0, 1, 1, 0, 0},  // 1: ports band
      {1, 1, 1, 1, 0, 0},  // 2: IPs /24
      {1, 1, 2, 2, 0, 0},  // 3: ports any
      {2, 2, 2, 2, 0, 0},  // 4: IPs /16
      {2, 2, 2, 2, 0, 1},  // 5: NF type
      {3, 3, 2, 2, 1, 1},  // 6: IPs /8, proto any
      {4, 4, 2, 2, 1, 2},  // 7: root
  };
  const auto cat = small_catalog();
  autofocus::RelationRecord rec;
  rec.culprit_flow = {make_ipv4(10, 1, 2, 3), make_ipv4(172, 16, 9, 8), 3333,
                      443, 6};
  rec.culprit_nf = 2;
  rec.kind = CauseKind::kSourceTraffic;
  rec.victim_flow = {make_ipv4(192, 168, 5, 6), make_ipv4(8, 8, 4, 4), 80,
                     50000, 17};
  rec.victim_nf = 3;
  rec.score = 1.0;
  const auto chain = generalization_chain(rec, cat);
  ASSERT_EQ(chain.size(), static_cast<std::size_t>(kChainLevels));
  for (int l = 0; l < kChainLevels; ++l) {
    for (int d = 0; d < autofocus::kSideDims; ++d) {
      EXPECT_EQ(autofocus::dim_level(chain[l].culprit, d), kWant[l][d])
          << "culprit level " << l << " dim " << d;
      EXPECT_EQ(autofocus::dim_level(chain[l].victim, d), kWant[l][d])
          << "victim level " << l << " dim " << d;
    }
    // clamp_to_level reaches the same key from the leaf in one step.
    EXPECT_EQ(clamp_to_level(chain[0], l), chain[l]) << l;
  }
}

TEST(Chain, WalkFromEveryLevelContinuesTheLeafChain) {
  // An evicted tracked entry folds into its nearest tracked ancestor,
  // found by walking the chain up from the entry's level: from every level
  // L of a leaf's chain that walk gives the chain's levels L+1..7. Both
  // records put one side on a node outside the catalog (the fallback
  // leaf).
  const auto cat = small_catalog();
  std::vector<autofocus::RelationRecord> recs(2);
  recs[0].culprit_flow = {make_ipv4(10, 1, 2, 3), make_ipv4(172, 16, 9, 8),
                          3333, 443, 6};
  recs[0].culprit_nf = 1;
  recs[0].kind = CauseKind::kLocalProcessing;
  recs[0].victim_flow = {make_ipv4(10, 4, 5, 6), make_ipv4(172, 16, 7, 7),
                         5555, 53, 17};
  recs[0].victim_nf = 9;
  recs[1].culprit_flow = {make_ipv4(192, 168, 5, 6), make_ipv4(8, 8, 4, 4), 80,
                          50000, 17};
  recs[1].culprit_nf = 7;
  recs[1].kind = CauseKind::kSourceTraffic;
  recs[1].victim_flow = {make_ipv4(1, 2, 3, 4), make_ipv4(5, 6, 7, 8), 1, 2,
                         6};
  recs[1].victim_nf = 3;
  for (const autofocus::RelationRecord& rec : recs) {
    const auto chain = generalization_chain(rec, cat);
    for (int l = 0; l < kChainLevels; ++l) {
      const auto up = chain_from(chain[l], l);
      EXPECT_EQ(up[l], chain[l]) << l;
      for (int m = l + 1; m < kChainLevels; ++m) {
        EXPECT_EQ(up[m], chain[m]) << "from " << l << " to " << m;
      }
    }
  }
}

TEST(Chain, SideWalksComposeTheChainAndItsHashes) {
  // Level l of a record's chain is its two sides' walks at level l plus
  // the kind, and its pattern_key_hash combines the walks' SideKeyHashes;
  // a walk from any level continues the leaf's. Nodes 4 and 9 lie outside
  // the catalog (leaf_side's type-0 fallback), and a zero culprit flow is
  // what a relation without flows contributes.
  const auto cat = small_catalog();
  std::mt19937_64 rng(43);
  const autofocus::SideKeyHash sh;
  for (int i = 0; i < 200; ++i) {
    autofocus::RelationRecord rec;
    rec.culprit_flow = i % 5 == 0 ? FiveTuple{} : random_flow(rng);
    rec.culprit_nf = static_cast<NodeId>(rng() % 5);
    rec.kind = rng() % 2 == 0 ? CauseKind::kSourceTraffic
                              : CauseKind::kLocalProcessing;
    rec.victim_flow = random_flow(rng);
    rec.victim_nf = i % 7 == 0 ? 9 : static_cast<NodeId>(rng() % 4);
    const auto chain = generalization_chain(rec, cat);

    const autofocus::SideKey cleaf =
        leaf_side(rec.culprit_flow, rec.culprit_nf, cat);
    const autofocus::SideKey vleaf =
        leaf_side(rec.victim_flow, rec.victim_nf, cat);
    if (rec.culprit_nf < cat.type_of.size()) {
      EXPECT_EQ(cleaf, autofocus::SideKey::leaf(rec.culprit_flow,
                                                rec.culprit_nf, cat));
    } else {
      EXPECT_EQ(cleaf.nf.level, autofocus::NfSet::Level::kInstance);
      EXPECT_EQ(cleaf.nf.instance, rec.culprit_nf);
      EXPECT_EQ(cleaf.nf.type, 0);
    }
    SideChain cul;
    SideChain vic;
    walk_side(cleaf, 0, cul);
    walk_side(vleaf, 0, vic);
    for (int l = 0; l < kChainLevels; ++l) {
      const PatternKey k{cul.key[l], rec.kind, vic.key[l]};
      ASSERT_EQ(k, chain[l]) << "record " << i << " level " << l;
      ASSERT_EQ(k, clamp_to_level(chain[0], l)) << i << " level " << l;
      EXPECT_EQ(cul.hash[l], sh(cul.key[l]));
      EXPECT_EQ(vic.hash[l], sh(vic.key[l]));
      EXPECT_EQ(combine_pattern_hash(cul.hash[l], rec.kind, vic.hash[l]),
                pattern_key_hash(chain[l]))
          << "record " << i << " level " << l;
      SideChain up;
      walk_side(cul.key[l], l, up);
      for (int m = l; m < kChainLevels; ++m) {
        EXPECT_EQ(up.key[m], cul.key[m]) << "from " << l << " to " << m;
        EXPECT_EQ(up.hash[m], cul.hash[m]) << "from " << l << " to " << m;
      }
    }
  }
}

// ---- sketch aggregator --------------------------------------------------

TEST(SketchAggregator, BoardMatchesExactUnderHalvingDecay) {
  online::StreamingAggregatorOptions sopt;
  sopt.decay = 0.5;
  sopt.top_k = 8;
  online::StreamingAggregator exact(sopt);
  SketchAggregator sk(sopt, 1 << 20, small_catalog());

  std::mt19937_64 rng(5);
  for (int w = 0; w < 12; ++w) {
    std::vector<Diagnosis> window;
    for (int i = 0; i < 6; ++i) {
      const NodeId node = 1 + (rng() % 3);
      window.push_back(synth_diag(node, random_flow(rng), random_flow(rng),
                                  1.0 + static_cast<double>(rng() % 50)));
    }
    exact.ingest(window);
    sk.ingest(window);
    // The culprit board is exact in both (domain is topology-bounded):
    // identical ranking, scores, and windows_seen under the same halving.
    const auto te = exact.top();
    const auto ts = sk.top();
    ASSERT_EQ(te.size(), ts.size()) << "window " << w;
    for (std::size_t i = 0; i < te.size(); ++i) {
      EXPECT_EQ(te[i].culprit, ts[i].culprit);
      EXPECT_DOUBLE_EQ(te[i].score, ts[i].score);
      EXPECT_EQ(te[i].windows_seen, ts[i].windows_seen);
    }
  }
  EXPECT_EQ(exact.windows_ingested(), sk.windows_ingested());
}

TEST(SketchAggregator, MassConservedUnderEviction) {
  // A tiny budget forces constant heavy-hitter eviction; fold-to-ancestor
  // must conserve the decayed relation mass exactly (all additions, no
  // subtractions: sum(tracked) == decayed total ingested mass).
  online::StreamingAggregatorOptions opts;
  opts.decay = 0.9;
  opts.min_score = 0.0;  // nothing silently dropped by the floor
  SketchAggregator sk(opts, 8 << 10, small_catalog());

  std::mt19937_64 rng(17);
  double expected_mass = 0.0;
  for (int w = 0; w < 20; ++w) {
    std::vector<Diagnosis> window;
    for (int i = 0; i < 40; ++i)
      window.push_back(synth_diag(1 + (rng() % 3), random_flow(rng),
                                  random_flow(rng), 1.0));
    expected_mass = expected_mass * opts.decay + 40.0;
    sk.ingest(window);
  }
  const SketchStats st = sk.stats();
  EXPECT_NEAR(st.total_mass, expected_mass, 1e-6 * expected_mass);
  double tracked_sum = 0.0;
  autofocus::AggregateOptions aopt;
  aopt.threshold_frac = 0.0;
  for (const autofocus::Pattern& p : sk.patterns(small_catalog(), aopt))
    tracked_sum += p.score;
  EXPECT_NEAR(tracked_sum, expected_mass, 1e-6 * expected_mass);
  EXPECT_GT(st.hh_evicted, 0u) << "budget was meant to force evictions";
  EXPECT_LE(st.tracked_size, 2 * st.tracked_capacity);
}

TEST(SketchAggregator, PatternsAreDeterministicAndJsonByteStable) {
  const auto run = [](std::uint64_t seed) {
    SketchAggregator sk(online::StreamingAggregatorOptions{}, 64 << 10,
                        small_catalog());
    std::mt19937_64 rng(seed);
    std::vector<Diagnosis> all;
    for (int w = 0; w < 8; ++w) {
      std::vector<Diagnosis> window;
      for (int i = 0; i < 25; ++i)
        window.push_back(synth_diag(1 + (rng() % 3), random_flow(rng),
                                    random_flow(rng),
                                    1.0 + static_cast<double>(rng() % 9)));
      sk.ingest(window);
      for (const Diagnosis& d : window) all.push_back(d);
    }
    const auto patterns = sk.patterns(small_catalog());
    return eval::report_to_json(all, small_catalog(), patterns);
  };
  const std::string a = run(23);
  const std::string b = run(23);
  EXPECT_EQ(a, b) << "same input must produce byte-identical JSON";
  EXPECT_NE(a.find("patterns"), std::string::npos);
}

TEST(SketchAggregator, ExactVsSketchTopKOverlapOnFig10) {
  // The Fig-10 chain with a NAT interrupt, streamed through two engines
  // that differ only in the aggregation mode.
  collector::Collector col;
  sim::Simulator sim;
  auto net = eval::build_fig10(sim, &col);
  nf::CaidaLikeOptions topts;
  topts.duration = 10_ms;
  topts.rate_mpps = 1.0;
  topts.num_flows = 300;
  net.topo->source(net.source).load(nf::generate_caida_like(topts));
  nf::InjectionLog log;
  nf::schedule_interrupt(sim, net.topo->nf(net.nats[0]), 4_ms, 600_us, log);
  sim.run_until(24_ms);

  online::OnlineOptions oopt;
  oopt.window_ns = 5_ms;
  oopt.slack_ns = 5_ms;
  oopt.latency_threshold = 150_us;
  oopt.diagnoser.max_depth = 5;
  oopt.diagnoser.period.max_lookback = 3_ms;
  oopt.reconstruct.prop_delay = net.topo->options().prop_delay;
  online::OnlineEngine exact_eng(trace::graph_view(*net.topo),
                                 net.topo->peak_rates(), oopt);
  online::OnlineOptions sopt = oopt;
  sopt.agg_memory_budget = 1 << 20;
  sopt.agg_catalog = eval::make_catalog(*net.topo);
  online::OnlineEngine sketch_eng(trace::graph_view(*net.topo),
                                  net.topo->peak_rates(), sopt);
  replay_collector(col, exact_eng, 64);
  replay_collector(col, sketch_eng, 64);

  ASSERT_NE(dynamic_cast<const SketchAggregator*>(&sketch_eng.aggregator()),
            nullptr)
      << "a nonzero budget must select the sketch aggregator";
  const auto te = exact_eng.aggregator().top();
  const auto ts = sketch_eng.aggregator().top();
  ASSERT_FALSE(te.empty());
  std::set<std::pair<NodeId, int>> exact_set, sketch_set;
  for (const auto& t : te)
    exact_set.insert({t.culprit.node, static_cast<int>(t.culprit.kind)});
  for (const auto& t : ts)
    sketch_set.insert({t.culprit.node, static_cast<int>(t.culprit.kind)});
  std::size_t inter = 0;
  for (const auto& c : exact_set) inter += sketch_set.count(c);
  EXPECT_GE(static_cast<double>(inter),
            0.9 * static_cast<double>(exact_set.size()));
  // Sketch patterns still surface the injected culprit at the NAT.
  const auto pats =
      sketch_eng.aggregator().patterns(sopt.agg_catalog);
  EXPECT_FALSE(pats.empty());
}

TEST(SketchAggregator, TrackedKeysStayFindableThroughEviction) {
  // Under an 8 KiB budget (16 tracked entries) most admitted keys are
  // evicted again, mid-window and at every close, and min_score drops
  // more: after every window each tracked key is found through the
  // tracked-key index with its score, and no key that left the table is.
  online::StreamingAggregatorOptions opts;
  opts.decay = 0.5;
  opts.min_score = 0.05;
  SketchAggregator sk(opts, 8 << 10, small_catalog());
  std::mt19937_64 rng(47);
  std::vector<FiveTuple> heavy;
  for (int i = 0; i < 4; ++i) heavy.push_back(random_flow(rng));
  autofocus::AggregateOptions all;
  all.threshold_frac = 0.0;
  std::set<PatternKey> ever;
  for (int w = 0; w < 30; ++w) {
    std::vector<Diagnosis> window;
    for (int i = 0; i < 60; ++i) {
      const FiveTuple cf =
          rng() % 2 == 0 ? heavy[rng() % heavy.size()] : random_flow(rng);
      const CauseKind kind = rng() % 3 == 0 ? CauseKind::kSourceTraffic
                                            : CauseKind::kLocalProcessing;
      window.push_back(synth_diag(static_cast<NodeId>(1 + rng() % 3), cf,
                                  random_flow(rng),
                                  static_cast<double>(1 + rng() % 20) / 10.0,
                                  kind));
    }
    sk.ingest(window);
    std::map<PatternKey, double> now;
    for (const autofocus::Pattern& p : sk.patterns(small_catalog(), all))
      now[{p.culprit, p.kind, p.victim}] = p.score;
    for (const CauseKind kind :
         {CauseKind::kSourceTraffic, CauseKind::kLocalProcessing}) {
      const PatternKey root{{}, kind, {}};
      ASSERT_TRUE(sk.tracked_score(root).has_value()) << "window " << w;
      if (!now.count(root)) now[root] = *sk.tracked_score(root);
    }
    EXPECT_EQ(now.size(), sk.stats().tracked_size) << "window " << w;
    for (const auto& [key, score] : now) {
      const std::optional<double> got = sk.tracked_score(key);
      ASSERT_TRUE(got.has_value()) << "window " << w;
      EXPECT_EQ(*got, score) << "window " << w;
      ever.insert(key);
    }
    for (const PatternKey& key : ever) {
      if (!now.count(key)) {
        EXPECT_FALSE(sk.tracked_score(key).has_value()) << "window " << w;
      }
    }
  }
  EXPECT_GT(ever.size(), 4 * sk.stats().tracked_capacity);
  EXPECT_GT(sk.stats().hh_evicted, 30u * 16u);
}

/// FNV-1a over the bytes of each value added.
struct Fnv {
  std::uint64_t h{1469598103934665603ULL};
  template <typename T>
  void add(const T& v) {
    unsigned char b[sizeof(T)];
    std::memcpy(b, &v, sizeof(T));
    for (const unsigned char c : b) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  }
  void add_side(const autofocus::SideKey& k) {
    for (int d = 0; d < autofocus::kSideDims; ++d) add(autofocus::dim_code(k, d));
  }
};

/// A deterministic window of diagnoses for the pinned digest: victims and
/// culprits on catalog nodes and on nodes outside it (the fallback leaf),
/// both cause kinds, relations with no flows (the zero culprit flow), and
/// flows drawn from a few heavy ones that stay tracked plus fresh light
/// ones that churn.
std::vector<Diagnosis> digest_window(std::mt19937_64& rng,
                                     const std::vector<FiveTuple>& heavy) {
  std::vector<Diagnosis> window;
  for (int i = 0; i < 70; ++i) {
    Diagnosis d;
    d.victim.node = static_cast<NodeId>(1 + rng() % 5);  // 4, 5: off catalog
    d.victim.flow = rng() % 3 == 0 ? heavy[rng() % heavy.size()]
                                   : random_flow(rng);
    const int rels = 1 + static_cast<int>(rng() % 3);
    for (int r = 0; r < rels; ++r) {
      core::CausalRelation rel;
      rel.culprit = {static_cast<NodeId>(rng() % 5),
                     rng() % 4 == 0 ? CauseKind::kSourceTraffic
                                    : CauseKind::kLocalProcessing};
      rel.score = static_cast<double>(1 + rng() % 400) / 100.0;
      rel.culprit_t1 = static_cast<TimeNs>(1000 + i);
      const int flows = static_cast<int>(rng() % 4);  // 0: no flows
      for (int f = 0; f < flows; ++f) {
        const FiveTuple ft =
            rng() % 2 == 0 ? heavy[rng() % heavy.size()] : random_flow(rng);
        rel.flows.push_back(
            {ft, static_cast<double>(1 + rng() % 300) / 1000.0});
      }
      d.relations.push_back(rel);
    }
    window.push_back(d);
  }
  return window;
}

TEST(SketchAggregator, OutputDigestIsPinned) {
  // Everything the sketch emits after each of 40 windows, pinned to the
  // bytes the per-record chain rebuild produced: patterns() at the default
  // threshold and at 0 (keys by dim_code, kind, score bits), top(), and
  // stats(). The 8 KiB budget (16 tracked entries) puts more than twice
  // that many leaves into each window, so entries are evicted mid-window
  // and at every close and folded into their ancestors; min_score drops
  // decayed entries. An intended change of the output updates the
  // constant and says so in CHANGES.md.
  online::StreamingAggregatorOptions opts;
  opts.decay = 0.5;
  opts.min_score = 0.02;
  opts.top_k = 6;
  SketchAggregator sk(opts, 8 << 10, small_catalog());
  ASSERT_LT(2 * sk.stats().tracked_capacity, 70u);

  std::mt19937_64 rng(41);
  std::vector<FiveTuple> heavy;
  for (int i = 0; i < 6; ++i) heavy.push_back(random_flow(rng));
  autofocus::AggregateOptions all;
  all.threshold_frac = 0.0;
  Fnv f;
  for (int w = 0; w < 40; ++w) {
    sk.ingest(digest_window(rng, heavy));
    for (const autofocus::AggregateOptions& aopt :
         {autofocus::AggregateOptions{}, all}) {
      const auto pats = sk.patterns(small_catalog(), aopt);
      f.add(pats.size());
      for (const autofocus::Pattern& p : pats) {
        f.add_side(p.culprit);
        f.add(p.kind);
        f.add_side(p.victim);
        f.add(p.score);
      }
    }
    const auto top = sk.top();
    f.add(top.size());
    for (const online::TopCulprit& t : top) {
      f.add(t.culprit.node);
      f.add(t.culprit.kind);
      f.add(t.score);
      f.add(t.windows_seen);
      f.add(t.last_seen);
    }
    const SketchStats st = sk.stats();
    f.add(st.tracked_size);
    f.add(st.hh_evicted);
    f.add(st.total_mass);
  }
  EXPECT_GT(sk.stats().hh_evicted, 40u * 16u);
  EXPECT_EQ(f.h, 0x6814353c3fbeb99aULL) << std::hex << "0x" << f.h;
}

TEST(SketchSizing, BudgetDrivesShapeAndFootprint) {
  const auto small = SketchSizing::from_budget(64 << 10);
  const auto large = SketchSizing::from_budget(4 << 20);
  EXPECT_GE(small.depth, 2u);
  EXPECT_LE(small.depth, 8u);
  EXPECT_GE(small.width, 64u);
  EXPECT_GT(large.width, small.width);
  EXPECT_GT(large.tracked_capacity, small.tracked_capacity);
  EXPECT_GT(large.board_capacity, small.board_capacity);
  // Every budget gets the rows of the fixed failure probability.
  EXPECT_EQ(small.depth, large.depth);

  // The realized footprint respects the budget (+ the documented 2x
  // tracked-entry churn headroom already inside the split).
  constexpr std::size_t kBudget = 256 << 10;
  SketchAggregator sk(online::StreamingAggregatorOptions{}, kBudget,
                      small_catalog());
  std::mt19937_64 rng(29);
  for (int w = 0; w < 10; ++w) {
    std::vector<Diagnosis> window;
    for (int i = 0; i < 200; ++i)
      window.push_back(synth_diag(1 + (rng() % 3), random_flow(rng),
                                  random_flow(rng), 1.0));
    sk.ingest(window);
  }
  EXPECT_LE(sk.memory_bytes(), kBudget * 11 / 10);
}

/// The process memory the soak holds flat, in kB; 0 when unavailable.
/// Under ASan it is the live heap: ASan's quarantine keeps freed blocks
/// resident, so RSS there grows with the quarantine, not with the
/// aggregator. Elsewhere it is the whole-process VmRSS.
std::size_t soak_memory_kb() {
#if defined(MICROSCOPE_SOAK_LIVE_HEAP)
  return __sanitizer_get_current_allocated_bytes() / 1024;
#elif defined(__linux__)
  std::ifstream f("/proc/self/status");
  std::string key;
  while (f >> key) {
    if (key == "VmRSS:") {
      std::size_t kb = 0;
      f >> kb;
      return kb;
    }
    f.ignore(4096, '\n');
  }
  return 0;
#else
  return 0;
#endif
}

TEST(SketchAggregator, SoakHoldsMemoryFlat) {
  // Every window brings entirely fresh flows — the workload that grows the
  // exact aggregator without bound. The sketch must stay flat. The nightly
  // soak leg reruns this with MICROSCOPE_SKETCH_SOAK_WINDOWS=10000.
  std::size_t windows = 300;
  if (const char* env = std::getenv("MICROSCOPE_SKETCH_SOAK_WINDOWS"))
    windows = static_cast<std::size_t>(std::atoll(env));
  SketchAggregator sk(online::StreamingAggregatorOptions{}, 512 << 10,
                      small_catalog());
  std::mt19937_64 rng(31);
  const std::size_t warmup = windows / 4;
  std::size_t warm_bytes = 0;
  std::size_t warm_kb = 0;
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<Diagnosis> window;
    for (int i = 0; i < 30; ++i)
      window.push_back(synth_diag(1 + (rng() % 3), random_flow(rng),
                                  random_flow(rng), 1.0));
    sk.ingest(window);
    if (w == warmup) {
      warm_bytes = sk.memory_bytes();
      warm_kb = soak_memory_kb();
    }
  }
  ASSERT_GT(warm_bytes, 0u);
  // Accounted state flat within 5% after warmup.
  EXPECT_LE(sk.memory_bytes(), warm_bytes + warm_bytes / 20);
  // Process memory flat within 5% (+4 MiB allocator slack).
  const std::size_t final_kb = soak_memory_kb();
  if (warm_kb > 0 && final_kb > 0) {
    EXPECT_LE(final_kb, warm_kb + warm_kb / 20 + 4096)
        << "memory grew from " << warm_kb << " kB to " << final_kb
        << " kB over " << windows << " windows";
  }
}

}  // namespace
}  // namespace microscope::sketch
