// Bounded-memory sketch aggregation (src/sketch/, DESIGN.md §14): the
// count-min error bound on seeded Zipf traffic, exact halving decay, the
// diagonal generalization chain's lattice properties, mass conservation
// under heavy-hitter eviction, exact-vs-sketch agreement on the Fig-10
// trace, byte-stable JSON, budget sizing, and the flat-memory soak the
// nightly job scales up via MICROSCOPE_SKETCH_SOAK_WINDOWS.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <map>
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
