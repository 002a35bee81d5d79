// §6.4 aggregation cost: pattern aggregation runtime vs relation count.
//
// The paper aggregates 84K causal relations into ~80 patterns in about
// three minutes. Our decoupled two-phase implementation should scale
// near-linearly in the relation count.
#include "bench_main.hpp"

#include "autofocus/aggregate.hpp"
#include "common/rng.hpp"
#include "online/aggregator.hpp"
#include "sketch/sketch_aggregator.hpp"

using namespace microscope;
using namespace microscope::autofocus;

namespace {

NfCatalog bench_catalog() {
  NfCatalog cat;
  cat.node_names = {"sink", "src"};
  cat.type_names = {"sink", "source", "nat", "fw", "mon", "vpn"};
  cat.type_of = {0, 1};
  for (int t = 2; t <= 5; ++t) {
    for (int i = 0; i < 5; ++i) {
      cat.node_names.push_back(cat.type_names[static_cast<std::size_t>(t)] +
                               std::to_string(i + 1));
      cat.type_of.push_back(static_cast<std::uint16_t>(t));
    }
  }
  return cat;
}

std::vector<RelationRecord> synth_relations(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<RelationRecord> out;
  out.reserve(n);
  // A handful of "hot" culprit flows (like bug triggers) plus noise.
  for (std::size_t i = 0; i < n; ++i) {
    RelationRecord r;
    const bool hot = rng.bernoulli(0.6);
    if (hot) {
      r.culprit_flow = {make_ipv4(100, 0, 0, 1), make_ipv4(32, 0, 0, 1),
                        static_cast<std::uint16_t>(2000 + rng.uniform_u64(9)),
                        static_cast<std::uint16_t>(6000 + rng.uniform_u64(9)),
                        6};
      r.culprit_nf = 7;  // fw1
      r.kind = core::CauseKind::kLocalProcessing;
    } else {
      r.culprit_flow = {static_cast<std::uint32_t>(rng.next_u64()),
                        static_cast<std::uint32_t>(rng.next_u64()),
                        static_cast<std::uint16_t>(rng.next_u64()),
                        static_cast<std::uint16_t>(rng.next_u64()), 6};
      r.culprit_nf = static_cast<NodeId>(2 + rng.uniform_u64(20));
      r.kind = core::CauseKind::kSourceTraffic;
    }
    r.victim_flow = {make_ipv4(10, 0, 0, static_cast<std::uint32_t>(
                                             rng.uniform_u64(200))),
                     make_ipv4(172, 16, 0, 1),
                     static_cast<std::uint16_t>(1024 + rng.uniform_u64(60000)),
                     443, 6};
    r.victim_nf = static_cast<NodeId>(2 + rng.uniform_u64(20));
    r.score = rng.uniform(0.1, 3.0);
    out.push_back(r);
  }
  return out;
}

void BM_AggregatePatterns(benchmark::State& state) {
  const auto cat = bench_catalog();
  const auto records =
      synth_relations(static_cast<std::size_t>(state.range(0)), 42);
  std::size_t patterns = 0;
  for (auto _ : state) {
    const auto out = aggregate_patterns(records, cat, {});
    patterns = out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["patterns"] = static_cast<double>(patterns);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AggregatePatterns)
    ->Arg(1'000)
    ->Arg(10'000)
    ->Arg(84'000)  // the paper's relation count
    ->Unit(benchmark::kMillisecond);

void BM_SideHhh(benchmark::State& state) {
  const auto cat = bench_catalog();
  Rng rng(7);
  std::vector<WeightedSide> leaves;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    FiveTuple f{make_ipv4(10, 0, static_cast<std::uint32_t>(rng.uniform_u64(8)),
                          static_cast<std::uint32_t>(rng.uniform_u64(250))),
                make_ipv4(172, 16, 0, 1),
                static_cast<std::uint16_t>(rng.uniform_u64(65536)), 443, 6};
    leaves.push_back(
        {SideKey::leaf(f, static_cast<NodeId>(2 + rng.uniform_u64(20)), cat),
         1.0});
  }
  HhhOptions opts;
  opts.threshold = static_cast<double>(state.range(0)) * 0.01;
  for (auto _ : state) {
    const auto out = side_hhh(leaves, opts);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SideHhh)->Arg(1'000)->Arg(10'000)->Arg(50'000)
    ->Unit(benchmark::kMillisecond);

// One diagnosis window synthesized from the same hot/noise mix as
// synth_relations, for the per-window ingest cost of the two live
// aggregation modes (exact retained-window vs bounded-memory sketch).
std::vector<core::Diagnosis> synth_window(std::size_t n, std::uint64_t seed) {
  const auto records = synth_relations(n, seed);
  std::vector<core::Diagnosis> out;
  out.reserve(n);
  for (const RelationRecord& r : records) {
    core::Diagnosis d;
    d.victim.node = r.victim_nf;
    d.victim.flow = r.victim_flow;
    core::CausalRelation rel;
    rel.culprit = {r.culprit_nf, r.kind};
    rel.score = r.score;
    rel.flows.push_back({r.culprit_flow, r.score});
    d.relations.push_back(std::move(rel));
    out.push_back(std::move(d));
  }
  return out;
}

void BM_StreamingIngest(benchmark::State& state) {
  const auto window =
      synth_window(static_cast<std::size_t>(state.range(0)), 42);
  online::StreamingAggregatorOptions opts;
  opts.decay = 0.8;
  online::StreamingAggregator agg(opts);
  for (auto _ : state) {
    agg.ingest(window);
    benchmark::DoNotOptimize(agg.windows_ingested());
  }
  state.counters["memory_bytes"] = static_cast<double>(agg.memory_bytes());
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StreamingIngest)->Arg(1'000)->Arg(10'000)
    ->Unit(benchmark::kMillisecond);

void BM_SketchIngest(benchmark::State& state) {
  const auto window =
      synth_window(static_cast<std::size_t>(state.range(0)), 42);
  online::StreamingAggregatorOptions sopts;
  sopts.decay = 0.8;
  sketch::SketchAggregator agg(
      sopts, static_cast<std::size_t>(state.range(1)), bench_catalog());
  for (auto _ : state) {
    agg.ingest(window);
    benchmark::DoNotOptimize(agg.windows_ingested());
  }
  state.counters["memory_bytes"] = static_cast<double>(agg.memory_bytes());
  state.counters["hh_evicted"] =
      static_cast<double>(agg.stats().hh_evicted);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SketchIngest)
    ->Args({1'000, 256 << 10})
    ->Args({1'000, 1 << 20})
    ->Args({10'000, 1 << 20})
    ->Unit(benchmark::kMillisecond);

}  // namespace

MICROSCOPE_BENCH_MAIN("overhead_aggregation");
