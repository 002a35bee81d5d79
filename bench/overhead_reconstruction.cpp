// §5 offline cost: trace reconstruction throughput.
//
// Reconstruction (IPID alignment + journey assembly) is the offline front
// half of diagnosis; this measures its packet throughput on a Fig. 10
// trace, plus the alignment-only cost.
#include "bench_main.hpp"

#include "microscope/microscope.hpp"

using namespace microscope;

namespace {

struct Fixture {
  sim::Simulator sim;
  collector::Collector col;
  eval::Fig10 net;
  trace::GraphView graph;
  std::size_t packets{0};

  Fixture() : net(eval::build_fig10(sim, &col)) {
    nf::CaidaLikeOptions topts;
    topts.duration = 100_ms;
    topts.rate_mpps = 1.2;
    topts.num_flows = 2000;
    auto traffic = nf::generate_caida_like(topts);
    packets = traffic.size();
    net.topo->source(net.source).load(std::move(traffic));
    sim.run_until(150_ms);
    graph = trace::graph_view(*net.topo);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_AlignAll(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) {
    trace::AlignStats stats;
    const auto a = trace::align_all(f.col, f.graph, {}, &stats);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.packets));
}
BENCHMARK(BM_AlignAll)->Unit(benchmark::kMillisecond);

void BM_FullReconstruct(benchmark::State& state) {
  Fixture& f = fixture();
  trace::ReconstructOptions ropt;
  ropt.prop_delay = 1_us;
  std::size_t journeys = 0;
  for (auto _ : state) {
    const auto rt = trace::reconstruct(f.col, f.graph, ropt);
    journeys = rt.journeys().size();
    benchmark::DoNotOptimize(&rt);
  }
  state.counters["journeys"] = static_cast<double>(journeys);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.packets));
}
BENCHMARK(BM_FullReconstruct)->Unit(benchmark::kMillisecond);

void BM_DiagnoseOneVictim(benchmark::State& state) {
  Fixture& f = fixture();
  trace::ReconstructOptions ropt;
  ropt.prop_delay = 1_us;
  static const auto rt = trace::reconstruct(f.col, f.graph, ropt);
  static const core::Diagnoser diag(rt, f.net.topo->peak_rates());
  static const auto victims = diag.latency_victims_by_percentile(99.0);
  if (victims.empty()) {
    state.SkipWithError("no victims");
    return;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto d = diag.diagnose(victims[i % victims.size()]);
    benchmark::DoNotOptimize(&d);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DiagnoseOneVictim)->Unit(benchmark::kMicrosecond);

}  // namespace

MICROSCOPE_BENCH_MAIN("overhead_reconstruction");
