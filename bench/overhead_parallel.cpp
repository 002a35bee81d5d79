// Offline analysis scaling: reconstruction + diagnosis throughput of the
// parallel sharded pipeline at 2/4/8 worker threads on the Fig. 10/11
// workload (16-NF topology, CAIDA-like traffic, one injected interrupt).
//
// Thread counts 0 and 1 are the sequential baseline (no pool at all). N >= 2
// builds a pool of N workers per call, and the calling thread runs chunks
// too, so N + 1 threads work. cpu_time counts only the calling thread:
// read scaling off real_time. Speedups are only meaningful on a machine
// that actually has the cores — on a single-CPU host every configuration
// collapses to roughly the sequential rate.
#include "bench_main.hpp"

#include "microscope/microscope.hpp"
#include "nf/inject.hpp"

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
    topts.duration = 60_ms;
    topts.rate_mpps = 1.2;
    topts.num_flows = 1500;
    auto traffic = nf::generate_caida_like(topts);
    packets = traffic.size();
    net.topo->source(net.source).load(std::move(traffic));
    nf::InjectionLog log;
    nf::schedule_interrupt(sim, net.topo->nf(net.nats[0]), 20_ms, 600_us,
                           log);
    sim.run_until(100_ms);
    graph = trace::graph_view(*net.topo);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

trace::ReconstructOptions options_for(unsigned threads) {
  trace::ReconstructOptions ropt;
  ropt.prop_delay = fixture().net.topo->options().prop_delay;
  ropt.parallel.num_threads = threads;
  return ropt;
}

void BM_ReconstructThreads(benchmark::State& state) {
  Fixture& f = fixture();
  const auto ropt = options_for(static_cast<unsigned>(state.range(0)));
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
BENCHMARK(BM_ReconstructThreads)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_DiagnoseAllThreads(benchmark::State& state) {
  Fixture& f = fixture();
  // Reconstruct once (sequentially — it is identical either way) and fan
  // out the per-victim diagnosis, the embarrassingly parallel half.
  static const auto rt = trace::reconstruct(f.col, f.graph, options_for(0));
  core::DiagnoserOptions dopt;
  dopt.parallel.num_threads = static_cast<unsigned>(state.range(0));
  const core::Diagnoser diag(rt, f.net.topo->peak_rates(), dopt);
  static const auto victims = [] {
    const core::Diagnoser seq(rt, fixture().net.topo->peak_rates());
    return seq.latency_victims_by_percentile(99.0);
  }();
  if (victims.empty()) {
    state.SkipWithError("no victims");
    return;
  }
  for (auto _ : state) {
    const auto ds = diag.diagnose_all(victims);
    benchmark::DoNotOptimize(ds.data());
  }
  state.counters["victims"] = static_cast<double>(victims.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(victims.size()));
}
BENCHMARK(BM_DiagnoseAllThreads)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_EndToEndThreads(benchmark::State& state) {
  Fixture& f = fixture();
  const unsigned threads = static_cast<unsigned>(state.range(0));
  const auto ropt = options_for(threads);
  core::DiagnoserOptions dopt;
  dopt.parallel.num_threads = threads;
  std::size_t relations = 0;
  for (auto _ : state) {
    const auto rt = trace::reconstruct(f.col, f.graph, ropt);
    const core::Diagnoser diag(rt, f.net.topo->peak_rates(), dopt);
    const auto victims = diag.latency_victims_by_percentile(99.0);
    const auto ds = diag.diagnose_all(victims);
    relations = 0;
    for (const auto& d : ds) relations += d.relations.size();
    benchmark::DoNotOptimize(ds.data());
  }
  state.counters["relations"] = static_cast<double>(relations);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.packets));
}
BENCHMARK(BM_EndToEndThreads)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

MICROSCOPE_BENCH_MAIN("overhead_parallel");
