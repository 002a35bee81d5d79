// Determinism harness for the parallel analysis pipeline: parallel
// reconstruction and diagnosis must be *identical* — every journey, hop,
// timeline entry, alignment, stat, and causal relation — to a sequential
// run of the same collector records. The scenarios cover multi-hop
// delivery, queue drops, policy-free interrupt propagation, and a
// randomized-seed property sweep.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/diagnosis.hpp"
#include "eval/scenarios.hpp"
#include "nf/generate.hpp"
#include "nf/inject.hpp"
#include "nf/traffic.hpp"
#include "sim/simulator.hpp"
#include "trace/graph.hpp"
#include "trace/reconstruct.hpp"

namespace microscope::trace {
namespace {

using core::Diagnoser;
using core::DiagnoserOptions;
using core::Diagnosis;
using core::Victim;

void expect_trace_identical(const ReconstructedTrace& a,
                            const ReconstructedTrace& b) {
  EXPECT_EQ(a.align_stats(), b.align_stats());
  ASSERT_EQ(a.alignments().size(), b.alignments().size());
  for (std::size_t i = 0; i < a.alignments().size(); ++i)
    EXPECT_EQ(a.alignments()[i], b.alignments()[i]) << "alignment node " << i;

  ASSERT_EQ(a.journeys().size(), b.journeys().size());
  for (std::size_t i = 0; i < a.journeys().size(); ++i)
    EXPECT_EQ(a.journeys()[i], b.journeys()[i]) << "journey " << i;

  for (NodeId id = 0; id < a.graph().node_count(); ++id) {
    EXPECT_EQ(a.has_timeline(id), b.has_timeline(id)) << "node " << id;
    EXPECT_EQ(a.timeline(id), b.timeline(id)) << "timeline node " << id;
  }
}

/// Reconstruct sequentially and at 2/4/8 threads; every parallel trace and
/// every parallel diagnosis of `victims_of(seq_diagnoser)` must match the
/// sequential result exactly.
void check_scenario(
    const collector::Collector& col, const GraphView& graph,
    DurationNs prop_delay, const std::vector<RatePerNs>& rates,
    const std::function<std::vector<Victim>(const Diagnoser&)>& victims_of) {
  ReconstructOptions ropt;
  ropt.prop_delay = prop_delay;
  const ReconstructedTrace seq = reconstruct(col, graph, ropt);

  const Diagnoser seq_diag(seq, rates);
  const std::vector<Victim> victims = victims_of(seq_diag);
  ASSERT_FALSE(victims.empty()) << "scenario produced no victims";
  // diagnose_all with default (sequential) options == per-victim diagnose.
  std::vector<Diagnosis> golden;
  golden.reserve(victims.size());
  for (const Victim& v : victims) golden.push_back(seq_diag.diagnose(v));
  EXPECT_TRUE(seq_diag.diagnose_all(victims) == golden);

  for (const unsigned threads : {2u, 4u, 8u}) {
    ReconstructOptions p = ropt;
    p.parallel.num_threads = threads;
    const ReconstructedTrace par = reconstruct(col, graph, p);
    expect_trace_identical(seq, par);

    DiagnoserOptions dopt;
    dopt.parallel.num_threads = threads;
    const Diagnoser par_diag(par, rates, dopt);
    EXPECT_TRUE(victims_of(par_diag) == victims) << threads << " threads";
    const std::vector<Diagnosis> got = par_diag.diagnose_all(victims);
    ASSERT_EQ(got.size(), golden.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(got[i] == golden[i], true)
          << "diagnosis " << i << " differs at " << threads << " threads";
  }
}

std::vector<Victim> latency_victims(const Diagnoser& d, DurationNs thr) {
  return d.latency_victims_by_threshold(thr);
}

TEST(Parallel, Fig10MultiHopEquivalence) {
  // The fig11 workload topology: 16 NFs, NAT rewrites, load balancing,
  // an injected interrupt for real victims.
  sim::Simulator sim;
  collector::Collector col;
  auto net = eval::build_fig10(sim, &col);
  nf::CaidaLikeOptions topts;
  topts.duration = 12_ms;
  topts.rate_mpps = 1.0;
  topts.num_flows = 300;
  net.topo->source(net.source).load(nf::generate_caida_like(topts));
  nf::InjectionLog log;
  nf::schedule_interrupt(sim, net.topo->nf(net.nats[0]), 4_ms, 600_us, log);
  sim.run_until(30_ms);

  check_scenario(col, graph_view(*net.topo), net.topo->options().prop_delay,
                 net.topo->peak_rates(), [](const Diagnoser& d) {
                   return latency_victims(d, 100_us);
                 });
}

TEST(Parallel, Fig2PropagationEquivalence) {
  // Interrupt at the NAT, victims at the VPN: exercises the recursive
  // propagation path of diagnose() under the pool.
  sim::Simulator sim;
  collector::Collector col;
  auto net = eval::build_fig2(sim, &col);
  nf::CaidaLikeOptions topts;
  topts.duration = 25_ms;
  topts.rate_mpps = 0.7;
  topts.seed = 3;
  net.topo->source(net.caida_source).load(nf::generate_caida_like(topts));
  const FiveTuple flow_a{make_ipv4(10, 0, 1, 1), make_ipv4(20, 0, 1, 1),
                         4242, 443, 6};
  net.topo->source(net.flow_a_source)
      .load(nf::generate_constant_rate(flow_a, 0, 25_ms, 0.05));
  nf::InjectionLog log;
  nf::schedule_interrupt(sim, net.topo->nf(net.nat), 10_ms, 800_us, log);
  sim.run_until(40_ms);

  check_scenario(col, graph_view(*net.topo), net.topo->options().prop_delay,
                 net.topo->peak_rates(), [](const Diagnoser& d) {
                   return latency_victims(d, 60_us);
                 });
}

TEST(Parallel, QueueOverflowDropEquivalence) {
  // A hard burst overflowing the single firewall's queue: drop journeys,
  // pseudo-hops, and drop-victim diagnosis must all reproduce.
  sim::Simulator sim;
  collector::Collector col;
  auto net = eval::build_single_firewall(sim, &col);
  const FiveTuple f{make_ipv4(10, 0, 0, 1), make_ipv4(20, 0, 0, 1), 1001, 80,
                    6};
  net.topo->source(net.source)
      .load(nf::generate_constant_rate(f, 1_ms, 1_ms, 8.0));
  sim.run_until(100_ms);
  ASSERT_GT(net.topo->nf(net.nf).input_drops(), 100u);

  check_scenario(col, graph_view(*net.topo), net.topo->options().prop_delay,
                 net.topo->peak_rates(),
                 [](const Diagnoser& d) { return d.drop_victims(); });
}

TEST(Parallel, RandomizedSeedsPropertyEquivalence) {
  // Property: for many traffic seeds, the full Diagnosis vector of every
  // latency victim is identical between the sequential and a 3-thread run.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    sim::Simulator sim;
    collector::Collector col;
    auto net = eval::build_single_firewall(sim, &col, /*service_ns=*/700,
                                           /*jitter_sigma=*/0.05);
    nf::CaidaLikeOptions topts;
    topts.duration = 6_ms;
    topts.rate_mpps = 0.9 + 0.05 * static_cast<double>(seed % 4);
    topts.num_flows = 100 + 30 * static_cast<std::size_t>(seed);
    topts.seed = seed;
    net.topo->source(net.source).load(nf::generate_caida_like(topts));
    nf::InjectionLog log;
    nf::schedule_interrupt(sim, net.topo->nf(net.nf),
                           2_ms + static_cast<TimeNs>(seed) * 100_us, 400_us,
                           log);
    sim.run_until(20_ms);

    ReconstructOptions ropt;
    ropt.prop_delay = net.topo->options().prop_delay;
    const auto seq = reconstruct(col, graph_view(*net.topo), ropt);
    ReconstructOptions p = ropt;
    p.parallel.num_threads = 3;
    const auto par = reconstruct(col, graph_view(*net.topo), p);
    expect_trace_identical(seq, par);

    const Diagnoser ds(seq, net.topo->peak_rates());
    DiagnoserOptions dopt;
    dopt.parallel.num_threads = 3;
    const Diagnoser dp(par, net.topo->peak_rates(), dopt);
    const auto victims = ds.latency_victims_by_threshold(50_us);
    EXPECT_FALSE(victims.empty()) << "seed " << seed;
    EXPECT_TRUE(dp.diagnose_all(victims) == ds.diagnose_all(victims))
        << "seed " << seed;
  }
}

TEST(Parallel, Fig10Seed11Equivalence) {
  sim::Simulator sim;
  collector::Collector col;
  auto net = eval::build_fig10(sim, &col);
  nf::CaidaLikeOptions topts;
  topts.duration = 12_ms;
  topts.rate_mpps = 1.0;
  topts.num_flows = 300;
  topts.seed = 11;
  net.topo->source(net.source).load(nf::generate_caida_like(topts));
  nf::InjectionLog log;
  nf::schedule_interrupt(sim, net.topo->nf(net.nats[0]), 4_ms, 600_us, log);
  sim.run_until(30_ms);

  check_scenario(col, graph_view(*net.topo), net.topo->options().prop_delay,
                 net.topo->peak_rates(), [](const Diagnoser& d) {
                   return latency_victims(d, 100_us);
                 });
}

TEST(Parallel, Generated200NfRandomDagEquivalence) {
  // A 200-NF random DAG: wide fan-in nodes produce many interleaved
  // per-peer streams into one alignment loop.
  sim::Simulator sim;
  collector::Collector col;
  nf::TopologyGenOptions o;
  o.shape = nf::GenShape::kRandomDag;
  o.num_nfs = 200;
  o.layers = 10;
  o.max_fanout = 4;
  o.offered_rate_mpps = 0.8;
  o.seed = 7;
  auto g = nf::generate_topology(sim, &col, o);
  nf::CaidaLikeOptions topts;
  topts.duration = 5_ms;
  topts.rate_mpps = 0.8;
  topts.num_flows = 250;
  topts.seed = 9;
  g.topo->source(g.source).load(nf::generate_caida_like(topts));
  nf::InjectionLog log;
  nf::schedule_interrupt(sim, g.topo->nf(g.entry_nfs.front()), 2_ms, 500_us,
                         log);
  sim.run_until(40_ms);

  check_scenario(col, graph_view(*g.topo), g.topo->options().prop_delay,
                 g.topo->peak_rates(), [](const Diagnoser& d) {
                   return latency_victims(d, 50_us);
                 });
}

TEST(Parallel, ThreadPoolCoversEveryIndexOnce) {
  ThreadPool pool(4);
  for (const std::size_t n :
       std::vector<std::size_t>{0, 1, 7, 1000, 4096}) {
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i)
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(Parallel, ThreadPoolLatchOutlivesLastCountDown) {
  // Each fan-out's body lives on the caller's stack. A worker woken for
  // one fan-out may only get the CPU once it has returned and the next
  // one has opened; it must then run the new body, never the old one.
  // Many short fan-outs of four one-item chunks race that hand-off often
  // enough for TSan to catch a stale body being touched.
  ThreadPool pool(3);
  constexpr std::size_t kCalls = 5000;
  std::atomic<std::size_t> total{0};
  for (std::size_t call = 0; call < kCalls; ++call) {
    pool.parallel_for(4, [&, call](std::size_t b, std::size_t e) {
      total.fetch_add((e - b) * (call + 1), std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 4 * kCalls * (kCalls + 1) / 2);
}

TEST(Parallel, ThreadPoolRunsOnWorkersPlusCaller) {
  // ThreadPool(N) starts N workers and the caller runs chunks too.
  for (const unsigned n : {2u, 4u}) {
    ThreadPool pool(n);
    std::mutex m;
    std::set<std::thread::id> ids;
    for (int call = 0; call < 200; ++call) {
      pool.parallel_for(64, [&](std::size_t, std::size_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        std::lock_guard<std::mutex> lk(m);
        ids.insert(std::this_thread::get_id());
      });
    }
    EXPECT_LE(ids.size(), n + 1) << n << " workers";
    EXPECT_GE(ids.size(), 2u) << n << " workers";
  }
}

TEST(Parallel, ThreadPoolNestedCallsRunInline) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t b, std::size_t e) {
    // Nested fan-out from inside a task must not deadlock.
    pool.parallel_for(e - b, [&](std::size_t ib, std::size_t ie) {
      total.fetch_add(static_cast<int>(ie - ib), std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 8);
}

}  // namespace
}  // namespace microscope::trace
