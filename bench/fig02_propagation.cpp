// Figure 2: impact propagation across NFs.
//
// Paper setup: CAIDA -> NAT -> VPN, plus flow A straight into the VPN. The
// NAT takes a CPU interrupt during [0.5 ms, 1.3 ms]. Paper result: flow A's
// throughput at the VPN collapses during [1.5 ms, 2.3 ms] — after the
// interrupt — because the NAT's post-interrupt burst builds the VPN queue.
#include <algorithm>
#include <iostream>

#include "bench_util.hpp"

using namespace microscope;

namespace {
FiveTuple flow_a() {
  return {make_ipv4(10, 0, 1, 1), make_ipv4(20, 0, 1, 1), 4242, 443, 6};
}
}  // namespace

int main() {
  std::cout << "# Fig 2 — NAT interrupt degrades flow A at the VPN\n";

  sim::Simulator sim;
  collector::Collector col;
  auto net = eval::build_fig2(sim, &col);

  nf::CaidaLikeOptions topts;
  topts.duration = 4_ms;
  topts.rate_mpps = 0.8;
  topts.seed = 2;
  net.topo->source(net.caida_source).load(nf::generate_caida_like(topts));
  net.topo->source(net.flow_a_source)
      .load(nf::generate_constant_rate(flow_a(), 0, 4_ms, 0.1));

  nf::InjectionLog log;
  nf::schedule_interrupt(sim, net.topo->nf(net.nat), 500_us, 800_us, log);
  sim.run_until(8_ms);

  trace::ReconstructOptions ropt;
  ropt.prop_delay = net.topo->options().prop_delay;
  const auto rt = trace::reconstruct(col, trace::graph_view(*net.topo), ropt);

  // (b) throughput at the VPN per 0.2 ms bin: flow A vs traffic from NAT.
  constexpr DurationNs kBin = 200_us;
  std::vector<double> a_out(25, 0.0), nat_out(25, 0.0);
  for (const trace::Journey& j : rt.journeys()) {
    if (j.fate != trace::Fate::kDelivered) continue;
    const trace::Hop& vpn_hop = j.hops.back();
    const auto bin = static_cast<std::size_t>(vpn_hop.depart / kBin);
    if (bin >= a_out.size()) continue;
    if (j.flow == flow_a()) {
      a_out[bin] += 1.0;
    } else {
      nat_out[bin] += 1.0;
    }
  }
  std::vector<std::pair<double, double>> a_series, nat_series;
  for (std::size_t b = 0; b < a_out.size(); ++b) {
    const double t = to_ms(static_cast<TimeNs>(b) * kBin);
    // packets per bin -> Mpps.
    a_series.push_back({t, a_out[b] / (to_us(kBin) * 1.0) });
    nat_series.push_back({t, nat_out[b] / (to_us(kBin) * 1.0)});
  }
  eval::print_series(std::cout, "(b1) flow A throughput at the VPN",
                     "time (ms)", "Mpps", a_series);
  std::cout << "\n";
  eval::print_series(std::cout, "(b2) NAT traffic throughput at the VPN",
                     "time (ms)", "Mpps", nat_series);

  // (c) queue length at the VPN.
  const auto& tl = rt.timeline(net.vpn);
  std::vector<std::pair<double, double>> q_series;
  std::size_t ai = 0, ri = 0;
  std::int64_t backlog = 0;
  for (TimeNs t = 0; t <= 5_ms; t += 100_us) {
    std::int64_t peak = backlog;
    while (ai < tl.arrivals.size() && tl.arrivals[ai].t <= t) {
      if (rt.accepted(tl.arrivals[ai])) ++backlog;
      ++ai;
      peak = std::max(peak, backlog);
    }
    while (ri < tl.reads.size() && tl.reads[ri].ts <= t) {
      backlog = std::max<std::int64_t>(0, backlog - tl.reads[ri].count);
      ++ri;
    }
    q_series.push_back({to_ms(t), static_cast<double>(peak)});
  }
  std::cout << "\n";
  eval::print_series(std::cout, "(c) queue length at the VPN", "time (ms)",
                     "queue (pkts)", q_series);

  // Microscope's verdict on flow A victims after the interrupt.
  core::Diagnoser diag(rt, net.topo->peak_rates());
  std::size_t nat_blamed = 0, total = 0;
  for (const core::Victim& v : diag.latency_victims_by_threshold(50_us)) {
    if (!(v.flow == flow_a()) || v.node != net.vpn) continue;
    ++total;
    const auto ranked = core::rank_causes(diag.diagnose(v));
    if (!ranked.empty() && ranked[0].culprit.node == net.nat) ++nat_blamed;
  }
  std::cout << "\nMicroscope blames the NAT for " << nat_blamed << "/" << total
            << " delayed flow-A packets at the VPN\n";
  std::cout << "# paper: flow A dips in [1.5,2.3] ms, after the NAT's\n"
               "# interrupt in [0.5,1.3] ms — no temporal overlap\n";
  return 0;
}
