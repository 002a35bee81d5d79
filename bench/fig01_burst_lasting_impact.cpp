// Figure 1: the lasting impact of a microsecond-scale traffic burst.
//
// Paper setup: CAIDA traffic into a firewall; at 570 us a bursty flow
// lasting 340 us is injected. Paper result: (a) packets arriving for the
// next ~3 ms still see hundreds of microseconds of latency; (b) the queue
// builds up almost instantly but takes ~3 ms to drain.
#include <algorithm>
#include <iostream>

#include "bench_util.hpp"

using namespace microscope;

int main() {
  std::cout << "# Fig 1 — lasting impact of a 340 us burst on a firewall\n";

  sim::Simulator sim;
  collector::Collector col;
  auto net = eval::build_single_firewall(sim, &col, /*service_ns=*/700);

  nf::CaidaLikeOptions topts;
  topts.duration = 6_ms;
  topts.rate_mpps = 0.9;  // ~63% of the firewall's 1.43 Mpps peak
  topts.num_flows = 600;
  topts.seed = 570;
  auto traffic = nf::generate_caida_like(topts);

  // The burst: starts at 570 us, lasts ~340 us (2833 packets at 120 ns).
  FiveTuple burst{make_ipv4(10, 9, 9, 9), make_ipv4(172, 16, 1, 1), 5555, 443,
                  6};
  nf::inject_burst(traffic, burst, 570_us, 2833, 120, 1);
  net.topo->source(net.source).load(std::move(traffic));
  sim.run_until(10_ms);

  trace::ReconstructOptions ropt;
  ropt.prop_delay = net.topo->options().prop_delay;
  const auto rt = trace::reconstruct(col, trace::graph_view(*net.topo), ropt);

  // (a) packet latency at the firewall vs arrival time (100 us bins; max).
  const auto& tl = rt.timeline(net.nf);
  constexpr DurationNs kBin = 100_us;
  std::vector<double> lat_max(60, 0.0);
  for (const trace::Journey& j : rt.journeys()) {
    if (j.fate != trace::Fate::kDelivered) continue;
    const trace::Hop& h = j.hops[0];
    const auto bin = static_cast<std::size_t>(h.arrival / kBin);
    if (bin < lat_max.size())
      lat_max[bin] = std::max(lat_max[bin], to_us(h.latency().value_or(0)));
  }
  std::vector<std::pair<double, double>> lat_series;
  for (std::size_t b = 0; b < lat_max.size(); ++b)
    lat_series.push_back({to_ms(static_cast<TimeNs>(b) * kBin), lat_max[b]});
  eval::print_series(std::cout, "(a) packet latency at the firewall",
                     "time (ms)", "max latency (us)", lat_series);

  // (b) queue length vs time (merge-scan of arrivals and reads).
  std::vector<std::pair<double, double>> q_series;
  std::size_t ai = 0, ri = 0;
  std::int64_t backlog = 0;
  for (TimeNs t = 0; t <= 6_ms; t += kBin) {
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
  eval::print_series(std::cout, "(b) queue length at the firewall",
                     "time (ms)", "queue length (pkts)", q_series);

  // How long did the impact last?
  TimeNs impact_end = 0;
  for (const auto& [t, q] : q_series)
    if (q > 16.0) impact_end = static_cast<TimeNs>(t * 1e6);
  std::cout << "\nburst: [0.57 ms, ~0.91 ms]; queue elevated until ~"
            << eval::fmt_double(to_ms(impact_end), 2)
            << " ms\n# paper: ~3 ms of lasting impact from a 340 us burst\n";
  return 0;
}
