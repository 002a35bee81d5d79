// Victim selection (paper §4, §5: latency above a threshold/percentile,
// throughput below a threshold, or packet loss).
#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/stats.hpp"
#include "core/diagnosis.hpp"
#include "obs/tracing.hpp"

namespace microscope::core {

using trace::Fate;
using trace::Journey;

namespace {

/// Per-NF hop latency statistics over all delivered packets — the "recent
/// history" the abnormality test compares against. Empty at k = +inf (the
/// streaming default): a finite sigma never exceeds it, so no hop can test
/// abnormal and the statistics could not change any anchor.
std::vector<RunningStats> hop_stats(const trace::ReconstructedTrace& rt,
                                    double k) {
  if (k == std::numeric_limits<double>::infinity()) return {};
  std::vector<RunningStats> stats(rt.graph().node_count());
  for (const std::uint32_t jid : rt.journey_order()) {
    const Journey& j = rt.journey(jid);
    if (j.fate != Fate::kDelivered) continue;
    for (const trace::Hop& h : j.hops) {
      if (!h.has_latency()) continue;
      stats[h.node].add(static_cast<double>(*h.latency()));
    }
  }
  return stats;
}

/// Anchor a latency victim at the hop whose local latency is most abnormal
/// (beyond k sigma); falls back to the highest-latency hop. `stats` comes
/// from hop_stats(rt, k); when it is empty no hop tests abnormal.
Victim victim_at_worst_hop(const trace::ReconstructedTrace& rt,
                           std::uint32_t jid,
                           const std::vector<RunningStats>& stats, double k) {
  const Journey& j = rt.journey(jid);
  Victim v;
  v.journey = jid;
  v.kind = Victim::Kind::kHighLatency;
  v.flow = j.flow;
  v.e2e_latency = j.e2e_latency();

  // Among the hops whose local latency is abnormal (beyond k sigma of that
  // NF's history, §4.1), anchor at the one with the largest absolute
  // latency; fall back to the max-latency hop when none tests abnormal.
  const trace::Hop* best = nullptr;
  const trace::Hop* max_lat = nullptr;
  for (const trace::Hop& h : j.hops) {
    if (!h.has_latency()) continue;
    const DurationNs lat = *h.latency();
    if (!max_lat || lat > *max_lat->latency()) max_lat = &h;
    if (stats.empty()) continue;
    const RunningStats& s = stats[h.node];
    if (s.count() < 2 || s.stddev() <= 0.0) continue;
    const double sigma = (static_cast<double>(lat) - s.mean()) / s.stddev();
    if (sigma > k && (!best || lat > *best->latency())) {
      best = &h;
    }
  }
  const trace::Hop* anchor = best ? best : max_lat;
  if (anchor) {
    v.node = anchor->node;
    v.time = anchor->arrival;
    v.hop_latency = *anchor->latency();
  }
  return v;
}

}  // namespace

std::vector<Victim> Diagnoser::latency_victims_by_percentile(double pct) const {
  std::vector<double> lats;
  for (const std::uint32_t jid : rt_->journey_order()) {
    const Journey& j = rt_->journey(jid);
    if (j.fate == Fate::kDelivered)
      lats.push_back(static_cast<double>(j.e2e_latency()));
  }
  if (lats.empty()) return {};
  const double thr = percentile(lats, pct);
  return latency_victims_by_threshold(static_cast<DurationNs>(thr));
}

std::vector<Victim> Diagnoser::latency_victims_by_threshold(
    DurationNs threshold) const {
  obs::TraceSpan span("core", "victims.latency");
  const auto stats = hop_stats(*rt_, opts_.abnormal_stddev_k);
  std::vector<Victim> out;
  for (const std::uint32_t jid : rt_->journey_order()) {
    const Journey& j = rt_->journey(jid);
    if (j.fate != Fate::kDelivered) continue;
    if (j.e2e_latency() < threshold) continue;
    Victim v = victim_at_worst_hop(*rt_, jid, stats, opts_.abnormal_stddev_k);
    if (v.node == kInvalidNode) continue;
    out.push_back(v);
  }
  span.set_items(out.size());
  return out;
}

std::vector<Victim> Diagnoser::drop_victims() const {
  obs::TraceSpan span("core", "victims.drops");
  std::vector<Victim> out;
  for (const std::uint32_t jid : rt_->journey_order()) {
    const Journey& j = rt_->journey(jid);
    if (j.fate != Fate::kDroppedQueue && j.fate != Fate::kDroppedPolicy)
      continue;
    if (j.hops.empty()) continue;
    Victim v;
    v.journey = jid;
    v.kind = Victim::Kind::kDropped;
    v.flow = j.flow;
    v.node = j.end_node;
    v.time = j.hops.back().arrival;
    out.push_back(v);
  }
  span.set_items(out.size());
  return out;
}

std::vector<Victim> Diagnoser::connection_stall_victims(
    DurationNs stall_gap, std::size_t min_packets) const {
  obs::TraceSpan span("core", "victims.connection_stall");
  // Delivered TCP packets grouped per connection (pre-NAT five-tuple).
  struct Entry {
    std::uint32_t jid;
    TimeNs sent;
    TimeNs done;
  };
  std::unordered_map<FiveTuple, std::vector<Entry>, FiveTupleHash> conns;
  for (const std::uint32_t jid : rt_->journey_order()) {
    const Journey& j = rt_->journey(jid);
    if (j.fate != Fate::kDelivered) continue;
    if (j.flow.proto != static_cast<std::uint8_t>(IpProto::kTcp)) continue;
    conns[j.flow].push_back({jid, j.source_time, j.hops.back().depart});
  }

  const auto stats = hop_stats(*rt_, opts_.abnormal_stddev_k);
  std::vector<Victim> out;
  for (auto& [flow, pkts] : conns) {
    if (pkts.size() < min_packets) continue;
    std::sort(pkts.begin(), pkts.end(),
              [](const Entry& a, const Entry& b) { return a.done < b.done; });
    for (std::size_t i = 1; i < pkts.size(); ++i) {
      const DurationNs done_gap = pkts[i].done - pkts[i - 1].done;
      if (done_gap < stall_gap) continue;
      // The sender kept going: the stall is the network's fault, not an
      // idle connection. Compare source-side spacing over the same pair.
      const DurationNs sent_gap = std::max<DurationNs>(
          0, pkts[i].sent - pkts[i - 1].sent);
      if (sent_gap > stall_gap / 4) continue;
      Victim v = victim_at_worst_hop(*rt_, pkts[i].jid, stats,
                                     opts_.abnormal_stddev_k);
      if (v.node == kInvalidNode) continue;
      v.kind = Victim::Kind::kConnectionStall;
      v.hop_latency = std::max(v.hop_latency, done_gap);
      out.push_back(v);
    }
  }
  // Deterministic output order regardless of hash-map iteration.
  std::sort(out.begin(), out.end(), [](const Victim& a, const Victim& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.journey < b.journey;
  });
  span.set_items(out.size());
  return out;
}

std::vector<Victim> Diagnoser::in_nf_delay_victims(DurationNs threshold) const {
  obs::TraceSpan span("core", "victims.in_nf_delay");
  std::vector<Victim> out;
  for (const std::uint32_t jid : rt_->journey_order()) {
    const Journey& j = rt_->journey(jid);
    for (const trace::Hop& h : j.hops) {
      if (h.depart == kTimeNever || h.read == kTimeNever) continue;
      const DurationNs inside = h.depart - h.read;
      if (inside < threshold) continue;
      Victim v;
      v.journey = jid;
      v.kind = Victim::Kind::kInNfDelay;
      v.flow = j.flow;
      v.node = h.node;
      v.time = h.arrival;
      v.hop_latency = inside;
      v.e2e_latency = j.e2e_latency();
      out.push_back(v);
    }
  }
  span.set_items(out.size());
  return out;
}

std::vector<Victim> Diagnoser::throughput_victims(const FiveTuple& flow,
                                                  DurationNs window,
                                                  double min_rate_pps) const {
  obs::TraceSpan span("core", "victims.throughput");
  // Bucket the flow's deliveries into fixed windows; packets inside
  // under-rate windows become victims.
  struct Entry {
    std::uint32_t jid;
    TimeNs done;
  };
  std::vector<Entry> pkts;
  for (const std::uint32_t jid : rt_->journey_order()) {
    const Journey& j = rt_->journey(jid);
    if (j.fate != Fate::kDelivered || !(j.flow == flow)) continue;
    pkts.push_back({jid, j.hops.back().depart});
  }
  if (pkts.empty()) return {};
  std::sort(pkts.begin(), pkts.end(),
            [](const Entry& a, const Entry& b) { return a.done < b.done; });

  const auto stats = hop_stats(*rt_, opts_.abnormal_stddev_k);
  const double min_per_window =
      min_rate_pps * to_sec(window);
  std::vector<Victim> out;
  std::size_t i = 0;
  while (i < pkts.size()) {
    const TimeNs w0 = pkts[i].done - pkts[i].done % window;
    std::size_t jdx = i;
    while (jdx < pkts.size() && pkts[jdx].done < w0 + window) ++jdx;
    if (static_cast<double>(jdx - i) < min_per_window) {
      for (std::size_t k = i; k < jdx; ++k) {
        Victim v = victim_at_worst_hop(*rt_, pkts[k].jid, stats,
                                       opts_.abnormal_stddev_k);
        if (v.node == kInvalidNode) continue;
        v.kind = Victim::Kind::kLowThroughput;
        out.push_back(v);
      }
    }
    i = jdx;
  }
  span.set_items(out.size());
  return out;
}

}  // namespace microscope::core
