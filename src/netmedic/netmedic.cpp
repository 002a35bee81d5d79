#include "netmedic/netmedic.hpp"

#include <algorithm>
#include <cmath>
#include <deque>

namespace microscope::netmedic {
namespace {

constexpr int kNumMetrics = 5;
/// Metrics visible to NetMedic's abnormality test (cpu, in_rate, out_rate).
constexpr int kRankedMetrics = 3;

double metric_at(const MetricRow& r, int m) {
  switch (m) {
    case 0:
      return r.cpu_util;
    case 1:
      return r.in_rate;
    case 2:
      return r.out_rate;
    case 3:
      return r.queue_len;
    case 4:
      return r.drops;
  }
  return 0.0;
}

}  // namespace

NetMedic::NetMedic(const trace::ReconstructedTrace& rt,
                   const std::vector<std::vector<Interval>>& busy,
                   NetMedicOptions opts)
    : graph_(&rt.graph()), opts_(opts) {
  const std::size_t n = graph_->node_count();

  // End of the observation: latest read or arrival anywhere.
  TimeNs t_end = 0;
  for (NodeId id = 0; id < n; ++id) {
    if (!rt.has_timeline(id)) continue;
    const auto& tl = rt.timeline(id);
    if (!tl.reads.empty()) t_end = std::max(t_end, tl.reads.back().ts);
    if (!tl.arrivals.empty()) t_end = std::max(t_end, tl.arrivals.back().t);
  }
  windows_ = static_cast<std::size_t>(t_end / opts_.window) + 1;
  metrics_.assign(n, std::vector<MetricRow>(windows_));

  auto window_of = [&](TimeNs t) {
    return std::min(windows_ - 1,
                    static_cast<std::size_t>(std::max<TimeNs>(0, t) /
                                             opts_.window));
  };

  for (NodeId d = 0; d < n; ++d) {
    if (!rt.has_timeline(d)) continue;
    const auto& tl = rt.timeline(d);
    auto& rows = metrics_[d];
    for (const trace::Arrival& a : tl.arrivals) {
      const std::size_t w = window_of(a.t);
      rows[w].in_rate += 1.0;
      if (!rt.accepted(a)) rows[w].drops += 1.0;
      if (a.from < n && graph_->is_source(a.from))
        metrics_[a.from][w].out_rate += 1.0;
    }
    for (std::size_t r = 0; r < tl.reads.size(); ++r)
      rows[window_of(tl.reads[r].ts)].out_rate +=
          static_cast<double>(tl.reads[r].count);

    // Peak backlog within each window (merge-scan of arrivals/reads).
    std::size_t ai = 0;
    std::size_t ri = 0;
    std::int64_t backlog = 0;
    for (std::size_t w = 0; w < windows_; ++w) {
      const TimeNs boundary = static_cast<TimeNs>(w + 1) * opts_.window;
      std::int64_t peak = backlog;
      while (true) {
        const TimeNs ta =
            ai < tl.arrivals.size() ? tl.arrivals[ai].t : kTimeNever;
        const TimeNs tr = ri < tl.reads.size() ? tl.reads[ri].ts : kTimeNever;
        const TimeNs next = std::min(ta, tr);
        if (next > boundary || next == kTimeNever) break;
        if (ta <= tr) {
          if (rt.accepted(tl.arrivals[ai])) ++backlog;
          ++ai;
        } else {
          backlog = std::max<std::int64_t>(0, backlog - tl.reads[ri].count);
          ++ri;
        }
        peak = std::max(peak, backlog);
      }
      rows[w].queue_len = static_cast<double>(peak);
    }
  }

  // CPU usage from the host-level busy intervals.
  for (NodeId id = 0; id < n && id < busy.size(); ++id) {
    for (const Interval& iv : busy[id]) {
      TimeNs s = iv.start;
      while (s < iv.end) {
        const std::size_t w = window_of(s);
        const TimeNs boundary = static_cast<TimeNs>(w + 1) * opts_.window;
        const TimeNs e = std::min(iv.end, boundary);
        metrics_[id][w].cpu_util +=
            static_cast<double>(e - s) / static_cast<double>(opts_.window);
        s = e;
      }
    }
  }

  // Per-node, per-metric moments over the whole history.
  moments_.assign(n, Moments{});
  for (NodeId id = 0; id < n; ++id) {
    for (int m = 0; m < kNumMetrics; ++m) {
      double sum = 0, sumsq = 0;
      for (std::size_t w = 0; w < windows_; ++w) {
        const double x = metric_at(metrics_[id][w], m);
        sum += x;
        sumsq += x * x;
      }
      const double nw = static_cast<double>(windows_);
      const double mean = sum / nw;
      moments_[id].mean[m] = mean;
      moments_[id].std[m] =
          std::sqrt(std::max(0.0, sumsq / nw - mean * mean));
    }
  }

  // Abnormality cache.
  abn_.assign(n, std::vector<double>(windows_, 0.0));
  for (NodeId id = 0; id < n; ++id)
    for (std::size_t w = 0; w < windows_; ++w) {
      double worst = 0.0;
      for (int m = 0; m < kRankedMetrics; ++m) {
        const double sd = moments_[id].std[m];
        if (sd <= 1e-12) continue;
        const double z =
            std::abs(metric_at(metrics_[id][w], m) - moments_[id].mean[m]) /
            sd;
        worst = std::max(worst, z);
      }
      abn_[id][w] = worst >= opts_.abnormal_k ? worst : 0.0;
    }

  // Influence cache (same-window abnormality correlation per pair).
  infl_.assign(n, std::vector<double>(n, 0.0));
  for (NodeId c = 0; c < n; ++c) {
    for (NodeId d = 0; d < n; ++d) {
      double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
      for (std::size_t w = 0; w < windows_; ++w) {
        const double x = abn_[c][w];
        const double y = abn_[d][w];
        sx += x;
        sy += y;
        sxx += x * x;
        syy += y * y;
        sxy += x * y;
      }
      const double nw = static_cast<double>(windows_);
      const double cov = sxy / nw - (sx / nw) * (sy / nw);
      const double vx = sxx / nw - (sx / nw) * (sx / nw);
      const double vy = syy / nw - (sy / nw) * (sy / nw);
      infl_[c][d] =
          (vx <= 1e-12 || vy <= 1e-12) ? 0.0 : cov / std::sqrt(vx * vy);
    }
  }

  // DAG distances (downstream hops from c to d).
  dist_.assign(n, std::vector<int>(n, -1));
  for (NodeId c = 0; c < n; ++c) {
    std::deque<NodeId> q{c};
    dist_[c][c] = 0;
    while (!q.empty()) {
      const NodeId x = q.front();
      q.pop_front();
      if (x >= graph_->downstreams.size()) continue;
      for (NodeId y : graph_->downstreams[x]) {
        if (y < n && dist_[c][y] < 0) {
          dist_[c][y] = dist_[c][x] + 1;
          q.push_back(y);
        }
      }
    }
  }
}

double NetMedic::abnormality(NodeId node, std::size_t w) const {
  return w < windows_ ? abn_[node][w] : 0.0;
}

double NetMedic::influence(NodeId c, NodeId d) const { return infl_[c][d]; }

int NetMedic::dag_distance(NodeId c, NodeId d) const { return dist_[c][d]; }

std::vector<RankedComponent> NetMedic::diagnose(NodeId victim_node,
                                                TimeNs t) const {
  std::vector<RankedComponent> out;
  if (victim_node >= dist_.size()) return out;
  const std::size_t w = std::min(
      windows_ - 1, static_cast<std::size_t>(std::max<TimeNs>(0, t) /
                                             opts_.window));
  for (NodeId c = 0; c < dist_.size(); ++c) {
    if (graph_->kinds[c] == trace::NodeKind::kSink) continue;
    const int dd = dag_distance(c, victim_node);
    if (dd < 0) continue;  // no path to the victim
    double score;
    if (c == victim_node) {
      score = abnormality(c, w);
    } else {
      const double infl = std::max(0.0, influence(c, victim_node));
      score = abnormality(c, w) * infl * std::pow(opts_.hop_decay, dd);
    }
    // NetMedic gives every reachable component *some* rank.
    out.push_back({c, score});
  }
  std::sort(out.begin(), out.end(),
            [](const RankedComponent& a, const RankedComponent& b) {
              return a.score > b.score;
            });
  return out;
}

}  // namespace microscope::netmedic
