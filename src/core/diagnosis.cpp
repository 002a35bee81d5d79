#include "core/diagnosis.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <stdexcept>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/tracing.hpp"

namespace microscope::core {

using trace::Journey;
using trace::kNoJourney;
using trace::NodeTimeline;

namespace {

/// Registry handles resolved once per process; diagnose() runs per victim
/// (possibly on pool threads), so lookups must not take the registry lock.
struct DiagnoseMetrics {
  obs::Counter& victims;
  obs::Counter& no_period;
  obs::Counter& relations;
  obs::Histogram& ns;
  obs::Histogram& depth;
  obs::Histogram& relation_score;
  obs::Gauge& residual;

  static DiagnoseMetrics& get() {
    static DiagnoseMetrics m{
        obs::Registry::global().counter("core.diagnose.victims"),
        obs::Registry::global().counter("core.diagnose.no_period"),
        obs::Registry::global().counter("core.diagnose.relations"),
        obs::Registry::global().histogram("core.diagnose.total_ns"),
        obs::Registry::global().histogram("core.diagnose.depth",
                                          obs::depth_bounds()),
        obs::Registry::global().histogram("core.diagnose.relation_score",
                                          obs::score_bounds()),
        obs::Registry::global().gauge("core.diagnosis.attribution_residual")};
    return m;
  }
};

/// Propagation depth and culprit-score distribution of one finished
/// diagnosis (skipped entirely under MICROSCOPE_NO_METRICS).
void record_diagnosis(const Diagnosis& d, DiagnoseMetrics& m) {
  if constexpr (!obs::kMetricsEnabled) {
    (void)d;
    (void)m;
    return;
  }
  m.relations.add(d.relations.size());
  if (d.relations.empty()) return;
  int max_depth = 0;
  for (const CausalRelation& rel : d.relations) {
    max_depth = std::max(max_depth, rel.depth);
    m.relation_score.record(std::llround(rel.score));
  }
  m.depth.record(max_depth);
}

}  // namespace

Diagnoser::Diagnoser(const trace::ReconstructedTrace& rt,
                     std::vector<RatePerNs> peak_rates, DiagnoserOptions opts)
    : rt_(&rt), peak_rates_(std::move(peak_rates)), opts_(opts) {
  DiagnoseMetrics::get();  // the stage's names exist once a Diagnoser does
  if (peak_rates_.size() < rt.graph().node_count())
    peak_rates_.resize(rt.graph().node_count());
}

std::vector<Diagnosis> Diagnoser::diagnose_all(
    const std::vector<Victim>& victims, ThreadPool* pool,
    std::vector<Provenance>* provs) const {
  std::vector<Diagnosis> out(victims.size());
  if (provs) provs->resize(victims.size());
  const auto own = pool ? nullptr : ThreadPool::make(opts_.parallel);
  ThreadPool* p = pool ? pool : own.get();
  parallel_for_over(p, victims.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i)
      out[i] = diagnose(victims[i], provs ? &(*provs)[i] : nullptr);
  });
  return out;
}

Diagnosis Diagnoser::diagnose(const Victim& v, Provenance* prov) const {
  DiagnoseMetrics& m = DiagnoseMetrics::get();
  obs::ScopedTimer timer(m.ns);
  const auto wscope = obs::CorrelationScope::for_window(opts_.trace_window);
  const auto vscope =
      obs::CorrelationScope::for_victim(static_cast<std::int64_t>(v.journey));
  obs::TraceSpan span("core", "diagnose");
  m.victims.add();
  Diagnosis d;
  d.victim = v;
  if (prov) {
    *prov = Provenance{};
    prov->victim = v;
  }
  const NodeId f = v.node;
  if (!rt_->has_timeline(f)) {
    m.no_period.add();
    return d;
  }
  const auto period = find_queuing_period(rt_->timeline(f), v.time, opts_.period);
  if (!period) {
    m.no_period.add();
    return d;
  }

  const LocalScores ls = local_scores(rt_->timeline(f), *period, peak_rates_[f]);
  if (prov) {
    prov->found_period = true;
    prov->period_start = period->start;
    prov->period_end = period->end;
    prov->local = ls;
    prov->emitted_local = ls.s_p > opts_.min_score;
    prov->propagated = ls.s_i > opts_.min_score;
  }
  if (ls.s_p > opts_.min_score) emit_local(f, *period, ls.s_p, 0, d);
  if (ls.s_i > opts_.min_score)
    propagate(f, *period, ls.s_i, 0, v.journey, d, prov, -1);
  record_diagnosis(d, m);
  span.set_items(d.relations.size());
  return d;
}

namespace {

/// Canonical flow-weight order: weight descending, five-tuple ascending.
/// The tuple tie-break keeps relation output independent of hash-map
/// iteration order, so a windowed (online) diagnosis of the same victim is
/// byte-identical to the full-trace one.
bool flow_weight_before(const FlowWeight& a, const FlowWeight& b) {
  if (a.weight != b.weight) return a.weight > b.weight;
  return a.flow < b.flow;
}

/// Per-path PreSet subset: identical node sequences share a group.
struct PathGroup {
  std::vector<std::uint32_t> jids;
};

/// The node sequence a journey takes before reaching `f` (source first).
/// Empty when the journey is incomplete or does not visit f.
std::vector<NodeId> path_before(const Journey& j, NodeId f) {
  std::vector<NodeId> path;
  if (!j.complete()) return path;
  path.push_back(j.source);
  for (const trace::Hop& h : j.hops) {
    if (h.node == f) return path;
    path.push_back(h.node);
  }
  return {};  // never reached f (alignment noise); skip
}

}  // namespace

void Diagnoser::propagate(NodeId f, const QueuingPeriod& period,
                          double base_score, int depth,
                          std::uint32_t victim_journey, Diagnosis& out,
                          Provenance* prov, int prov_parent) const {
  const NodeTimeline& tl = rt_->timeline(f);

  // Reserve this invocation's provenance step up front so children appear
  // after their parent. `prov->steps` grows during recursion, so the step
  // is always re-addressed by index, never held by reference across calls.
  const int step_idx = prov ? static_cast<int>(prov->steps.size()) : -1;
  if (prov) {
    PropagationStep st;
    st.parent = prov_parent;
    st.node = f;
    st.depth = depth;
    st.base_score = base_score;
    st.period_start = period.start;
    st.period_end = period.end;
    prov->steps.push_back(std::move(st));
  }

  // ---- Collect PreSet(p), grouped by upstream path. ----
  std::map<std::vector<NodeId>, PathGroup> groups;
  std::size_t n_grouped = 0;
  std::size_t n_skipped = 0;
  for (std::size_t i = period.first_arrival; i < period.last_arrival; ++i) {
    const trace::Arrival& a = tl.arrivals[i];
    if (a.journey == victim_journey) continue;  // PreSet excludes p itself
    if (a.journey == kNoJourney) {
      ++n_skipped;
      continue;
    }
    const Journey& j = rt_->journey(a.journey);
    std::vector<NodeId> path = path_before(j, f);
    if (path.empty()) {
      ++n_skipped;
      continue;
    }
    groups[std::move(path)].jids.push_back(a.journey);
    ++n_grouped;
  }
  if (prov) {
    prov->steps[step_idx].preset_packets = n_grouped;
    prov->steps[step_idx].preset_skipped = n_skipped;
  }
  // T_exp is shared by every path (paper §4.2, DAG case).
  const double r_f = peak_rates_[f].pkts_per_ns;
  if (n_grouped == 0 || r_f <= 0.0) {
    // Nothing to attribute along (no PreSet packet with a complete path,
    // or no service rate to turn arrivals into an expected span): the
    // whole step is charged to nobody.
    if (prov) prov->steps[step_idx].uncharged = base_score;
    return;
  }
  const double t_exp = static_cast<double>(period.arrival_count()) / r_f;
  if (prov) {
    prov->steps[step_idx].r_pkts_per_ns = r_f;
    prov->steps[step_idx].t_exp_ns = t_exp;
  }

  // ---- Per-path timespan attribution. ----
  struct SourceAccum {
    double score{0.0};
    TimeNs t0{kTimeNever};
    TimeNs t1{0};
    std::vector<std::uint32_t> jids;
  };
  std::unordered_map<NodeId, double> nf_scores;
  std::unordered_map<NodeId, SourceAccum> source_scores;
  std::unordered_map<NodeId, std::vector<std::uint32_t>> nf_jids;

  // Conservation accounting (always on): every path's share either lands
  // on hops (`attributed`) or is deliberately charged to nobody when the
  // path shows no compression (`uncharged`); the difference from
  // base_score is floating-point rounding only.
  double attributed = 0.0;
  double uncharged = 0.0;

  for (auto& [path, group] : groups) {
    const double share =
        base_score * static_cast<double>(group.jids.size()) /
        static_cast<double>(n_grouped);

    // Timespans: index 0 is the source (emit times), then each upstream NF
    // (depart times of the subset).
    std::vector<PathHopSpan> spans(path.size());
    std::vector<TimeNs> lo(path.size(), kTimeNever), hi(path.size(), 0);
    for (const std::uint32_t jid : group.jids) {
      const Journey& j = rt_->journey(jid);
      lo[0] = std::min(lo[0], j.source_time);
      hi[0] = std::max(hi[0], j.source_time);
      for (std::size_t k = 1; k < path.size(); ++k) {
        const trace::Hop& h = j.hops[k - 1];
        lo[k] = std::min(lo[k], h.depart);
        hi[k] = std::max(hi[k], h.depart);
      }
    }
    for (std::size_t k = 0; k < path.size(); ++k) {
      spans[k].node = path[k];
      spans[k].timespan = static_cast<double>(hi[k] - lo[k]);
    }

    const std::vector<HopScore> hop_scores =
        attribute_timespan(spans, t_exp, share);
    double path_attributed = 0.0;
    for (std::size_t k = 0; k < hop_scores.size(); ++k) {
      const HopScore& hs = hop_scores[k];
      path_attributed += hs.score;
      if (hs.score <= 0.0) continue;
      if (rt_->graph().is_source(hs.node)) {
        SourceAccum& acc = source_scores[hs.node];
        acc.score += hs.score;
        acc.t0 = std::min(acc.t0, lo[0]);
        acc.t1 = std::max(acc.t1, hi[0]);
        acc.jids.insert(acc.jids.end(), group.jids.begin(), group.jids.end());
      } else {
        nf_scores[hs.node] += hs.score;
        auto& js = nf_jids[hs.node];
        js.insert(js.end(), group.jids.begin(), group.jids.end());
      }
    }
    attributed += path_attributed;
    if (path_attributed <= 0.0) uncharged += share;
    if (prov) {
      PathAttribution pa;
      pa.path = path;
      pa.packets = group.jids.size();
      pa.share = share;
      pa.hops.reserve(hop_scores.size());
      for (std::size_t k = 0; k < hop_scores.size(); ++k)
        pa.hops.push_back(
            {hop_scores[k].node, spans[k].timespan, hop_scores[k].score});
      prov->steps[step_idx].paths.push_back(std::move(pa));
    }
  }

  // Satellite invariant (paper eqn (1)): the shares handed out sum back to
  // the S_i that flowed in, modulo deliberately-uncharged smooth paths.
  const double rounding = base_score - attributed - uncharged;
  assert(std::abs(rounding) <= 1e-6 * std::max(1.0, base_score));
  if constexpr (obs::kMetricsEnabled)
    DiagnoseMetrics::get().residual.add(std::abs(rounding));
  if (prov) {
    prov->steps[step_idx].attributed = attributed;
    prov->steps[step_idx].uncharged = uncharged;
    prov->steps[step_idx].residual = rounding;
  }

  // ---- Emit source culprits. ----
  for (auto& [src, acc] : source_scores) {
    const bool emitted = acc.score >= opts_.min_score;
    if (prov) {
      CulpritAttribution ca;
      ca.node = src;
      ca.kind = CauseKind::kSourceTraffic;
      ca.score = acc.score;
      ca.outcome = emitted ? AttributionOutcome::kEmittedSource
                           : AttributionOutcome::kZeroedBelowMin;
      prov->steps[step_idx].culprits.push_back(std::move(ca));
    }
    if (!emitted) continue;
    emit_source(src, acc.score, depth, acc.t0, acc.t1, acc.jids, out);
  }

  // ---- Recurse into NF culprits (§4.3). ----
  for (auto& [u, score] : nf_scores) {
    // Provenance for this culprit is buffered locally and appended at the
    // end of the iteration: the recursive call below grows prov->steps.
    CulpritAttribution ca;
    ca.node = u;
    ca.kind = CauseKind::kLocalProcessing;
    ca.score = score;
    const auto push_culprit = [&](AttributionOutcome outcome) {
      if (!prov) return;
      ca.outcome = outcome;
      prov->steps[step_idx].culprits.push_back(ca);
    };
    if (score < opts_.min_score) {
      push_culprit(AttributionOutcome::kZeroedBelowMin);
      continue;
    }

    // First arrival of the PreSet subset at u.
    TimeNs t_first_u = kTimeNever;
    TimeNs t_last_u = 0;
    for (const std::uint32_t jid : nf_jids[u]) {
      const Journey& j = rt_->journey(jid);
      for (const trace::Hop& h : j.hops) {
        if (h.node == u) {
          t_first_u = std::min(t_first_u, h.arrival);
          t_last_u = std::max(t_last_u, h.arrival);
          break;
        }
      }
    }
    if (t_first_u == kTimeNever) continue;

    // §4.3: diagnose the queuing period "after the arrival of the first
    // packet of PreSet(p)" at u — the period anchored before the first
    // PreSet arrival but extending through the subset's transit (ending at
    // its last arrival). Anchoring the end at the *first* arrival would
    // often yield a degenerate zero-length period.
    const auto period_u =
        rt_->has_timeline(u)
            ? find_queuing_period(rt_->timeline(u),
                                  std::max(t_last_u, t_first_u), opts_.period)
            : std::nullopt;
    if (!period_u || depth + 1 >= opts_.max_depth) {
      // Cannot look further: attribute everything to u's local behaviour
      // over the interval the PreSet spent there.
      CausalRelation rel;
      rel.culprit = {u, CauseKind::kLocalProcessing};
      rel.score = score;
      rel.culprit_t0 = t_first_u;
      rel.culprit_t1 = std::max(t_last_u, t_first_u);
      rel.depth = depth + 1;
      // Culprit flows: the PreSet packets that traversed u.
      std::unordered_map<std::uint64_t, std::pair<FiveTuple, double>> counts;
      for (const std::uint32_t jid : nf_jids[u]) {
        const Journey& j = rt_->journey(jid);
        auto& e = counts[flow_hash(j.flow)];
        e.first = j.flow;
        e.second += 1.0;
      }
      for (auto& [h, fc] : counts)
        rel.flows.push_back(
            {fc.first, score * fc.second /
                           static_cast<double>(nf_jids[u].size())});
      std::sort(rel.flows.begin(), rel.flows.end(), flow_weight_before);
      if (rel.flows.size() > opts_.max_flows_per_relation)
        rel.flows.resize(opts_.max_flows_per_relation);
      out.relations.push_back(std::move(rel));
      push_culprit(AttributionOutcome::kTerminalLocal);
      continue;
    }

    const LocalScores sub =
        local_scores(rt_->timeline(u), *period_u, peak_rates_[u]);
    const double denom = sub.s_i + sub.s_p;
    if (denom <= 0.0) {
      emit_local(u, *period_u, score, depth + 1, out);
      push_culprit(AttributionOutcome::kTerminalLocal);
      continue;
    }
    const double local_part = score * (sub.s_p / denom);
    const double input_part = score * (sub.s_i / denom);
    ca.sub_s_i = sub.s_i;
    ca.sub_s_p = sub.s_p;
    ca.local_part = local_part;
    ca.input_part = input_part;
    if (local_part > opts_.min_score)
      emit_local(u, *period_u, local_part, depth + 1, out);
    if (input_part > opts_.min_score) {
      ca.child_step = prov ? static_cast<int>(prov->steps.size()) : -1;
      propagate(u, *period_u, input_part, depth + 1, victim_journey, out,
                prov, step_idx);
    }
    push_culprit(AttributionOutcome::kRecursed);
  }
}

void Diagnoser::emit_local(NodeId node, const QueuingPeriod& period,
                           double score, int depth, Diagnosis& out) const {
  CausalRelation rel;
  rel.culprit = {node, CauseKind::kLocalProcessing};
  rel.score = score;
  rel.culprit_t0 = period.start;
  rel.culprit_t1 = period.end;
  rel.depth = depth;
  rel.flows = period_flows(node, period, score);
  out.relations.push_back(std::move(rel));
}

void Diagnoser::emit_source(NodeId source, double score, int depth, TimeNs t0,
                            TimeNs t1,
                            const std::vector<std::uint32_t>& journeys,
                            Diagnosis& out) const {
  CausalRelation rel;
  rel.culprit = {source, CauseKind::kSourceTraffic};
  rel.score = score;
  rel.culprit_t0 = t0;
  rel.culprit_t1 = t1;
  rel.depth = depth;
  std::unordered_map<std::uint64_t, std::pair<FiveTuple, double>> counts;
  for (const std::uint32_t jid : journeys) {
    const Journey& j = rt_->journey(jid);
    auto& e = counts[flow_hash(j.flow)];
    e.first = j.flow;
    e.second += 1.0;
  }
  for (auto& [h, fc] : counts)
    rel.flows.push_back(
        {fc.first, score * fc.second / static_cast<double>(journeys.size())});
  std::sort(rel.flows.begin(), rel.flows.end(), flow_weight_before);
  if (rel.flows.size() > opts_.max_flows_per_relation)
    rel.flows.resize(opts_.max_flows_per_relation);
  out.relations.push_back(std::move(rel));
}

std::vector<FlowWeight> Diagnoser::period_flows(NodeId node,
                                                const QueuingPeriod& period,
                                                double score) const {
  std::vector<FlowWeight> out;
  const NodeTimeline& tl = rt_->timeline(node);
  std::unordered_map<std::uint64_t, std::pair<FiveTuple, double>> counts;
  double total = 0.0;
  for (std::size_t i = period.first_arrival; i < period.last_arrival; ++i) {
    const trace::Arrival& a = tl.arrivals[i];
    if (a.journey == kNoJourney) continue;
    const Journey& j = rt_->journey(a.journey);
    auto& e = counts[flow_hash(j.flow)];
    e.first = j.flow;
    e.second += 1.0;
    total += 1.0;
  }
  if (total == 0.0) return out;
  for (auto& [h, fc] : counts)
    out.push_back({fc.first, score * fc.second / total});
  std::sort(out.begin(), out.end(), flow_weight_before);
  if (out.size() > opts_.max_flows_per_relation)
    out.resize(opts_.max_flows_per_relation);
  return out;
}

}  // namespace microscope::core
