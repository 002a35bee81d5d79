#include "trace/reconstruct.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/tracing.hpp"

namespace microscope::trace {

std::uint64_t NodeTimeline::arrivals_in(TimeNs t0, TimeNs t1) const {
  const auto lo = std::upper_bound(
      arrivals.begin(), arrivals.end(), t0,
      [](TimeNs t, const Arrival& a) { return t < a.t; });
  const auto hi = std::upper_bound(
      arrivals.begin(), arrivals.end(), t1,
      [](TimeNs t, const Arrival& a) { return t < a.t; });
  return static_cast<std::uint64_t>(hi - lo);
}

std::uint64_t NodeTimeline::reads_in(TimeNs t0, TimeNs t1) const {
  auto cum_at = [this](TimeNs t) -> std::uint64_t {
    // Sum of counts of batches with ts <= t; before the first read held,
    // the count of the evicted reads (0 when nothing was evicted).
    const auto it = std::upper_bound(
        reads.begin(), reads.end(), t,
        [](TimeNs x, const Read& r) { return x < r.ts; });
    if (it == reads.begin())
      return reads.empty() ? 0 : reads_cum.front() - reads.front().count;
    return reads_cum[static_cast<std::size_t>(it - reads.begin()) - 1];
  };
  return cum_at(t1) - cum_at(t0);
}

std::size_t NodeTimeline::first_arrival_after(TimeNs t0) const {
  const auto it = std::upper_bound(
      arrivals.begin(), arrivals.end(), t0,
      [](TimeNs t, const Arrival& a) { return t < a.t; });
  return static_cast<std::size_t>(it - arrivals.begin());
}

const std::vector<Journey>& ReconstructedTrace::journeys() const {
  if (recycled_)
    throw std::logic_error(
        "ReconstructedTrace::journeys: ids are recycled; iterate "
        "journey_order()");
  return journeys_;
}

namespace {

constexpr std::size_t kRxDir = 0;  // collector::Direction::kRx
constexpr std::size_t kTxDir = 1;  // collector::Direction::kTx

template <typename T>
void drop_front(std::vector<T>& v, std::size_t n) {
  v.erase(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(n));
}

template <typename T>
std::size_t bytes_of(const std::vector<T>& v) {
  return v.size() * sizeof(T);
}

bool arrival_before(const Arrival& a, const Arrival& b) {
  if (a.t != b.t) return a.t < b.t;
  if (a.from != b.from) return a.from < b.from;
  return a.up_tx_idx < b.up_tx_idx;
}

/// Registry handles of the reconstruction stage, resolved once per
/// process; building a Reconstruction registers them. total_ns times one
/// advance (one sample per run); discard_ns and evict_ns time
/// discard_speculative and evict_before.
struct ReconstructMetrics {
  obs::Counter& runs;
  obs::Counter& journeys;
  obs::Counter& truncated_journeys;
  obs::Histogram& total_ns;
  obs::Histogram& walk_ns;
  obs::Histogram& timeline_ns;
  obs::Histogram& discard_ns;
  obs::Histogram& evict_ns;

  static ReconstructMetrics& get() {
    obs::Registry& r = obs::Registry::global();
    static ReconstructMetrics m{
        r.counter("trace.reconstruct.runs"),
        r.counter("trace.reconstruct.journeys"),
        r.counter("trace.reconstruct.truncated_journeys"),
        r.histogram("trace.reconstruct.total_ns"),
        r.histogram("trace.reconstruct.walk_ns"),
        r.histogram("trace.reconstruct.timeline_ns"),
        r.histogram("trace.reconstruct.discard_ns"),
        r.histogram("trace.reconstruct.evict_ns")};
    return m;
  }
};

}  // namespace

Reconstruction::Reconstruction(const GraphView& graph, ReconstructOptions opts)
    : rt_(graph, opts),
      aligner_(graph, opts.align),
      nodes_(graph.node_count()) {
  ReconstructMetrics::get();  // the stage's names exist once this does
  rt_.timelines_.resize(graph.node_count());
}

std::uint32_t Reconstruction::alloc_journey() {
  if (!free_.empty()) {
    const std::uint32_t id = free_.back();
    free_.pop_back();
    return id;
  }
  rt_.journeys_.emplace_back();
  return static_cast<std::uint32_t>(rt_.journeys_.size() - 1);
}

void Reconstruction::free_journey(std::uint32_t id) {
  rt_.journeys_[id].hops.clear();  // keeps the capacity for the next walk
  free_.push_back(id);
  rt_.recycled_ = true;
}

void Reconstruction::set_tx_journey(NodeId u, std::uint32_t tx,
                                    std::uint32_t id) {
  rt_.tx_journey_[u][tx - rt_.alignments_[u].tx_base] = id;
}

void Reconstruction::advance(const RecordLanes& lanes, const Frontier& f,
                             ThreadPool* pool) {
  ReconstructMetrics& m = ReconstructMetrics::get();
  m.runs.add();
  obs::TraceSpan span("trace", "reconstruct");
  obs::ScopedTimer total_timer(m.total_ns);
  const std::size_t n = rt_.graph_.node_count();
  {
    obs::ScopedTimer t(AlignMetrics::get().prepare_ns);
    aligner_.pull(lanes, f.ceiling, rt_.alignments_, pool);
    rt_.tx_journey_.resize(n);
    for (NodeId id = 0; id < n; ++id)
      rt_.tx_journey_[id].resize(rt_.alignments_[id].tx_to_rx.size(),
                                 kNoJourney);
  }
  aligner_.match(lanes, f, rt_.alignments_, rt_.align_stats_, pool);

  {
    obs::ScopedTimer t(m.walk_ns);
    walk_terminals(lanes, f, pool);
  }
  {
    obs::ScopedTimer t(m.timeline_ns);
    build_timelines(lanes, f, pool);
  }
  rebuild_order();
  tail_held_ = !f.final();

  m.journeys.add(walked_);
  span.set_items(walked_);
}

void Reconstruction::walk_terminals(const RecordLanes& lanes,
                                    const Frontier& f, ThreadPool* pool) {
  const GraphView& g = rt_.graph_;
  const std::size_t n = g.node_count();
  auto registered = [&](NodeId id) {
    return id < lanes.size() && lanes[id].trace != nullptr &&
           g.kinds[id] != NodeKind::kSink;
  };

  // Terminals past each (kind, node)'s committed prefix, in journey order.
  // Seeds are enumerated sequentially (assigning ids deterministically);
  // the walks run sharded — every walk touches a chain of rx/tx entries
  // that no other journey's chain shares (alignment maps are injective).
  std::vector<Seed> seeds;
  std::vector<std::size_t> first(kKinds * n + 1, 0);
  for (int k = 0; k < kKinds; ++k) {
    const Kind kind = static_cast<Kind>(k);
    for (NodeId id = 0; id < n; ++id) {
      first[k * n + id] = seeds.size();
      if (!registered(id)) continue;
      const NodeAlignment& a = rt_.alignments_[id];
      const std::uint32_t from = nodes_[id].term_next[kind];
      if (kind == kDelivered) {
        if (g.kinds[id] != NodeKind::kNf) continue;
        for (std::uint32_t e = from; e < a.tx_end(); ++e)
          if (a.tx_peer[e - a.tx_base] == g.sink)
            seeds.push_back({kind, id, e});
      } else if (kind == kQueueDrop) {
        for (std::uint32_t e = from; e < a.tx_end(); ++e)
          if (a.tx_dropped_downstream[e - a.tx_base])
            seeds.push_back({kind, id, e});
      } else {
        if (g.kinds[id] != NodeKind::kNf) continue;
        for (std::uint32_t e = from; e < a.rx_end(); ++e)
          if (a.rx_to_tx[e - a.rx_base] == kNoEntry)
            seeds.push_back({kind, id, e});
      }
    }
  }
  first[kKinds * n] = seeds.size();
  for (Seed& s : seeds) s.id = alloc_journey();

  parallel_for_over(pool, seeds.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      Seed& s = seeds[i];
      s.committed =
          walk(lanes, s.kind, s.node, s.entry, rt_.journeys_[s.id], s.id);
    }
  });

  // Commit, per (kind, node), the longest prefix of entries whose terminal
  // status and journey are settled (or forced); the rest is speculative.
  walked_ = seeds.size();
  committed_ = 0;
  const DurationNs prop = rt_.opts_.prop_delay;
  for (int k = 0; k < kKinds; ++k) {
    const Kind kind = static_cast<Kind>(k);
    for (NodeId id = 0; id < n; ++id) {
      if (!registered(id)) continue;
      NodeState& ns = nodes_[id];
      const NodeAlignment& a = rt_.alignments_[id];
      std::size_t si = first[k * n + id];
      const std::size_t se = first[k * n + id + 1];
      const std::uint32_t end = kind == kPolicyDrop ? a.rx_end() : a.tx_end();
      std::uint32_t e = ns.term_next[kind];
      for (; e < end; ++e) {
        const TimeNs ts = kind == kPolicyDrop ? a.rx_entry_ts[e - a.rx_base]
                                              : a.tx_entry_ts[e - a.tx_base];
        // Whether the entry is a terminal at all is settled for a delivery
        // (its peer is a fact), for a queue drop once its fate and for a
        // policy drop once its internal alignment is committed.
        const bool forced = !f.final() && ts < f.force;
        bool settled = f.final() || forced || kind == kDelivered ||
                       (kind == kQueueDrop
                            ? aligner_.fate_committed(id, e, a)
                            : aligner_.internal_committed(id, e));
        const bool is_seed = si < se && seeds[si].entry == e;
        if (is_seed) settled = settled && (seeds[si].committed || forced);
        if (!settled) break;
        if (is_seed) {
          const TimeNs end_t = kind == kQueueDrop ? ts + prop : ts;
          ns.held[kind].push_back({seeds[si].id, e, end_t});
          ++committed_;
          ++si;
        }
      }
      ns.term_next[kind] = e;
      for (; si < se; ++si) ns.spec[kind].push_back(seeds[si].id);
    }
  }
  std::uint64_t truncated = 0;
  for (const Seed& s : seeds)
    if (rt_.journeys_[s.id].fate == Fate::kTruncated) ++truncated;
  ReconstructMetrics::get().truncated_journeys.add(truncated);
}

bool Reconstruction::walk(const RecordLanes& lanes, Kind kind, NodeId node,
                          std::uint32_t entry, Journey& j, std::uint32_t id) {
  const GraphView& g = rt_.graph_;
  const std::vector<NodeAlignment>& al = rt_.alignments_;
  const DurationNs prop = rt_.opts_.prop_delay;
  auto tx_ts = [&](NodeId u, std::uint32_t tx) {
    return al[u].tx_entry_ts[tx - al[u].tx_base];
  };
  const collector::NodeTrace& t = *lanes[node].trace;

  j.flow = FiveTuple{};
  j.edge_flow = FiveTuple{};
  j.source = kInvalidNode;
  j.source_idx = kNoEntry;
  j.source_time = 0;
  j.end_node = node;
  NodeId cur = node;
  std::uint32_t cur_tx = kNoEntry;
  std::uint32_t cur_rx = kNoEntry;
  bool flow_fallback = false;
  if (kind == kPolicyDrop) {
    j.fate = Fate::kDroppedPolicy;
    cur_rx = entry;
  } else {
    const std::size_t local = entry - lanes[node].entry_base[kTxDir];
    cur_tx = entry;
    if (kind == kDelivered) {
      j.fate = Fate::kDelivered;
      flow_fallback = local < t.tx_flows.size();
      if (flow_fallback) j.edge_flow = t.tx_flows[local];
    } else {
      j.fate = Fate::kDroppedQueue;
      j.end_node = al[node].tx_peer[entry - al[node].tx_base];
    }
  }

  // Walk the packet backward to its source, filling hops in reverse. Reads
  // only the alignments; writes only this journey and the journey lane
  // slots of its own chain. An evicted entry ends the walk like a missing
  // record. Hops collect in a per-thread buffer and are copied once, so a
  // journey's hop storage is sized to its path (slots are reused across
  // windows).
  thread_local std::vector<Hop> path;
  path.clear();
  bool committed = true;
  bool complete = false;
  while (true) {
    if (g.is_source(cur)) {
      if (cur_tx < al[cur].tx_base) break;
      const NodeLanes& sl = lanes[cur];
      const std::size_t local = cur_tx - sl.entry_base[kTxDir];
      j.source = cur;
      j.source_idx = cur_tx;
      j.source_time = tx_ts(cur, cur_tx);
      if (local < sl.trace->tx_flows.size()) j.flow = sl.trace->tx_flows[local];
      set_tx_journey(cur, cur_tx, id);
      complete = true;
      break;
    }
    const NodeAlignment& a = al[cur];
    std::uint32_t rx = cur_rx;
    if (rx == kNoEntry && cur_tx != kNoEntry) {
      if (cur_tx < a.tx_base) break;
      committed = committed && aligner_.claim_committed(cur, cur_tx, a);
      rx = a.tx_to_rx[cur_tx - a.tx_base];
    }
    if (rx == kNoEntry || rx < a.rx_base) break;  // truncate

    Hop hop;
    hop.node = cur;
    hop.rx_idx = rx;
    hop.tx_idx = cur_tx;
    hop.read = a.rx_entry_ts[rx - a.rx_base];
    hop.depart = cur_tx != kNoEntry ? tx_ts(cur, cur_tx) : kTimeNever;
    if (cur_tx != kNoEntry) set_tx_journey(cur, cur_tx, id);
    committed = committed && aligner_.link_committed(cur, rx);

    const TxRef origin = a.rx_origin[rx - a.rx_base];
    const bool follow =
        origin.valid() && origin.idx >= al[origin.node].tx_base;
    hop.arrival = follow ? tx_ts(origin.node, origin.idx) + prop : hop.read;
    path.push_back(hop);

    if (!follow) break;  // truncated
    cur = origin.node;
    cur_tx = origin.idx;
    cur_rx = kNoEntry;
  }
  if (!complete && j.fate != Fate::kDroppedPolicy) j.fate = Fate::kTruncated;
  std::reverse(path.begin(), path.end());

  if (kind == kDelivered) {
    if (!j.complete() && flow_fallback) j.flow = j.edge_flow;
  } else if (kind == kQueueDrop) {
    if (j.fate == Fate::kTruncated) j.fate = Fate::kDroppedQueue;
    // Pseudo-hop at the dropping node: it arrived but was never read.
    Hop drop_hop;
    drop_hop.node = j.end_node;
    drop_hop.arrival = tx_ts(node, entry) + prop;
    drop_hop.read = kTimeNever;
    drop_hop.depart = kTimeNever;
    path.push_back(drop_hop);
  }
  j.hops.assign(path.begin(), path.end());
  return committed;
}

void Reconstruction::build_timelines(const RecordLanes& lanes,
                                     const Frontier& f, ThreadPool* pool) {
  const GraphView& g = rt_.graph_;
  const std::size_t n = g.node_count();
  const DurationNs prop = rt_.opts_.prop_delay;
  const std::uint16_t max_batch = rt_.opts_.max_batch;

  // Per NF: reads from its new rx batches, then arrivals from the new
  // entries of its incoming streams, merged by (t, upstream, entry) — the
  // canonical total order, so every run orders simultaneous arrivals
  // identically. Entries before the ceiling are final in position (no
  // record still to come sorts before them); entries at it are appended
  // as a speculative tail. Writes land on d's timeline and on the arrival
  // cursors of the streams whose peer is d, so the per-node shards are
  // disjoint.
  auto build = [&](NodeId d) {
    if (g.kinds[d] != NodeKind::kNf || d >= lanes.size() ||
        lanes[d].trace == nullptr)
      return;
    NodeTimeline& tl = rt_.timelines_[d];
    NodeState& ns = nodes_[d];

    const NodeLanes& l = lanes[d];
    const std::uint64_t pulled = aligner_.node(d).next_batch[kRxDir];
    std::uint64_t cum = tl.reads_cum.empty() ? 0 : tl.reads_cum.back();
    for (std::uint64_t b = ns.next_read; b < pulled; ++b) {
      const collector::BatchRecord& rec =
          l.trace->rx_batches[static_cast<std::size_t>(b - l.batch_base[kRxDir])];
      tl.reads.push_back({rec.ts, rec.count, rec.count < max_batch});
      cum += rec.count;
      tl.reads_cum.push_back(cum);
    }
    ns.next_read = pulled;

    struct Run {
      const Aligner::Stream* s;
      std::uint32_t p;    // next position
      std::uint32_t cut;  // first position at or past the ceiling
    };
    std::vector<Run> runs;
    bool sorted = true;
    for (const Aligner::InStream& in : aligner_.node(d).in) {
      Aligner::Stream& s = aligner_.stream(in);
      Run r{&s, s.arrived, s.end()};
      if (!f.final()) {
        r.cut = r.p;
        while (r.cut < s.end() && s.ts[r.cut] < f.ceiling) ++r.cut;
      }
      s.arrived = r.cut;
      sorted &= s.sorted;
      runs.push_back(r);
    }
    auto emit = [&](const Run& r, std::uint32_t p) {
      tl.arrivals.push_back({r.s->ts[p] + prop, r.s->up, r.s->entry[p]});
    };
    auto key_before = [&](const Run& a, std::uint32_t pa, const Run& b,
                          std::uint32_t pb) {
      const TimeNs ta = a.s->ts[pa];
      const TimeNs tb = b.s->ts[pb];
      if (ta != tb) return ta < tb;
      if (a.s->up != b.s->up) return a.s->up < b.s->up;
      return a.s->entry[pa] < b.s->entry[pb];
    };
    // Merge each stream's run [p, cut); a regressed stream (offline only:
    // the engine keeps every lane time-ordered) falls back to a sort.
    auto merge = [&](std::vector<Run> rs, bool by_sort) {
      const std::size_t at = tl.arrivals.size();
      if (by_sort) {
        for (const Run& r : rs)
          for (std::uint32_t p = r.p; p < r.cut; ++p) emit(r, p);
        std::sort(tl.arrivals.begin() + static_cast<std::ptrdiff_t>(at),
                  tl.arrivals.end(), arrival_before);
        return;
      }
      while (true) {
        int best = -1;
        for (std::size_t i = 0; i < rs.size(); ++i) {
          if (rs[i].p >= rs[i].cut) continue;
          if (best < 0 ||
              key_before(rs[i], rs[i].p, rs[static_cast<std::size_t>(best)],
                         rs[static_cast<std::size_t>(best)].p))
            best = static_cast<int>(i);
        }
        if (best < 0) break;
        Run& r = rs[static_cast<std::size_t>(best)];
        emit(r, r.p++);
      }
    };
    merge(runs, !sorted);
    ns.arr_committed = tl.arrivals.size();
    if (!f.final()) {
      // Entries at the ceiling: a record still to come may sort before
      // them, so their arrivals are speculative.
      std::vector<Run> tail = runs;
      for (Run& r : tail) {
        r.p = r.cut;
        r.cut = r.s->end();
      }
      merge(std::move(tail), true);
    }
  };
  parallel_for_over(pool, n, [&](std::size_t b, std::size_t e) {
    for (std::size_t id = b; id < e; ++id) build(static_cast<NodeId>(id));
  });
}

void Reconstruction::rebuild_order() {
  std::vector<std::uint32_t>& order = rt_.order_;
  order.clear();
  for (int k = 0; k < kKinds; ++k) {
    for (NodeState& ns : nodes_) {
      for (const Held& h : ns.held[k]) order.push_back(h.id);
      order.insert(order.end(), ns.spec[k].begin(), ns.spec[k].end());
    }
  }
}

void Reconstruction::unlink(const Journey& j) {
  if (j.source != kInvalidNode)
    set_tx_journey(j.source, j.source_idx, kNoJourney);
  for (const Hop& h : j.hops)
    if (h.tx_idx != kNoEntry) set_tx_journey(h.node, h.tx_idx, kNoJourney);
}

void Reconstruction::discard_speculative(ThreadPool* pool) {
  obs::ScopedTimer timer(ReconstructMetrics::get().discard_ns);
  for (NodeState& ns : nodes_) {
    for (int k = 0; k < kKinds; ++k) {
      for (const std::uint32_t id : ns.spec[k]) {
        unlink(rt_.journeys_[id]);
        free_journey(id);
      }
      ns.spec[k].clear();
    }
  }
  for (NodeId d = 0; d < nodes_.size(); ++d)
    rt_.timelines_[d].arrivals.resize(nodes_[d].arr_committed);
  aligner_.rollback(rt_.alignments_, pool);
  rt_.order_.clear();  // rebuilt by the next advance
  tail_held_ = false;
}

void Reconstruction::evict_before(TimeNs horizon) {
  obs::ScopedTimer timer(ReconstructMetrics::get().evict_ns);
  aligner_.evict_before(horizon, rt_.alignments_);
  // An arrival goes with its upstream tx entry: its time is that entry's
  // plus the propagation delay.
  const TimeNs arr_horizon = horizon + rt_.opts_.prop_delay;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    NodeState& ns = nodes_[id];
    const NodeAlignment& a = rt_.alignments_[id];
    // The journey lane runs parallel to the alignment's tx lanes: drop as
    // many entries as those just dropped.
    std::vector<std::uint32_t>& journeys = rt_.tx_journey_[id];
    drop_front(journeys, journeys.size() - a.tx_to_rx.size());
    ns.term_next[kDelivered] = std::max(ns.term_next[kDelivered], a.tx_base);
    ns.term_next[kQueueDrop] = std::max(ns.term_next[kQueueDrop], a.tx_base);
    ns.term_next[kPolicyDrop] = std::max(ns.term_next[kPolicyDrop], a.rx_base);
    for (std::vector<Held>& held : ns.held) {
      std::size_t gone = 0;
      while (gone < held.size() && held[gone].end < horizon)
        free_journey(held[gone++].id);
      drop_front(held, gone);
    }
    NodeTimeline& tl = rt_.timelines_[id];
    const auto arr_cut = std::find_if(
        tl.arrivals.begin(), tl.arrivals.end(),
        [&](const Arrival& ar) { return ar.t >= arr_horizon; });
    ns.arr_committed -= static_cast<std::size_t>(arr_cut - tl.arrivals.begin());
    tl.arrivals.erase(tl.arrivals.begin(), arr_cut);
    const auto read_cut = std::find_if(
        tl.reads.begin(), tl.reads.end(),
        [&](const NodeTimeline::Read& r) { return r.ts >= horizon; });
    const auto reads_gone = read_cut - tl.reads.begin();
    tl.reads.erase(tl.reads.begin(), read_cut);
    tl.reads_cum.erase(tl.reads_cum.begin(),
                       tl.reads_cum.begin() + reads_gone);
  }
}

void Reconstruction::visit_numbers(const NumberVisitor& visit) {
  aligner_.visit_numbers(rt_.alignments_, visit);
  auto visit_journey = [&](Journey& j) {
    if (j.source != kInvalidNode)
      visit({Numbering::kTx, j.source}, j.source_idx);
    for (Hop& h : j.hops) {
      if (h.rx_idx != kNoEntry) visit({Numbering::kRx, h.node}, h.rx_idx);
      if (h.tx_idx != kNoEntry) visit({Numbering::kTx, h.node}, h.tx_idx);
    }
  };
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    NodeState& ns = nodes_[id];
    const NumberSpace rx{Numbering::kRx, id};
    const NumberSpace tx{Numbering::kTx, id};
    visit(tx, ns.term_next[kDelivered]);
    visit(tx, ns.term_next[kQueueDrop]);
    visit(rx, ns.term_next[kPolicyDrop]);
    for (int k = 0; k < kKinds; ++k) {
      for (Held& h : ns.held[k]) {
        visit(k == kPolicyDrop ? rx : tx, h.entry);
        visit_journey(rt_.journeys_[h.id]);
      }
    }
    for (Arrival& ar : rt_.timelines_[id].arrivals)
      visit({Numbering::kTx, ar.from}, ar.up_tx_idx);
  }
}

std::uint32_t Reconstruction::numbers_end() const {
  std::uint32_t end = 0;
  for (const NodeAlignment& a : rt_.alignments_)
    end = std::max({end, a.rx_end(), a.tx_end()});
  return end;
}

EntryShifts Reconstruction::renumber(const RecordLanes& lanes,
                                     std::uint32_t lowest) {
  if (tail_held_)
    throw std::logic_error(
        "Reconstruction::renumber: a speculative tail is held");
  // Smallest number per (node, direction), then the shift that moves it to
  // `lowest`. A space holding no number is not shifted.
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  EntryShifts shifts(nodes_.size(), {kNone, kNone});
  auto slot = [&](const NumberSpace& sp) -> std::uint32_t& {
    return shifts[sp.node][static_cast<std::size_t>(sp.kind)];
  };
  for (NodeId id = 0; id < shifts.size() && id < lanes.size(); ++id) {
    if (lanes[id].trace == nullptr) continue;
    for (const std::size_t dir : {kRxDir, kTxDir})
      shifts[id][dir] = std::min(shifts[id][dir], lanes[id].entry_base[dir]);
  }
  visit_numbers([&](const NumberSpace& sp, std::uint32_t& v) {
    std::uint32_t& m = slot(sp);
    m = std::min(m, v);
  });
  for (auto& s : shifts)
    for (std::uint32_t& m : s) m = m == kNone ? 0 : m - lowest;
  visit_numbers(
      [&](const NumberSpace& sp, std::uint32_t& v) { v -= slot(sp); });
  return shifts;
}

std::vector<Reconstruction::Terminal> Reconstruction::committed_terminals()
    const {
  std::vector<Terminal> out;
  for (int k = 0; k < kKinds; ++k)
    for (NodeId id = 0; id < nodes_.size(); ++id) {
      for (const Held& h : nodes_[id].held[k])
        out.push_back({k, id, h.entry, h.id});
    }
  return out;
}

std::size_t Reconstruction::live_journeys() const {
  std::size_t live = 0;
  for (const NodeState& ns : nodes_)
    for (int k = 0; k < kKinds; ++k)
      live += ns.held[k].size() + ns.spec[k].size();
  return live;
}

std::size_t Reconstruction::retained_bytes() const {
  std::size_t bytes = aligner_.retained_bytes();
  for (const NodeAlignment& a : rt_.alignments_) {
    bytes += bytes_of(a.rx_origin) + bytes_of(a.rx_to_tx) +
             bytes_of(a.tx_to_rx) + bytes_of(a.tx_consumer) +
             bytes_of(a.tx_dropped_downstream) + bytes_of(a.tx_peer) +
             bytes_of(a.rx_entry_ts) + bytes_of(a.tx_entry_ts);
  }
  for (const std::vector<std::uint32_t>& journeys : rt_.tx_journey_)
    bytes += bytes_of(journeys);
  for (const NodeTimeline& tl : rt_.timelines_)
    bytes += bytes_of(tl.arrivals) + bytes_of(tl.reads) +
             bytes_of(tl.reads_cum);
  // Every journey slot, live or free, keeps its hop capacity.
  for (const Journey& j : rt_.journeys_)
    bytes += sizeof(Journey) + j.hops.capacity() * sizeof(Hop);
  return bytes;
}

ReconstructedTrace reconstruct(const collector::Collector& col,
                               const GraphView& graph,
                               const ReconstructOptions& opts,
                               ThreadPool* pool) {
  Reconstruction r(graph, opts);
  r.advance(lanes_of(col), Frontier{}, pool);
  return r.take();
}

}  // namespace microscope::trace
