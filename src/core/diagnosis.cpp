#include "core/diagnosis.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <tuple>
#include <unordered_map>
#include <utility>

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
/// diagnosis.
void record_diagnosis(const Diagnosis& d, DiagnoseMetrics& m) {
  m.relations.add(d.relations.size());
  if (d.relations.empty()) return;
  int max_depth = 0;
  for (const CausalRelation& rel : d.relations) {
    max_depth = std::max(max_depth, rel.depth);
    m.relation_score.record(std::llround(rel.score));
  }
  m.depth.record(max_depth);
}

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

/// Canonical flow-weight order: weight descending, five-tuple ascending.
/// The tuple tie-break keeps relation output independent of hash-map
/// iteration order, so a windowed (online) diagnosis of the same victim is
/// byte-identical to the full-trace one. It is a total order, so the top
/// entries taken with nth_element and then sorted are the sorted prefix.
bool flow_weight_before(const FlowWeight& a, const FlowWeight& b) {
  if (a.weight != b.weight) return a.weight > b.weight;
  return a.flow < b.flow;
}

/// Index of j's first hop at `node`; kNone when it has none.
std::uint32_t first_hop_at(const Journey& j, NodeId node) {
  for (std::size_t k = 0; k < j.hops.size(); ++k)
    if (j.hops[k].node == node) return static_cast<std::uint32_t>(k);
  return kNone;
}

/// The times a path group keeps per member, as (pair, value): pair k of
/// 0..len-1 is the source time (k = 0) or the depart of hop k - 1, and
/// pair len - 1 + k of len..2 len - 2 is the arrival of hop k - 1.
template <typename F>
void for_each_time(const Journey& j, std::uint32_t len, F&& f) {
  f(0, j.source_time);
  for (std::uint32_t k = 1; k < len; ++k) {
    f(k, j.hops[k - 1].depart);
    f(len - 1 + k, j.hops[k - 1].arrival);
  }
}

/// Fold one member's times into a row of [lo, hi] pairs.
void fold_times(TimeNs* row, const Journey& j, std::uint32_t len) {
  for_each_time(j, len, [row](std::uint32_t pair, TimeNs t) {
    row[2 * pair] = std::min(row[2 * pair], t);
    row[2 * pair + 1] = std::max(row[2 * pair + 1], t);
  });
}

/// SplitMix64's finalizer: spreads a key over the table's low bits.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Interned ids by key, open addressing with linear probing: a table holds
/// each id with its key's hash and tells keys apart with `same(id)`.
class IdTable {
 public:
  /// Forget every id, keeping the slots.
  void clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  }

  /// The id of the key hashing to `h` for which same(id) holds; `fresh`
  /// when there is none, which is then entered.
  template <typename Same>
  std::uint32_t find_or_add(std::uint64_t h, std::uint32_t fresh,
                            Same&& same) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.id == kNone) {
        s = {h, fresh};
        ++size_;
        return fresh;
      }
      if (s.hash == h && same(s.id)) return s.id;
    }
  }

 private:
  struct Slot {
    std::uint64_t hash{0};
    std::uint32_t id{kNone};
  };
  void grow() {
    const std::vector<Slot> old = std::exchange(
        slots_, std::vector<Slot>(std::max<std::size_t>(64, 2 * slots_.size())));
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.id == kNone) continue;
      std::size_t i = s.hash & mask;
      while (slots_[i].id != kNone) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }
  std::vector<Slot> slots_;  // a power of two, at most half full
  std::size_t size_{0};
};

}  // namespace

Diagnoser::Diagnoser(const trace::ReconstructedTrace& rt,
                     std::vector<RatePerNs> peak_rates, DiagnoserOptions opts)
    : rt_(&rt), peak_rates_(std::move(peak_rates)), opts_(opts) {
  DiagnoseMetrics::get();  // the stage's names exist once a Diagnoser does
  if (peak_rates_.size() < rt.graph().node_count())
    peak_rates_.resize(rt.graph().node_count());
}

/// The PreSet indices of one diagnose_all chunk (DESIGN.md §5 "PreSet
/// index"). An index covers the arrivals [first, first + slots.size()) of
/// one queuing period at one NF: it is built when a victim first needs it
/// and extended when a later victim's period ends later. A query reads the
/// prefix [first, last) minus the victim's own arrival. The indices live
/// while the victims' own period does: the victims come in period order,
/// and the next period drops them all (keeping their buffers), so memory is
/// bounded by the arrivals one period's diagnoses touch. Paths and flows
/// are interned for the whole chunk: a path group is the node sequence
/// before the NF, a flow its FiveTuple (by equality, never by hash).
struct Diagnoser::Workspace {
  /// One arrival of an indexed period.
  struct Slot {
    std::uint32_t group{kNone};  // path group; kNone when in none
    std::uint32_t flow{kNone};   // interned flow; kNone without a journey
    std::uint32_t prev{kNone};   // offset of the group's previous member
    std::uint32_t row{0};        // the group's running row through here
  };
  /// The members of one path group. A row holds 2 len - 1 [lo, hi] pairs
  /// (for_each_time), the running min/max over the members up to the
  /// row's own, with lo capped at kTimeNever and hi floored at 0 as the
  /// spans' accumulators start.
  struct Group {
    std::uint32_t path;
    std::uint32_t len;  // the source and len - 1 upstream NFs
    std::uint32_t count{0};
    std::uint32_t tail{kNone};  // offset of the last member
  };
  struct Index {
    std::uint32_t serial{0};  // unique in the workspace, unlike the slot
    NodeId node{kInvalidNode};
    std::size_t first{0};
    std::vector<Slot> slots;  // by offset from first
    std::vector<TimeNs> rows;
    std::vector<Group> groups;
    std::vector<std::uint32_t> order;  // groups by node sequence
  };
  struct Path {
    std::uint32_t off;
    std::uint32_t len;
    std::uint32_t index{kNone};  // the serial of the last index extended
    std::uint32_t group{0};      // with it, and its group there
  };
  /// One propagation step's PreSet(p), the period's arrivals minus the
  /// victim's by path group in lexicographic node-sequence order, empty
  /// groups left out; with the step's scratch. One per recursion depth,
  /// reused.
  struct Step {
    struct Group {
      std::uint32_t path;
      std::uint32_t len;
      std::uint32_t count;  // members in the PreSet
      std::uint32_t tail;   // offset of the last one, or of the victim
      std::size_t lohi;     // the group's [lo, hi] pairs in `lohi`
    };
    std::uint32_t index{kNone};
    std::uint32_t victim{kNone};  // the victim's offset, when in range
    std::size_t grouped{0};
    std::size_t skipped{0};
    std::vector<Group> groups;
    std::vector<TimeNs> lohi;
    /// (culprit node, group) of every hop share handed out.
    std::vector<std::pair<NodeId, std::uint32_t>> charged;
    std::vector<PathHopSpan> spans;
  };

  explicit Workspace(const trace::ReconstructedTrace& trace) : rt(&trace) {}

  const NodeId* nodes(std::uint32_t path) const {
    return &path_nodes[paths[path].off];
  }

  /// Start a victim whose own period begins at arrival `first` of
  /// `node`: a new period drops every index.
  void enter(NodeId node, std::size_t first) {
    if (node == period_node && first == period_first) return;
    period_node = node;
    period_first = first;
    live = 0;
    index_ids.clear();
  }

  /// The index of `period` at `node`, holding at least its arrivals.
  std::uint32_t index(NodeId node, const QueuingPeriod& period) {
    const std::uint32_t fresh = live;
    const std::uint32_t ix = index_ids.find_or_add(
        mix64((static_cast<std::uint64_t>(node) << 40) | period.first_arrival),
        fresh, [&](std::uint32_t id) {
          return indices[id].node == node &&
                 indices[id].first == period.first_arrival;
        });
    if (ix == fresh) {
      if (live == indices.size()) indices.emplace_back();
      Index& x = indices[live++];
      x.serial = serials++;
      x.node = node;
      x.first = period.first_arrival;
      x.slots.clear();
      x.rows.clear();
      x.groups.clear();
      x.order.clear();
    }
    if (period.last_arrival > indices[ix].first + indices[ix].slots.size())
      extend(ix, period.last_arrival);
    return ix;
  }

  /// The scratch of the step at `depth`.
  Step& step(int depth) {
    while (steps.size() <= static_cast<std::size_t>(depth))
      steps.push_back(std::make_unique<Step>());
    return *steps[static_cast<std::size_t>(depth)];
  }

  /// Query index `ix_id` for PreSet(p) of `period` into `st`, p being the
  /// victim's arrival (excluded where the victim's journey arrives).
  void preset(Step& st, std::uint32_t ix_id, const QueuingPeriod& period,
              std::uint32_t victim_journey) {
    const Index& ix = indices[ix_id];
    const std::size_t n = period.last_arrival - ix.first;
    st.index = ix_id;
    st.victim = victim_offset(ix, period, victim_journey);
    st.grouped = 0;
    st.groups.clear();
    st.lohi.clear();
    st.charged.clear();
    // Each group's members before the period's end: count and last.
    at.resize(ix.groups.size());
    for (std::size_t g = 0; g < ix.groups.size(); ++g)
      at[g] = {ix.groups[g].count, ix.groups[g].tail};
    for (std::size_t o = ix.slots.size(); o-- > n;) {
      const Slot& s = ix.slots[o];
      if (s.group == kNone) continue;
      --at[s.group].first;
      at[s.group].second = s.prev;
    }
    const std::uint32_t vg =
        st.victim == kNone ? kNone : ix.slots[st.victim].group;
    std::size_t members = 0;
    for (const std::uint32_t g : ix.order) {
      const Group& gr = ix.groups[g];
      auto [count, tail] = at[g];
      members += count;
      if (g == vg) --count;
      if (count == 0) continue;
      const std::size_t width = 2 * (2 * gr.len - 1);
      st.groups.push_back({gr.path, gr.len, count, tail, st.lohi.size()});
      st.grouped += count;
      if (g != vg) {
        const TimeNs* row = &ix.rows[ix.slots[tail].row];
        st.lohi.insert(st.lohi.end(), row, row + width);
        continue;
      }
      // The victim's group: its row before the victim, then each later
      // member folded in (at the top level only the arrivals that share
      // the victim's timestamp).
      const std::uint32_t prev = ix.slots[st.victim].prev;
      if (prev != kNone) {
        const TimeNs* row = &ix.rows[ix.slots[prev].row];
        st.lohi.insert(st.lohi.end(), row, row + width);
      } else {
        for (std::size_t c = 0; c < width; c += 2) {
          st.lohi.push_back(kTimeNever);
          st.lohi.push_back(0);
        }
      }
      TimeNs* row = &st.lohi[st.groups.back().lohi];
      const NodeTimeline& tl = rt->timeline(ix.node);
      for (std::uint32_t o = tail; o != st.victim; o = ix.slots[o].prev)
        fold_times(row,
                   rt->journey(rt->journey_of(tl.arrivals[ix.first + o])),
                   gr.len);
    }
    st.skipped = n - members - (st.victim != kNone && vg == kNone ? 1 : 0);
  }

  /// Count one packet of flow `f` toward the next take_flows().
  void count_flow(std::uint32_t f) {
    if (flow_count[f]++ == 0) touched.push_back(f);
  }

  /// The counted flows as weights score * count / total, the top `cap` in
  /// canonical order; resets the counts.
  std::vector<FlowWeight> take_flows(double score, std::size_t total,
                                     std::size_t cap) {
    std::vector<FlowWeight> out;
    out.reserve(touched.size());
    for (const std::uint32_t f : touched) {
      out.push_back({flows[f], score * static_cast<double>(flow_count[f]) /
                                   static_cast<double>(total)});
      flow_count[f] = 0;
    }
    touched.clear();
    if (out.size() > cap) {
      std::nth_element(out.begin(),
                       out.begin() + static_cast<std::ptrdiff_t>(cap),
                       out.end(), flow_weight_before);
      out.resize(cap);
    }
    std::sort(out.begin(), out.end(), flow_weight_before);
    return out;
  }

  const trace::ReconstructedTrace* rt;
  NodeId period_node{kInvalidNode};  // the victims' period (enter())
  std::size_t period_first{0};
  std::vector<Index> indices;  // [0, live) in use, the rest spare buffers
  std::uint32_t live{0};
  std::uint32_t serials{0};
  IdTable index_ids;  // by (node, first)
  std::vector<NodeId> path_nodes;
  std::vector<Path> paths;
  IdTable path_ids;
  std::uint32_t stamped{kNone};  // the serial the paths' groups point into
  std::vector<FiveTuple> flows;
  IdTable flow_ids;
  std::vector<std::uint32_t> flow_count;  // zero between take_flows()
  std::vector<std::uint32_t> touched;
  std::vector<std::unique_ptr<Step>> steps;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> at;  // preset()

 private:
  void extend(std::uint32_t ix_id, std::size_t last) {
    Index& ix = indices[ix_id];
    if (stamped != ix.serial) {
      for (std::uint32_t g = 0; g < ix.groups.size(); ++g) {
        paths[ix.groups[g].path].index = ix.serial;
        paths[ix.groups[g].path].group = g;
      }
      stamped = ix.serial;
    }
    const NodeTimeline& tl = rt->timeline(ix.node);
    if (ix.slots.empty()) ix.slots.reserve(last - ix.first);
    for (std::size_t i = ix.first + ix.slots.size(); i < last; ++i) {
      const auto off = static_cast<std::uint32_t>(ix.slots.size());
      Slot s;
      const std::uint32_t jid = rt->journey_of(tl.arrivals[i]);
      if (jid != kNoJourney) {
        const Journey& j = rt->journey(jid);
        s.flow = flow_id(j.flow);
        // Grouped when complete and reaching the NF (else alignment noise).
        const std::uint32_t k = j.complete() ? first_hop_at(j, ix.node) : kNone;
        if (k != kNone) add_member(ix, s, off, j, k);
      }
      ix.slots.push_back(s);
    }
  }

  void add_member(Index& ix, Slot& s, std::uint32_t off, const Journey& j,
                  std::uint32_t k) {
    const std::uint32_t path = path_id(j, k);
    if (paths[path].index != ix.serial) {
      const auto g = static_cast<std::uint32_t>(ix.groups.size());
      ix.groups.push_back({path, k + 1});
      paths[path].index = ix.serial;
      paths[path].group = g;
      const auto by_nodes = [&](std::uint32_t a, std::uint32_t b) {
        const std::uint32_t pa = ix.groups[a].path;
        const std::uint32_t pb = ix.groups[b].path;
        return std::lexicographical_compare(nodes(pa), nodes(pa) + paths[pa].len,
                                            nodes(pb), nodes(pb) + paths[pb].len);
      };
      ix.order.insert(
          std::upper_bound(ix.order.begin(), ix.order.end(), g, by_nodes), g);
    }
    s.group = paths[path].group;
    Group& gr = ix.groups[s.group];
    s.prev = gr.tail;
    s.row = static_cast<std::uint32_t>(ix.rows.size());
    const std::size_t width = 2 * (2 * gr.len - 1);
    ix.rows.resize(ix.rows.size() + width);
    TimeNs* row = &ix.rows[s.row];
    if (gr.tail == kNone) {
      for (std::size_t c = 0; c < width; c += 2) {
        row[c] = kTimeNever;
        row[c + 1] = 0;
      }
    } else {
      const TimeNs* before = &ix.rows[ix.slots[gr.tail].row];
      std::copy(before, before + width, row);
    }
    fold_times(row, j, gr.len);
    gr.tail = off;
    ++gr.count;
  }

  /// The interned node sequence source, hops[0..k) of j.
  std::uint32_t path_id(const Journey& j, std::uint32_t k) {
    std::uint64_t h = j.source;
    for (std::uint32_t i = 0; i < k; ++i)
      h = (h * 0x100000001b3ULL) ^ j.hops[i].node;
    const auto fresh = static_cast<std::uint32_t>(paths.size());
    const std::uint32_t id =
        path_ids.find_or_add(mix64(h ^ k), fresh, [&](std::uint32_t p) {
          const NodeId* n = nodes(p);
          if (paths[p].len != k + 1 || n[0] != j.source) return false;
          for (std::uint32_t i = 0; i < k; ++i)
            if (n[1 + i] != j.hops[i].node) return false;
          return true;
        });
    if (id == fresh) {
      paths.push_back({static_cast<std::uint32_t>(path_nodes.size()), k + 1});
      path_nodes.push_back(j.source);
      for (std::uint32_t i = 0; i < k; ++i) path_nodes.push_back(j.hops[i].node);
    }
    return id;
  }

  std::uint32_t flow_id(const FiveTuple& f) {
    const auto fresh = static_cast<std::uint32_t>(flows.size());
    const std::uint32_t id = flow_ids.find_or_add(
        flow_hash(f), fresh, [&](std::uint32_t id) { return flows[id] == f; });
    if (id == fresh) {
      flows.push_back(f);
      flow_count.push_back(0);
    }
    return id;
  }

  /// The victim journey's arrival in `period`, as an offset into the
  /// index; kNone when it has none there. A journey arrives at a node once,
  /// at its hop's arrival time, so a binary search finds it.
  std::uint32_t victim_offset(const Index& ix, const QueuingPeriod& period,
                              std::uint32_t victim_journey) const {
    const NodeTimeline& tl = rt->timeline(ix.node);
    const auto b = tl.arrivals.begin() +
                   static_cast<std::ptrdiff_t>(period.first_arrival);
    const auto e = tl.arrivals.begin() +
                   static_cast<std::ptrdiff_t>(period.last_arrival);
    std::uint32_t off = kNone;
    const Journey& vj = rt->journey(victim_journey);
    if (const std::uint32_t k = first_hop_at(vj, ix.node); k != kNone) {
      const TimeNs t = vj.hops[k].arrival;
      for (auto it = std::lower_bound(
               b, e, t,
               [](const trace::Arrival& a, TimeNs x) { return a.t < x; });
           it != e && it->t == t; ++it) {
        if (rt->journey_of(*it) == victim_journey) {
          off = static_cast<std::uint32_t>(it - b);
          break;
        }
      }
    }
#ifndef NDEBUG
    for (auto it = b; it != e; ++it)
      assert((rt->journey_of(*it) == victim_journey) ==
             (off != kNone && it - b == static_cast<std::ptrdiff_t>(off)));
#endif
    return off;
  }
};

std::vector<Diagnosis> Diagnoser::diagnose_all(
    const std::vector<Victim>& victims, ThreadPool* pool,
    std::vector<Provenance>* provs) const {
  std::vector<Diagnosis> out(victims.size());
  if (provs) provs->resize(victims.size());
  // (node, arrival time) order: at one node a later victim's period never
  // starts earlier, so one period's victims are adjacent and each extends
  // the PreSet index the one before it built.
  struct Key {
    NodeId node;
    TimeNs time;
    std::size_t victim;
    bool operator<(const Key& o) const {
      return std::tie(node, time, victim) < std::tie(o.node, o.time, o.victim);
    }
  };
  std::vector<Key> order;
  order.reserve(victims.size());
  for (std::size_t i = 0; i < victims.size(); ++i)
    order.push_back({victims[i].node, victims[i].time, i});
  std::sort(order.begin(), order.end());
  // Pool threads reopen this thread's correlation window in every chunk.
  const std::int64_t window = obs::CorrelationScope::current_window();
  parallel_for_over(pool, order.size(), [&](std::size_t b, std::size_t e) {
    const auto wscope = obs::CorrelationScope::for_window(window);
    Workspace ws(*rt_);
    for (std::size_t i = b; i < e; ++i) {
      const std::size_t k = order[i].victim;
      out[k] = diagnose_one(ws, victims[k], provs ? &(*provs)[k] : nullptr);
    }
  });
  return out;
}

Diagnosis Diagnoser::diagnose(const Victim& v, Provenance* prov) const {
  std::vector<Provenance> provs;
  std::vector<Diagnosis> d = diagnose_all({v}, nullptr, prov ? &provs : nullptr);
  if (prov) *prov = std::move(provs.front());
  return std::move(d.front());
}

Diagnosis Diagnoser::diagnose_one(Workspace& ws, const Victim& v,
                                  Provenance* prov) const {
  DiagnoseMetrics& m = DiagnoseMetrics::get();
  obs::ScopedTimer timer(m.ns);
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

  ws.enter(f, period->first_arrival);
  const LocalScores ls = local_scores(rt_->timeline(f), *period, peak_rates_[f]);
  if (prov) {
    prov->found_period = true;
    prov->period_start = period->start;
    prov->period_end = period->end;
    prov->local = ls;
    prov->emitted_local = ls.s_p > opts_.min_score;
    prov->propagated = ls.s_i > opts_.min_score;
  }
  if (ls.s_p > opts_.min_score) emit_local(ws, f, *period, ls.s_p, 0, d);
  if (ls.s_i > opts_.min_score)
    propagate(ws, f, *period, ls.s_i, 0, v.journey, d, prov, -1);
  record_diagnosis(d, m);
  span.set_items(d.relations.size());
  return d;
}

void Diagnoser::propagate(Workspace& ws, NodeId f, const QueuingPeriod& period,
                          double base_score, int depth,
                          std::uint32_t victim_journey, Diagnosis& out,
                          Provenance* prov, int prov_parent) const {
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

  // ---- PreSet(p), grouped by upstream path. ----
  Workspace::Step& ps = ws.step(depth);
  ws.preset(ps, ws.index(f, period), period, victim_journey);
  if (prov) {
    prov->steps[step_idx].preset_packets = ps.grouped;
    prov->steps[step_idx].preset_skipped = ps.skipped;
  }
  // T_exp is shared by every path (paper §4.2, DAG case).
  const double r_f = peak_rates_[f].pkts_per_ns;
  if (ps.grouped == 0 || r_f <= 0.0) {
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
  };
  // Filled in path order; their iteration order (libstdc++'s, for these
  // integer keys) is the relation order.
  std::unordered_map<NodeId, double> nf_scores;
  std::unordered_map<NodeId, SourceAccum> source_scores;

  // Conservation accounting (always on): every path's share either lands
  // on hops (`attributed`) or is deliberately charged to nobody when the
  // path shows no compression (`uncharged`); the difference from
  // base_score is floating-point rounding only.
  double attributed = 0.0;
  double uncharged = 0.0;

  std::vector<std::pair<NodeId, std::uint32_t>>& charged = ps.charged;
  std::vector<PathHopSpan>& spans = ps.spans;
  for (std::uint32_t gi = 0; gi < ps.groups.size(); ++gi) {
    const Workspace::Step::Group& pg = ps.groups[gi];
    const double share = base_score * static_cast<double>(pg.count) /
                         static_cast<double>(ps.grouped);

    // Timespans: index 0 is the source (emit times), then each upstream NF
    // (depart times of the subset).
    const NodeId* path = ws.nodes(pg.path);
    const TimeNs* lohi = &ps.lohi[pg.lohi];
    spans.resize(pg.len);
    for (std::uint32_t k = 0; k < pg.len; ++k) {
      spans[k].node = path[k];
      spans[k].timespan = static_cast<double>(lohi[2 * k + 1] - lohi[2 * k]);
    }

    const std::vector<HopScore> hop_scores =
        attribute_timespan(spans, t_exp, share);
    double path_attributed = 0.0;
    for (const HopScore& hs : hop_scores) {
      path_attributed += hs.score;
      if (hs.score <= 0.0) continue;
      charged.emplace_back(hs.node, gi);
      if (rt_->graph().is_source(hs.node)) {
        SourceAccum& acc = source_scores[hs.node];
        acc.score += hs.score;
        acc.t0 = std::min(acc.t0, lohi[0]);
        acc.t1 = std::max(acc.t1, lohi[1]);
      } else {
        nf_scores[hs.node] += hs.score;
      }
    }
    attributed += path_attributed;
    if (path_attributed <= 0.0) uncharged += share;
    if (prov) {
      PathAttribution pa;
      pa.path.assign(path, path + pg.len);
      pa.packets = pg.count;
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
  DiagnoseMetrics::get().residual.add(std::abs(rounding));
  if (prov) {
    prov->steps[step_idx].attributed = attributed;
    prov->steps[step_idx].uncharged = uncharged;
    prov->steps[step_idx].residual = rounding;
  }

  // Culprit flows: the PreSet packets of every group charged to `node`,
  // once per charge.
  const auto charged_flows = [&](NodeId node, double score) {
    const Workspace::Index& ix = ws.indices[ps.index];
    std::size_t total = 0;
    for (const auto& [c, gi] : charged) {
      if (c != node) continue;
      total += ps.groups[gi].count;
      for (std::uint32_t o = ps.groups[gi].tail; o != kNone;
           o = ix.slots[o].prev)
        if (o != ps.victim) ws.count_flow(ix.slots[o].flow);
    }
    return ws.take_flows(score, total, opts_.max_flows_per_relation);
  };

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
    CausalRelation rel;
    rel.culprit = {src, CauseKind::kSourceTraffic};
    rel.score = acc.score;
    rel.culprit_t0 = acc.t0;
    rel.culprit_t1 = acc.t1;
    rel.depth = depth;
    rel.flows = charged_flows(src, acc.score);
    out.relations.push_back(std::move(rel));
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

    // First and last arrival of the PreSet subset at u.
    TimeNs t_first_u = kTimeNever;
    TimeNs t_last_u = 0;
    for (const auto& [c, gi] : charged) {
      if (c != u) continue;
      const Workspace::Step::Group& pg = ps.groups[gi];
      const NodeId* path = ws.nodes(pg.path);
      std::uint32_t k = 1;
      while (k < pg.len && path[k] != u) ++k;
      if (k == pg.len) continue;
      const TimeNs* arrival = &ps.lohi[pg.lohi + 2 * (pg.len - 1 + k)];
      t_first_u = std::min(t_first_u, arrival[0]);
      t_last_u = std::max(t_last_u, arrival[1]);
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
      // over the interval the PreSet spent there, with the PreSet packets
      // that traversed u as the culprit flows.
      CausalRelation rel;
      rel.culprit = {u, CauseKind::kLocalProcessing};
      rel.score = score;
      rel.culprit_t0 = t_first_u;
      rel.culprit_t1 = std::max(t_last_u, t_first_u);
      rel.depth = depth + 1;
      rel.flows = charged_flows(u, score);
      out.relations.push_back(std::move(rel));
      push_culprit(AttributionOutcome::kTerminalLocal);
      continue;
    }

    const LocalScores sub =
        local_scores(rt_->timeline(u), *period_u, peak_rates_[u]);
    const double denom = sub.s_i + sub.s_p;
    if (denom <= 0.0) {
      emit_local(ws, u, *period_u, score, depth + 1, out);
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
      emit_local(ws, u, *period_u, local_part, depth + 1, out);
    if (input_part > opts_.min_score) {
      ca.child_step = prov ? static_cast<int>(prov->steps.size()) : -1;
      propagate(ws, u, *period_u, input_part, depth + 1, victim_journey, out,
                prov, step_idx);
    }
    push_culprit(AttributionOutcome::kRecursed);
  }
}

void Diagnoser::emit_local(Workspace& ws, NodeId node,
                           const QueuingPeriod& period, double score,
                           int depth, Diagnosis& out) const {
  CausalRelation rel;
  rel.culprit = {node, CauseKind::kLocalProcessing};
  rel.score = score;
  rel.culprit_t0 = period.start;
  rel.culprit_t1 = period.end;
  rel.depth = depth;
  const std::uint32_t ix_id = ws.index(node, period);
  const Workspace::Index& ix = ws.indices[ix_id];
  std::size_t total = 0;
  for (std::size_t o = 0; o < period.last_arrival - ix.first; ++o) {
    if (ix.slots[o].flow == kNone) continue;
    ws.count_flow(ix.slots[o].flow);
    ++total;
  }
  if (total > 0)
    rel.flows = ws.take_flows(score, total, opts_.max_flows_per_relation);
  out.relations.push_back(std::move(rel));
}

}  // namespace microscope::core
