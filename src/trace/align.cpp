#include "trace/align.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/tracing.hpp"

// The alignment passes are the per-record hot path of the whole pipeline,
// so they run on structure-of-arrays data: per-entry timestamp lanes, and
// every per-link packet stream as one set of contiguous {entry, ts, ipid}
// arrays, appended once per record as it is pulled.
//
// Matching is one loop per pass. Per-link FIFO order (paper §5, Fig. 9)
// lets only the head-of-line entry of each stream match, so each rx entry
// costs one short loop over its node's few stream heads, read through flat
// per-pass cursors. When no head matches, the link pass infers queue drops
// by scanning ahead: a sorted-window search when the stream's timestamps
// are nondecreasing, the literal forward scan when they regress. The
// no-order ablation matches on private erasable copies instead.
//
// Resuming: each pass keeps, per node, how many rx entries it committed and,
// per stream, the cursor position after them. A decision commits while no
// record not yet visible can change it — every such record is at or after
// Frontier::ceiling — and the first one that could ends the committed
// prefix; everything after it is recomputed on the next call.
namespace microscope::trace {
namespace {

using collector::BatchRecord;
using collector::NodeTrace;

constexpr std::size_t kRxDir = 0;  // collector::Direction::kRx
constexpr std::size_t kTxDir = 1;  // collector::Direction::kTx

/// Flat per-pass cursor over one stream: the lane pointers, sizes, and
/// consumption head (local index) in one cache line, so the hot loops never
/// chase a Stream* indirection.
struct Ref {
  const std::uint16_t* ipids{nullptr};
  const TimeNs* ts{nullptr};
  const std::uint32_t* entries{nullptr};
  std::uint32_t head{0};
  std::uint32_t size{0};
  NodeId up{kInvalidNode};
  std::uint8_t sorted{1};
  Aligner::Stream* stream{nullptr};

  bool exhausted() const { return head >= size; }
  std::uint32_t head_entry() const { return entries[head]; }
};

Ref make_ref(Aligner::Stream& s, std::uint32_t committed_head) {
  Ref r;
  r.ipids = s.ipid.data();
  r.ts = s.ts.data();
  r.entries = s.entry.data();
  r.head = committed_head;
  r.size = static_cast<std::uint32_t>(s.entry.size());
  r.up = s.up;
  r.sorted = s.sorted ? 1 : 0;
  r.stream = &s;
  return r;
}

/// Owned, erasable copy of a stream for the no-order ablation (matching
/// without the FIFO discipline consumes entries from the middle).
struct OwnedLanes {
  NodeId up{kInvalidNode};
  std::vector<std::uint32_t> entries;
  std::vector<TimeNs> ts;
  std::vector<std::uint16_t> ipids;
};

template <typename T>
void drop_front(std::vector<T>& v, std::size_t n) {
  v.erase(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(n));
}

template <typename T>
std::size_t bytes_of(const std::vector<T>& v) {
  return v.size() * sizeof(T);
}

}  // namespace

RecordLanes lanes_of(const collector::Collector& col) {
  RecordLanes out(col.node_count());
  for (NodeId id = 0; id < col.node_count(); ++id)
    if (col.has_node(id)) out[id].trace = &col.node(id);
  return out;
}

AlignMetrics& AlignMetrics::get() {
  obs::Registry& r = obs::Registry::global();
  static AlignMetrics m{r.histogram("trace.align.prepare_ns"),
                        r.histogram("trace.align.link_pass_ns"),
                        r.histogram("trace.align.internal_pass_ns"),
                        r.counter("trace.align.link_matched"),
                        r.counter("trace.align.link_ambiguous"),
                        r.counter("trace.align.link_unmatched"),
                        r.counter("trace.align.queue_drops_inferred"),
                        r.counter("trace.align.internal_matched"),
                        r.counter("trace.align.internal_ambiguous"),
                        r.counter("trace.align.internal_expired"),
                        r.counter("trace.align.policy_drops_inferred")};
  return m;
}

Aligner::Aligner(const GraphView& graph, const AlignOptions& opts)
    : graph_(graph),
      opts_(opts),
      nodes_(graph.node_count()),
      downstreams_seen_(graph.node_count(), 0) {
  AlignMetrics::get();  // the stage's names exist once an Aligner does
  for (NodeId id = 0; id < graph.node_count(); ++id)
    downstreams_seen_[id] = graph.downstreams[id].empty() ? 1 : 0;
}

void Aligner::pull(const RecordLanes& lanes, TimeNs ceiling,
                   std::vector<NodeAlignment>& out, ThreadPool* pool) {
  const std::size_t n = graph_.node_count();
  out.resize(n);
  auto pull_node = [&](NodeId id) {
    if (graph_.kinds[id] == NodeKind::kSink || id >= lanes.size() ||
        lanes[id].trace == nullptr)
      return;
    const NodeLanes& l = lanes[id];
    const NodeTrace& t = *l.trace;
    NodeAlignment& a = out[id];
    Node& nd = nodes_[id];

    // The new batches of a direction: [first, last) with ts <= ceiling, and
    // the absolute entry count the lanes grow to. Each lane is resized
    // once per pull, so a whole trace pulled at once is allocated exactly.
    auto visible = [&](const std::vector<BatchRecord>& batches,
                       std::size_t dir, std::size_t& first, std::size_t& last,
                       std::uint32_t& entries) {
      first = static_cast<std::size_t>(nd.next_batch[dir] - l.batch_base[dir]);
      last = first;
      while (last < batches.size() && batches[last].ts <= ceiling) {
        entries = std::max<std::uint32_t>(
            entries, l.entry_base[dir] + batches[last].begin +
                         batches[last].count);
        ++last;
      }
      nd.next_batch[dir] = l.batch_base[dir] + last;
    };

    // rx side: per-entry timestamp lane plus undecided alignment slots.
    std::size_t first = 0;
    std::size_t last = 0;
    std::uint32_t rx_end = a.rx_end();
    visible(t.rx_batches, kRxDir, first, last, rx_end);
    a.rx_origin.resize(rx_end - a.rx_base);
    a.rx_to_tx.resize(rx_end - a.rx_base, kNoEntry);
    a.rx_entry_ts.resize(rx_end - a.rx_base, 0);
    for (std::size_t b = first; b < last; ++b) {
      const BatchRecord& rec = t.rx_batches[b];
      std::fill_n(a.rx_entry_ts.begin() +
                      (l.entry_base[kRxDir] + rec.begin - a.rx_base),
                  rec.count, rec.ts);
      nd.last_read = rec.ts;
    }

    // tx side: per-entry lanes, and each entry appended to the stream
    // toward its peer (peers keyed in first-appearance order). A first
    // scan finds each stream's share so its lanes grow once.
    std::uint32_t tx_end = a.tx_end();
    visible(t.tx_batches, kTxDir, first, last, tx_end);
    const std::size_t tx_size = tx_end - a.tx_base;
    a.tx_to_rx.resize(tx_size, kNoEntry);
    a.tx_consumer.resize(tx_size, kNoEntry);
    a.tx_dropped_downstream.resize(tx_size, 0);
    a.tx_peer.resize(tx_size, kInvalidNode);
    a.tx_entry_ts.resize(tx_size, 0);
    auto stream_of = [&](NodeId peer, std::uint32_t& sl) -> Stream& {
      if (sl >= nd.out.size() || nd.out[sl].peer != peer) {
        sl = 0;
        while (sl < nd.out.size() && nd.out[sl].peer != peer) ++sl;
        if (sl == nd.out.size()) {
          Stream& s = nd.out.emplace_back();
          s.up = id;
          s.peer = peer;
        }
      }
      return nd.out[sl];
    };
    std::vector<std::size_t> grow(nd.out.size(), 0);
    std::uint32_t sl = 0;  // stream of the previous batch
    for (std::size_t b = first; b < last; ++b) {
      const BatchRecord& rec = t.tx_batches[b];
      stream_of(rec.peer, sl);
      grow.resize(nd.out.size(), 0);
      grow[sl] += rec.count;
    }
    for (std::size_t i = 0; i < nd.out.size(); ++i) {
      Stream& s = nd.out[i];
      const std::size_t want = s.entry.size() + grow[i];
      if (want <= s.entry.capacity()) continue;
      const std::size_t cap = std::max(want, 2 * s.entry.capacity());
      s.entry.reserve(cap);
      s.ts.reserve(cap);
      s.ipid.reserve(cap);
    }
    for (std::size_t b = first; b < last; ++b) {
      const BatchRecord& rec = t.tx_batches[b];
      Stream& s = stream_of(rec.peer, sl);
      const std::uint32_t begin = l.entry_base[kTxDir] + rec.begin;
      if (!s.ts.empty() && rec.ts < s.ts.back()) s.sorted = false;
      for (std::uint32_t k = 0; k < rec.count; ++k) {
        const std::size_t e = begin + k - a.tx_base;
        a.tx_peer[e] = rec.peer;
        a.tx_entry_ts[e] = rec.ts;
        s.entry.push_back(begin + k);
        s.ts.push_back(rec.ts);
        s.ipid.push_back(t.tx_ipids[rec.begin + k]);
      }
    }
  };
  parallel_for_over(pool, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t id = lo; id < hi; ++id)
      pull_node(static_cast<NodeId>(id));
  });

  // List new streams at their peers, in graph upstream order (the order
  // link alignment scans candidates in).
  for (NodeId u = 0; u < n; ++u) {
    Node& nu = nodes_[u];
    if (nu.registered == nu.out.size()) continue;
    for (; nu.registered < nu.out.size(); ++nu.registered) {
      Stream& s = nu.out[nu.registered];
      const NodeId d = s.peer;
      if (d >= n || graph_.kinds[d] != NodeKind::kNf || d >= lanes.size() ||
          lanes[d].trace == nullptr)
        continue;
      const std::vector<NodeId>& ups = graph_.upstreams[d];
      const auto rank = [&](NodeId x) {
        return std::find(ups.begin(), ups.end(), x) - ups.begin();
      };
      if (rank(u) == static_cast<std::ptrdiff_t>(ups.size())) continue;
      s.linked = true;
      std::vector<InStream>& in = nodes_[d].in;
      const auto at = std::find_if(in.begin(), in.end(), [&](const InStream& x) {
        return rank(x.up) > rank(u);
      });
      in.insert(at, InStream{u, static_cast<std::uint32_t>(nu.registered)});
    }
    bool seen = true;
    for (const NodeId p : graph_.downstreams[u]) {
      seen &= std::any_of(nu.out.begin(), nu.out.end(),
                          [&](const Stream& s) { return s.peer == p; });
    }
    downstreams_seen_[u] = seen ? 1 : 0;
  }
}

void Aligner::link_node_unordered(NodeId d, const RecordLanes& lanes,
                                  std::vector<NodeAlignment>& out,
                                  AlignStats& local) {
  // The no-order ablation consumes entries from the middle of a stream,
  // so it runs on private erasable copies (offline only: it commits
  // everything in one call).
  const NodeTrace& dt = *lanes[d].trace;
  NodeAlignment& da = out[d];
  Node& nd = nodes_[d];
  std::vector<OwnedLanes> own;
  for (const InStream& in : nd.in) {
    const Stream& s = stream(in);
    OwnedLanes o;
    o.up = s.up;
    o.entries = s.entry;
    o.ts = s.ts;
    o.ipids = s.ipid;
    own.push_back(std::move(o));
  }
  const std::uint32_t ebase = lanes[d].entry_base[kRxDir];
  for (std::uint32_t j = nd.link_done; j < da.rx_end(); ++j) {
    const std::uint16_t ipid = dt.rx_ipids[j - ebase];
    const TimeNs read_ts = da.rx_entry_ts[j - da.rx_base];
    int best = -1;
    TimeNs best_ts = kTimeNever;
    std::size_t best_pos = 0;
    int candidates = 0;
    for (std::size_t s = 0; s < own.size(); ++s) {
      const OwnedLanes& o = own[s];
      for (std::size_t k = 0; k < o.entries.size(); ++k) {
        if (o.ipids[k] != ipid) continue;
        const TimeNs tx_ts = o.ts[k];
        if (opts_.use_timing) {
          if (tx_ts > read_ts + opts_.slack) continue;
          if (read_ts - tx_ts > opts_.max_link_delay) continue;
        }
        ++candidates;
        if (tx_ts < best_ts ||
            (tx_ts == best_ts && best >= 0 &&
             o.up < own[static_cast<std::size_t>(best)].up)) {
          best = static_cast<int>(s);
          best_ts = tx_ts;
          best_pos = k;
        }
        break;  // first unconsumed match per stream
      }
    }
    if (best >= 0) {
      // Without the order discipline we cannot infer drops from skips;
      // just consume the matched entry.
      OwnedLanes& o = own[static_cast<std::size_t>(best)];
      if (candidates > 1) ++local.link_ambiguous;
      const std::uint32_t e = o.entries[best_pos];
      da.rx_origin[j - da.rx_base] = TxRef{o.up, e};
      out[o.up].tx_consumer[e - out[o.up].tx_base] = j;
      const auto at = static_cast<std::ptrdiff_t>(best_pos);
      o.entries.erase(o.entries.begin() + at);
      o.ts.erase(o.ts.begin() + at);
      o.ipids.erase(o.ipids.begin() + at);
      ++local.link_matched;
    } else {
      ++local.link_unmatched;
    }
  }
  // Remaining unconsumed upstream entries: dropped if their deadline has
  // passed relative to the node's last read.
  for (const OwnedLanes& o : own) {
    for (std::size_t k = 0; k < o.entries.size(); ++k) {
      if (nd.last_read - o.ts[k] > opts_.max_link_delay) {
        out[o.up].tx_dropped_downstream[o.entries[k] - out[o.up].tx_base] = 1;
        ++local.queue_drops_inferred;
      }
    }
  }
  nd.link_done = da.rx_end();
  for (const InStream& in : nd.in) {
    Stream& s = nodes_[in.up].out[in.idx];
    s.link_head = s.end();
  }
}

void Aligner::link_node(NodeId d, const RecordLanes& lanes, const Frontier& f,
                        std::vector<NodeAlignment>& out, AlignStats& local) {
  if (graph_.kinds[d] != NodeKind::kNf || d >= lanes.size() ||
      lanes[d].trace == nullptr)
    return;
  if (!opts_.use_order) {
    link_node_unordered(d, lanes, out, local);
    return;
  }
  const NodeTrace& dt = *lanes[d].trace;
  NodeAlignment& da = out[d];
  Node& nd = nodes_[d];
  const std::uint32_t ebase = lanes[d].entry_base[kRxDir];

  // Cursors over the upstream streams headed here, in graph order. An
  // upstream that never sent to d contributes no stream — an empty stream
  // can never be a candidate, so skipping it is equivalent.
  std::vector<Ref> cur;
  std::vector<NodeAlignment*> up_align;
  for (const InStream& in : nd.in) {
    Stream& s = stream(in);
    cur.push_back(make_ref(s, s.link_head));
    up_align.push_back(&out[in.up]);
  }
  Ref* refs = cur.data();
  const std::size_t S = cur.size();

  bool committing = true;
  AlignStats spec;  // counts of decisions that may still change
  auto commit_at = [&](std::uint32_t j) {
    nd.link_done = j;
    for (std::size_t s = 0; s < S; ++s)
      refs[s].stream->link_head = refs[s].head;
  };
  auto flag_dropped = [&](std::size_t s, std::uint32_t k, AlignStats& st) {
    const std::uint32_t e = refs[s].entries[k];
    up_align[s]->tx_dropped_downstream[e - up_align[s]->tx_base] = 1;
    ++st.queue_drops_inferred;
  };
  auto consume = [&](std::size_t s, std::uint32_t k, std::uint32_t j) {
    const std::uint32_t e = refs[s].entries[k];
    da.rx_origin[j - da.rx_base] = TxRef{refs[s].up, e};
    up_align[s]->tx_consumer[e - up_align[s]->tx_base] = j;
  };

  // No head-of-line candidate for entry j: per-link FIFO means that if
  // this rx entry matches a *later* entry of some stream, every entry
  // the match skips over was dropped at this node's input queue (it
  // entered the queue earlier yet was never read). Scan ahead within the
  // time bound and take the match with the fewest skips. On a sorted
  // stream the original forward scan — skip entries older than the link
  // delay, stop at the first entry beyond read_ts + slack — is exactly
  // the first IPID hit inside a binary-searched window; streams with
  // timestamp regressions take the literal scan.
  auto scan_ahead = [&](std::uint32_t j, std::uint16_t ipid, TimeNs read_ts,
                        AlignStats& st) {
    std::size_t best_stream = S;
    std::size_t best_pos = 0;
    std::size_t best_skips = static_cast<std::size_t>(-1);
    for (std::size_t s = 0; s < S; ++s) {
      const Ref& r = refs[s];
      const std::size_t sz = r.size;
      std::size_t k;
      if (r.sorted) {
        const TimeNs* tsd = r.ts;
        const std::size_t lo = static_cast<std::size_t>(
            std::lower_bound(tsd + r.head, tsd + sz,
                             read_ts - opts_.max_link_delay) -
            tsd);
        const std::size_t hi = static_cast<std::size_t>(
            std::upper_bound(tsd + lo, tsd + sz, read_ts + opts_.slack) -
            tsd);
        k = static_cast<std::size_t>(
            std::find(r.ipids + lo, r.ipids + hi, ipid) - r.ipids);
        if (k >= hi) continue;
      } else {
        k = sz;
        for (std::size_t i = r.head; i < sz; ++i) {
          const TimeNs tx_ts = r.ts[i];
          if (tx_ts > read_ts + opts_.slack) break;  // not yet arrived
          if (read_ts - tx_ts > opts_.max_link_delay) continue;
          if (r.ipids[i] != ipid) continue;
          k = i;
          break;  // first in-window match per stream is the FIFO-legal one
        }
        if (k >= sz) continue;
      }
      const std::size_t skips = k - r.head;
      if (skips < best_skips) {
        best_skips = skips;
        best_stream = s;
        best_pos = k;
      }
    }
    if (best_stream < S) {
      Ref& r = refs[best_stream];
      for (std::uint32_t k = r.head; k < best_pos; ++k)
        flag_dropped(best_stream, k, st);
      consume(best_stream, static_cast<std::uint32_t>(best_pos), j);
      r.head = static_cast<std::uint32_t>(best_pos) + 1;
      ++st.link_matched;
      ++st.link_ambiguous;  // resolved beyond head-of-line
    } else {
      ++st.link_unmatched;
    }
  };

  const std::uint32_t j1 = da.rx_end();
  for (std::uint32_t j = nd.link_done; j < j1; ++j) {
    const std::uint16_t ipid = dt.rx_ipids[j - ebase];
    const TimeNs read_ts = da.rx_entry_ts[j - da.rx_base];
    // A record not yet visible (tx ts >= ceiling) is a candidate only when
    // tx_ts <= read_ts + slack.
    if (committing && !f.final() && read_ts >= f.force &&
        !(opts_.use_timing && read_ts + opts_.slack < f.ceiling)) {
      commit_at(j);
      committing = false;
    }
    AlignStats& st = committing ? local : spec;

    // Candidate upstreams: head-of-line entries with the right IPID
    // inside the delay bound (side channels 1-3). The ablation knob
    // disables the timing bound (side channel 2).
    int best = -1;
    TimeNs best_ts = kTimeNever;
    int candidates = 0;
    for (std::size_t s = 0; s < S; ++s) {
      const Ref& r = refs[s];
      if (r.exhausted()) continue;
      if (r.ipids[r.head] != ipid) continue;
      const TimeNs tx_ts = r.ts[r.head];
      if (opts_.use_timing) {
        if (tx_ts > read_ts + opts_.slack) continue;
        if (read_ts - tx_ts > opts_.max_link_delay) continue;
      }
      ++candidates;
      if (tx_ts < best_ts ||
          (tx_ts == best_ts && best >= 0 &&
           r.up < refs[static_cast<std::size_t>(best)].up)) {
        best = static_cast<int>(s);
        best_ts = tx_ts;
      }
    }
    if (best >= 0) {
      if (candidates > 1) ++st.link_ambiguous;
      Ref& r = refs[static_cast<std::size_t>(best)];
      consume(static_cast<std::size_t>(best), r.head, j);
      ++r.head;
      ++st.link_matched;
      continue;
    }
    if (!opts_.use_timing) {
      // Drop inference below needs both FIFO order and timing bounds.
      ++st.link_unmatched;
      continue;
    }
    scan_ahead(j, ipid, read_ts, st);
  }
  if (committing) commit_at(j1);

  // Remaining unconsumed upstream entries: dropped if their deadline has
  // passed relative to the node's last read (otherwise still in flight).
  // Only final at the end of the trace; online these flags are recomputed
  // on every call.
  AlignStats& st = f.final() ? local : spec;
  for (std::size_t s = 0; s < S; ++s) {
    Ref& r = refs[s];
    for (; r.head < r.size; ++r.head)
      if (nd.last_read - r.ts[r.head] > opts_.max_link_delay)
        flag_dropped(s, r.head, st);
  }
  if (f.final()) commit_at(j1);
}

void Aligner::internal_node(NodeId d, const RecordLanes& lanes,
                            const Frontier& f,
                            std::vector<NodeAlignment>& out,
                            AlignStats& local) {
  if (graph_.kinds[d] != NodeKind::kNf || d >= lanes.size() ||
      lanes[d].trace == nullptr)
    return;
  const NodeTrace& dt = *lanes[d].trace;
  NodeAlignment& da = out[d];
  Node& nd = nodes_[d];
  const std::uint32_t ebase = lanes[d].entry_base[kRxDir];

  // Output streams keyed by destination in first-appearance order. The
  // link pass walks the same arrays through its own cursors.
  std::vector<Ref> cur;
  cur.reserve(nd.out.size());
  for (Stream& s : nd.out) cur.push_back(make_ref(s, s.int_head));
  Ref* refs = cur.data();
  const std::size_t S = cur.size();
  // Heads after expiring the entries the current rx entry cannot claim.
  std::vector<std::uint32_t> next(S);

  bool committing = true;
  AlignStats spec;
  auto commit_at = [&](std::uint32_t i) {
    nd.int_done = i;
    for (std::size_t s = 0; s < S; ++s)
      refs[s].stream->int_head = refs[s].head;
  };

  const std::uint32_t i1 = da.rx_end();
  for (std::uint32_t i = nd.int_done; i < i1; ++i) {
    const std::uint16_t ipid = dt.rx_ipids[i - ebase];
    const TimeNs read_ts = da.rx_entry_ts[i - da.rx_base];
    int best = -1;
    TimeNs best_ts = kTimeNever;
    int candidates = 0;
    bool all_pending = downstreams_seen_[d] != 0;  // no stream exhausted
    std::uint64_t expired = 0;
    for (std::size_t s = 0; s < S; ++s) {
      const Ref& r = refs[s];
      // Expired head entries (tx earlier than any remaining read can
      // explain) are permanently unclaimable: per-node reads are
      // time-ordered, so read_ts only grows. They occur when the tx
      // entry's rx record is missing — a partial trace (e.g. an evicted
      // prefix) or a lost record — and leaving one at the head would
      // wedge the whole output stream into policy drops.
      std::uint32_t h = r.head;
      while (h < r.size && r.ts[h] + opts_.slack < read_ts) ++h;
      expired += h - r.head;
      next[s] = h;
      if (h >= r.size) {
        all_pending = false;
        continue;
      }
      if (r.ipids[h] != ipid) continue;
      const TimeNs tx_ts = r.ts[h];
      if (tx_ts - read_ts > opts_.max_nf_delay) continue;
      ++candidates;
      if (tx_ts < best_ts) {
        best = static_cast<int>(s);
        best_ts = tx_ts;
      }
    }
    // A record not yet visible (ts >= ceiling) lands behind every head
    // present, so it can only change a match by being an earlier
    // candidate, and a policy drop by heading an exhausted stream (or a
    // stream to a downstream not yet seen) within max_nf_delay.
    if (committing && !f.final() && read_ts >= f.force) {
      const bool decided =
          best >= 0 ? best_ts < f.ceiling
                    : all_pending || read_ts + opts_.max_nf_delay < f.ceiling;
      if (!decided) {
        commit_at(i);
        committing = false;
      }
    }
    AlignStats& st = committing ? local : spec;
    st.internal_expired += expired;
    for (std::size_t s = 0; s < S; ++s) refs[s].head = next[s];
    if (best >= 0) {
      if (candidates > 1) ++st.internal_ambiguous;
      Ref& r = refs[static_cast<std::size_t>(best)];
      const std::uint32_t e = r.head_entry();
      da.rx_to_tx[i - da.rx_base] = e;
      da.tx_to_rx[e - da.tx_base] = i;
      ++r.head;
      ++st.internal_matched;
    } else {
      // The NF consumed the packet without emitting it: policy drop.
      ++st.policy_drops_inferred;
    }
  }
  if (committing) commit_at(i1);
  // At the end of the trace every remaining entry's claim is settled too.
  if (f.final())
    for (Stream& s : nd.out) s.int_head = s.end();
}

void Aligner::match(const RecordLanes& lanes, const Frontier& f,
                    std::vector<NodeAlignment>& out, AlignStats& committed,
                    ThreadPool* pool) {
  obs::TraceSpan span("trace", "align");
  const std::size_t n = graph_.node_count();
  span.set_items(n);
  // Per-node stat shards, merged in node-id order at the end.
  std::vector<AlignStats> node_stats(n);
  AlignMetrics& m = AlignMetrics::get();
  // Pass 1 writes only out[d], its cursors, and the consumer / drop flag
  // slots of entries whose peer is d; pass 2 only out[d] and d's own
  // streams' internal cursors — per-node sharding is race-free.
  {
    obs::ScopedTimer t(m.link_pass_ns);
    parallel_for_over(pool, n, [&](std::size_t b, std::size_t e) {
      for (std::size_t id = b; id < e; ++id)
        link_node(static_cast<NodeId>(id), lanes, f, out, node_stats[id]);
    });
  }
  {
    obs::ScopedTimer t(m.internal_pass_ns);
    parallel_for_over(pool, n, [&](std::size_t b, std::size_t e) {
      for (std::size_t id = b; id < e; ++id)
        internal_node(static_cast<NodeId>(id), lanes, f, out, node_stats[id]);
    });
  }

  AlignStats total;
  for (const AlignStats& s : node_stats) total += s;
  committed += total;
  // Registry mirror of the committed AlignStats: link_ambiguous doubles as
  // the IPID-collision resolution count (matches that needed the
  // order/time side channels to disambiguate).
  m.link_matched.add(total.link_matched);
  m.link_ambiguous.add(total.link_ambiguous);
  m.link_unmatched.add(total.link_unmatched);
  m.queue_drops_inferred.add(total.queue_drops_inferred);
  m.internal_matched.add(total.internal_matched);
  m.internal_ambiguous.add(total.internal_ambiguous);
  m.internal_expired.add(total.internal_expired);
  m.policy_drops_inferred.add(total.policy_drops_inferred);
}

void Aligner::rollback(std::vector<NodeAlignment>& out, ThreadPool* pool) {
  const std::size_t n = graph_.node_count();
  // Writes land on out[d], d's own streams, and the entries whose peer is
  // d — the same ownership as the passes.
  auto undo = [&](NodeId d) {
    if (graph_.kinds[d] != NodeKind::kNf) return;
    Node& nd = nodes_[d];
    NodeAlignment& da = out[d];
    std::fill(da.rx_origin.begin() + (nd.link_done - da.rx_base),
              da.rx_origin.end(), TxRef{});
    std::fill(da.rx_to_tx.begin() + (nd.int_done - da.rx_base),
              da.rx_to_tx.end(), kNoEntry);
    for (const InStream& in : nd.in) {
      const Stream& s = stream(in);
      NodeAlignment& ua = out[in.up];
      for (std::uint32_t p = s.link_head; p < s.end(); ++p) {
        const std::uint32_t e = s.entry[p] - ua.tx_base;
        ua.tx_consumer[e] = kNoEntry;
        ua.tx_dropped_downstream[e] = 0;
      }
    }
    for (const Stream& s : nd.out)
      for (std::uint32_t p = s.int_head; p < s.end(); ++p)
        da.tx_to_rx[s.entry[p] - da.tx_base] = kNoEntry;
  };
  parallel_for_over(pool, n, [&](std::size_t b, std::size_t e) {
    for (std::size_t id = b; id < e; ++id) undo(static_cast<NodeId>(id));
  });
}

void Aligner::evict_before(TimeNs horizon, std::vector<NodeAlignment>& out) {
  // How many of a lane's front elements are older than `horizon`.
  const auto older = [&](const std::vector<TimeNs>& ts) {
    std::size_t k = 0;
    while (k < ts.size() && ts[k] < horizon) ++k;
    return k;
  };
  for (NodeId id = 0; id < nodes_.size() && id < out.size(); ++id) {
    Node& nd = nodes_[id];
    NodeAlignment& a = out[id];
    const std::size_t rx_gone = older(a.rx_entry_ts);
    drop_front(a.rx_origin, rx_gone);
    drop_front(a.rx_to_tx, rx_gone);
    drop_front(a.rx_entry_ts, rx_gone);
    a.rx_base += static_cast<std::uint32_t>(rx_gone);
    nd.link_done = std::max(nd.link_done, a.rx_base);
    nd.int_done = std::max(nd.int_done, a.rx_base);
    const std::size_t tx_gone = older(a.tx_entry_ts);
    drop_front(a.tx_to_rx, tx_gone);
    drop_front(a.tx_consumer, tx_gone);
    drop_front(a.tx_dropped_downstream, tx_gone);
    drop_front(a.tx_peer, tx_gone);
    drop_front(a.tx_entry_ts, tx_gone);
    a.tx_base += static_cast<std::uint32_t>(tx_gone);
    for (Stream& s : nd.out) {
      const auto gone = static_cast<std::uint32_t>(older(s.ts));
      drop_front(s.entry, gone);
      drop_front(s.ts, gone);
      drop_front(s.ipid, gone);
      for (std::uint32_t* cursor : {&s.link_head, &s.int_head, &s.arrived})
        *cursor = std::max(*cursor, gone) - gone;
    }
  }
}

void Aligner::visit_numbers(std::vector<NodeAlignment>& out,
                            const NumberVisitor& visit) {
  for (NodeId id = 0; id < nodes_.size() && id < out.size(); ++id) {
    Node& nd = nodes_[id];
    NodeAlignment& a = out[id];
    const NumberSpace rx{Numbering::kRx, id};
    const NumberSpace tx{Numbering::kTx, id};
    visit(rx, a.rx_base);
    visit(tx, a.tx_base);
    for (TxRef& o : a.rx_origin)
      if (o.valid()) visit({Numbering::kTx, o.node}, o.idx);
    for (std::uint32_t& e : a.rx_to_tx)
      if (e != kNoEntry) visit(tx, e);
    for (std::uint32_t& e : a.tx_to_rx)
      if (e != kNoEntry) visit(rx, e);
    for (std::size_t k = 0; k < a.tx_consumer.size(); ++k)
      if (a.tx_consumer[k] != kNoEntry)
        visit({Numbering::kRx, a.tx_peer[k]}, a.tx_consumer[k]);
    visit(rx, nd.link_done);
    visit(rx, nd.int_done);
    for (Stream& s : nd.out)
      for (std::uint32_t& e : s.entry) visit(tx, e);
  }
}

namespace {

/// The outgoing stream of `nd` toward `peer` (nullptr: none).
const Aligner::Stream* stream_to(const Aligner::Node& nd, NodeId peer) {
  for (const Aligner::Stream& s : nd.out)
    if (s.peer == peer) return &s;
  return nullptr;
}

/// Entry `tx` of stream `s` lies before position `head`: stream entries
/// are increasing, so that is comparing it with the entry at `head`.
bool before(const Aligner::Stream& s, std::uint32_t head, std::uint32_t tx) {
  return head >= s.end() || tx < s.entry[head];
}

}  // namespace

bool Aligner::claim_committed(NodeId u, std::uint32_t tx,
                              const NodeAlignment& a) const {
  if (graph_.kinds[u] != NodeKind::kNf) return true;  // never claimed
  const Stream* s = stream_to(nodes_[u], a.tx_peer[tx - a.tx_base]);
  return s == nullptr || before(*s, s->int_head, tx);
}

bool Aligner::fate_committed(NodeId u, std::uint32_t tx,
                             const NodeAlignment& a) const {
  const Stream* s = stream_to(nodes_[u], a.tx_peer[tx - a.tx_base]);
  return s == nullptr || !s->linked || before(*s, s->link_head, tx);
}

std::size_t Aligner::retained_bytes() const {
  std::size_t bytes = 0;
  for (const Node& nd : nodes_)
    for (const Stream& s : nd.out)
      bytes += bytes_of(s.entry) + bytes_of(s.ts) + bytes_of(s.ipid);
  return bytes;
}

std::vector<NodeAlignment> align_all(const collector::Collector& col,
                                     const GraphView& graph,
                                     const AlignOptions& opts,
                                     AlignStats* stats, ThreadPool* pool) {
  const RecordLanes lanes = lanes_of(col);
  Aligner al(graph, opts);
  std::vector<NodeAlignment> out;
  {
    obs::ScopedTimer t(AlignMetrics::get().prepare_ns);
    al.pull(lanes, kTimeNever, out, pool);
  }
  AlignStats total;
  al.match(lanes, Frontier{}, out, total, pool);
  if (stats) *stats = total;
  return out;
}

}  // namespace microscope::trace
