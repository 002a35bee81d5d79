#include "trace/align.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/tracing.hpp"

// The alignment passes here are the per-record hot path of the whole
// pipeline, so they run on structure-of-arrays data: per-entry timestamp
// and IPID lanes are expanded once (prepare pass) and every per-link
// packet stream is one set of contiguous {entry, ts, ipid} arrays. Real
// traces average barely more than one entry per batch record, so the
// prepare pass is written for that regime: expansion branches to plain
// stores for one-entry batches, and a node that sends to a single peer
// whose batches tile its entry range exactly (the canonical collector
// layout) gets a zero-copy stream view — identity entry map, lanes
// aliasing the node's expanded tx arrays — instead of a materialized
// copy.
//
// Matching is one loop per pass. Per-link FIFO order (paper §5, Fig. 9)
// lets only the head-of-line entry of each stream match, so each rx entry
// costs one short loop over its node's few stream heads, read through flat
// per-pass cursors. When no head matches, the link pass infers queue drops
// by scanning ahead: a sorted-window search when the stream's timestamps
// are nondecreasing, the literal forward scan when they regress. The
// no-order ablation matches on private erasable copies instead.
namespace microscope::trace {
namespace {

using collector::BatchRecord;
using collector::NodeTrace;

/// Expand batch records into per-entry SoA lanes (batch index + batch
/// timestamp).
void expand_batches(const std::vector<BatchRecord>& batches,
                    std::size_t entry_count,
                    std::vector<std::uint32_t>& batch_of,
                    std::vector<TimeNs>& entry_ts) {
  batch_of.assign(entry_count, kNoEntry);
  entry_ts.assign(entry_count, 0);
  std::uint32_t* bo = batch_of.data();
  TimeNs* ets = entry_ts.data();
  const BatchRecord* recs = batches.data();
  const std::uint32_t nb = static_cast<std::uint32_t>(batches.size());
  for (std::uint32_t b = 0; b < nb; ++b) {
    const TimeNs ts = recs[b].ts;
    const std::uint32_t begin = recs[b].begin;
    const std::uint32_t count = recs[b].count;
    if (count == 1) {  // the overwhelmingly common case on real traces
      bo[begin] = b;
      ets[begin] = ts;
    } else {
      for (std::uint32_t k = 0; k < count; ++k) {
        bo[begin + k] = b;
        ets[begin + k] = ts;
      }
    }
  }
}

/// One packet stream between a (tx node, peer) pair as contiguous SoA
/// lanes: tx entry index, tx batch timestamp, and IPID per packet, in
/// FIFO order. Built once per tx node; the link pass (run by the
/// downstream node) and the internal pass (run by the owner) each walk it
/// through their own cursor, so the arrays stay immutable and the
/// per-node shards cannot race.
///
/// A single-peer node with canonically tiled batches is a zero-copy view:
/// `entries == nullptr` means the identity map (entry k is just k) and the
/// ts/ipid lanes alias NodeAlignment::tx_entry_ts / NodeTrace::tx_ipids.
/// Multi-peer (or non-canonical) nodes materialize per-peer copies into
/// the *_store vectors.
struct Stream {
  NodeId up{kInvalidNode};    // tx-side owner
  NodeId peer{kInvalidNode};  // destination the entries were sent to
  const std::uint32_t* entries{nullptr};
  const TimeNs* ts{nullptr};
  const std::uint16_t* ipids{nullptr};
  std::uint32_t n{0};
  bool sorted{true};  // ts nondecreasing
  std::vector<std::uint32_t> entries_store;
  std::vector<TimeNs> ts_store;
  std::vector<std::uint16_t> ipids_store;
};

/// Build every outgoing stream of node `up`, keyed by peer in
/// first-appearance order (the order the internal pass discovers
/// destinations in), and expand the node's tx batch records into the
/// per-entry SoA lanes of `a` in the same scan. The scan also discovers
/// peers, counts, and whether the batches tile the entry range exactly;
/// the single-peer canonical case then returns a zero-copy view,
/// everything else materializes in a second scan. `slot` is
/// caller-provided scratch (node-count sized, all -1) mapping
/// peer -> stream index; it is restored before returning.
std::vector<Stream> build_streams(const NodeTrace& t, NodeId up,
                                  NodeAlignment& a,
                                  std::vector<std::int32_t>& slot) {
  std::vector<Stream> out;
  const BatchRecord* recs = t.tx_batches.data();
  const std::size_t nb = t.tx_batches.size();
  const std::size_t entry_count = t.tx_ipids.size();

  a.tx_batch_of.assign(entry_count, kNoEntry);
  a.tx_entry_ts.assign(entry_count, 0);
  std::uint32_t* bo = a.tx_batch_of.data();
  TimeNs* ets = a.tx_entry_ts.data();

  // Peer ids normally index the graph, but a trace may name peers outside
  // it (e.g. an egress the graph does not model); those fall back to a
  // linear search over the handful of streams.
  auto slot_of = [&](NodeId peer) -> std::int32_t {
    if (peer < slot.size()) return slot[peer];
    for (std::size_t i = 0; i < out.size(); ++i)
      if (out[i].peer == peer) return static_cast<std::int32_t>(i);
    return -1;
  };

  bool tx_sorted = true;
  bool canonical = true;
  TimeNs prev = std::numeric_limits<TimeNs>::min();
  std::uint32_t next = 0;
  for (std::size_t b = 0; b < nb; ++b) {
    const TimeNs ts = recs[b].ts;
    const std::uint32_t begin = recs[b].begin;
    const std::uint32_t count = recs[b].count;
    const NodeId peer = recs[b].peer;
    tx_sorted &= ts >= prev;
    prev = ts;
    if (count != 0) {
      const std::uint32_t bi = static_cast<std::uint32_t>(b);
      bo[begin] = bi;
      ets[begin] = ts;
      for (std::uint32_t k = 1; k < count; ++k) {
        bo[begin + k] = bi;
        ets[begin + k] = ts;
      }
    }
    std::int32_t sl = slot_of(peer);
    if (sl < 0) {
      sl = static_cast<std::int32_t>(out.size());
      if (peer < slot.size()) slot[peer] = sl;
      Stream& s = out.emplace_back();
      s.up = up;
      s.peer = peer;
    }
    out[static_cast<std::size_t>(sl)].n += count;
    canonical &= begin == next;
    next += count;
  }
  canonical &= next == entry_count;

  if (out.size() == 1 && canonical) {
    Stream& s = out[0];
    if (s.peer < slot.size()) slot[s.peer] = -1;
    s.sorted = tx_sorted;
    s.ts = a.tx_entry_ts.data();
    s.ipids = t.tx_ipids.data();
    return out;  // entries == nullptr: identity
  }

  // Materialize per-peer lanes. Raw write cursors per stream keep the
  // inner loop at three stores for the dominant one-entry batches.
  struct Fill {
    std::uint32_t* e;
    TimeNs* ts;
    std::uint16_t* id;
    TimeNs prev;
  };
  std::vector<Fill> fills(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    Stream& s = out[i];
    s.entries_store.resize(s.n);
    s.ts_store.resize(s.n);
    s.ipids_store.resize(s.n);
    fills[i] = Fill{s.entries_store.data(), s.ts_store.data(),
                    s.ipids_store.data(), std::numeric_limits<TimeNs>::min()};
  }
  const std::uint16_t* ipids = t.tx_ipids.data();
  for (std::size_t b = 0; b < nb; ++b) {
    const BatchRecord& rec = recs[b];
    const std::size_t sl = static_cast<std::size_t>(slot_of(rec.peer));
    Fill& f = fills[sl];
    if (rec.ts < f.prev) out[sl].sorted = false;
    f.prev = rec.ts;
    if (rec.count == 1) {
      *f.e++ = rec.begin;
      *f.ts++ = rec.ts;
      *f.id++ = ipids[rec.begin];
    } else {
      for (std::uint32_t k = 0; k < rec.count; ++k) {
        *f.e++ = rec.begin + k;
        *f.ts++ = rec.ts;
        *f.id++ = ipids[rec.begin + k];
      }
    }
  }
  for (Stream& s : out) {
    if (s.peer < slot.size()) slot[s.peer] = -1;
    s.entries = s.entries_store.data();
    s.ts = s.ts_store.data();
    s.ipids = s.ipids_store.data();
  }
  return out;
}

/// Flat per-pass cursor over one stream: the lane pointers, sizes, and
/// consumption head in one cache line, so the hot loops never chase a
/// Stream* indirection. `drop_flags` points at the upstream's
/// tx_dropped_downstream lane (link pass only).
struct Ref {
  const std::uint16_t* ipids{nullptr};
  const TimeNs* ts{nullptr};
  const std::uint32_t* entries{nullptr};  // nullptr: identity map
  std::uint8_t* drop_flags{nullptr};
  std::uint32_t head{0};
  std::uint32_t size{0};
  NodeId up{kInvalidNode};
  std::uint8_t sorted{1};

  bool exhausted() const { return head >= size; }
  std::uint32_t entry_at(std::uint32_t k) const {
    return entries ? entries[k] : k;
  }
  std::uint32_t head_entry() const { return entry_at(head); }
};

Ref make_ref(const Stream& s, std::uint8_t* drop_flags) {
  Ref r;
  r.ipids = s.ipids;
  r.ts = s.ts;
  r.entries = s.entries;
  r.drop_flags = drop_flags;
  r.size = s.n;
  r.up = s.up;
  r.sorted = s.sorted ? 1 : 0;
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

OwnedLanes materialize(const Stream& s) {
  OwnedLanes o;
  o.up = s.up;
  o.entries.resize(s.n);
  if (s.entries) {
    std::copy_n(s.entries, s.n, o.entries.begin());
  } else {
    for (std::uint32_t k = 0; k < s.n; ++k) o.entries[k] = k;
  }
  o.ts.assign(s.ts, s.ts + s.n);
  o.ipids.assign(s.ipids, s.ipids + s.n);
  return o;
}

}  // namespace

std::vector<NodeAlignment> align_all(const collector::Collector& col,
                                     const GraphView& graph,
                                     const AlignOptions& opts,
                                     AlignStats* stats,
                                     ThreadPool* pool,
                                     const ParallelOptions& par,
                                     std::vector<NodeAlignment>* recycle) {
  obs::TraceSpan span("trace", "align");
  const std::size_t n = graph.node_count();
  span.set_items(n);
  // Reclaim the caller's previous window, if offered: every per-node lane
  // below is (re)filled with assign(), so capacity carried over from the
  // last window turns ~20MB of fresh page-faulted allocations per call
  // into in-place writes. The contents of *recycle are irrelevant.
  std::vector<NodeAlignment> out;
  if (recycle != nullptr) out = std::move(*recycle);
  out.resize(n);
  // Per-node stat shards, merged in node-id order at the end.
  std::vector<AlignStats> node_stats(n);
  // Outgoing streams per node, grouped by peer.
  std::vector<std::vector<Stream>> tx_streams(n);

  // Pass 0: entry->batch maps, SoA timestamp lanes, outgoing streams, and
  // downstream-drop flags.
  auto pass0 = [&](NodeId id) {
    if (graph.kinds[id] == NodeKind::kSink || !col.has_node(id)) {
      // Recycled elements may carry a previous window's lanes; a skipped
      // node must look freshly constructed (clear keeps capacity).
      NodeAlignment& a = out[id];
      a.rx_origin.clear();
      a.rx_to_tx.clear();
      a.tx_to_rx.clear();
      a.tx_dropped_downstream.clear();
      a.rx_batch_of.clear();
      a.tx_batch_of.clear();
      a.rx_entry_ts.clear();
      a.tx_entry_ts.clear();
      return;
    }
    const NodeTrace& t = col.node(id);
    NodeAlignment& a = out[id];
    expand_batches(t.rx_batches, t.rx_ipids.size(), a.rx_batch_of,
                   a.rx_entry_ts);
    a.tx_dropped_downstream.assign(t.tx_ipids.size(), 0);
    a.rx_origin.assign(t.rx_ipids.size(), TxRef{});
    a.rx_to_tx.assign(t.rx_ipids.size(), kNoEntry);
    a.tx_to_rx.assign(t.tx_ipids.size(), kNoEntry);
    std::vector<std::int32_t> slot(n, -1);
    tx_streams[id] = build_streams(t, id, a, slot);
  };

  // Pass 1: link alignment (downstream rx entries <- upstream tx streams).
  // Writes land only on out[d] and on out[u].tx_dropped_downstream
  // elements whose batch peer is d — owned by this node, so per-node
  // sharding is race-free.
  auto pass1 = [&](NodeId d, AlignStats& local) {
    if (graph.kinds[d] != NodeKind::kNf || !col.has_node(d)) return;
    const NodeTrace& dt = col.node(d);
    NodeAlignment& da = out[d];

    const std::uint32_t n_rx = static_cast<std::uint32_t>(dt.rx_ipids.size());
    const std::uint16_t* rx_ipid = dt.rx_ipids.data();
    const TimeNs* rx_ts = da.rx_entry_ts.data();

    // The no-order ablation consumes entries from the middle of a stream,
    // so it runs on private erasable copies.
    if (!opts.use_order) {
      std::vector<OwnedLanes> own;
      for (NodeId u : graph.upstreams[d]) {
        if (!col.has_node(u)) continue;
        for (const Stream& s : tx_streams[u])
          if (s.peer == d) own.push_back(materialize(s));
      }
      for (std::uint32_t j = 0; j < n_rx; ++j) {
        const std::uint16_t ipid = rx_ipid[j];
        const TimeNs read_ts = rx_ts[j];
        int best = -1;
        TimeNs best_ts = kTimeNever;
        std::size_t best_pos = 0;
        int candidates = 0;
        for (std::size_t s = 0; s < own.size(); ++s) {
          const OwnedLanes& o = own[s];
          for (std::size_t k = 0; k < o.entries.size(); ++k) {
            if (o.ipids[k] != ipid) continue;
            const TimeNs tx_ts = o.ts[k];
            if (opts.use_timing) {
              if (tx_ts > read_ts + opts.slack) continue;
              if (read_ts - tx_ts > opts.max_link_delay) continue;
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
          // Without the order discipline we cannot infer drops from
          // skips; just consume the matched entry.
          OwnedLanes& o = own[static_cast<std::size_t>(best)];
          if (candidates > 1) ++local.link_ambiguous;
          da.rx_origin[j] = TxRef{o.up, o.entries[best_pos]};
          const auto at = static_cast<std::ptrdiff_t>(best_pos);
          o.entries.erase(o.entries.begin() + at);
          o.ts.erase(o.ts.begin() + at);
          o.ipids.erase(o.ipids.begin() + at);
          ++local.link_matched;
        } else {
          ++local.link_unmatched;
        }
      }
      // Remaining unconsumed upstream entries: dropped if their deadline
      // has passed relative to the node's last read.
      const TimeNs last_read =
          dt.rx_batches.empty() ? 0 : dt.rx_batches.back().ts;
      for (const OwnedLanes& o : own) {
        for (std::size_t k = 0; k < o.entries.size(); ++k) {
          if (last_read - o.ts[k] > opts.max_link_delay) {
            out[o.up].tx_dropped_downstream[o.entries[k]] = 1;
            ++local.queue_drops_inferred;
          }
        }
      }
      return;
    }

    // Cursors over the upstream streams headed here, in graph order. An
    // upstream that never sent to d contributes no stream — an empty
    // stream can never be a candidate, so skipping it is equivalent.
    std::vector<Ref> cur;
    for (NodeId u : graph.upstreams[d]) {
      if (!col.has_node(u)) continue;
      for (const Stream& s : tx_streams[u])
        if (s.peer == d)
          cur.push_back(make_ref(s, out[u].tx_dropped_downstream.data()));
    }
    Ref* refs = cur.data();
    const std::size_t S = cur.size();

    // No head-of-line candidate for entry j: per-link FIFO means that if
    // this rx entry matches a *later* entry of some stream, every entry
    // the match skips over was dropped at this node's input queue (it
    // entered the queue earlier yet was never read). Scan ahead within the
    // time bound and take the match with the fewest skips. On a sorted
    // stream the original forward scan — skip entries older than the link
    // delay, stop at the first entry beyond read_ts + slack — is exactly
    // the first IPID hit inside a binary-searched window; streams with
    // timestamp regressions take the literal scan.
    auto scan_ahead = [&](std::uint32_t j, std::uint16_t ipid,
                          TimeNs read_ts) {
      std::size_t best_stream = S;
      std::size_t best_pos = 0;
      std::size_t best_skips = static_cast<std::size_t>(-1);
      for (std::size_t s = 0; s < S; ++s) {
        const Ref& st = refs[s];
        const std::size_t sz = st.size;
        std::size_t k;
        if (st.sorted) {
          const TimeNs* tsd = st.ts;
          const std::size_t lo = static_cast<std::size_t>(
              std::lower_bound(tsd + st.head, tsd + sz,
                               read_ts - opts.max_link_delay) -
              tsd);
          const std::size_t hi = static_cast<std::size_t>(
              std::upper_bound(tsd + lo, tsd + sz, read_ts + opts.slack) -
              tsd);
          k = static_cast<std::size_t>(
              std::find(st.ipids + lo, st.ipids + hi, ipid) - st.ipids);
          if (k >= hi) continue;
        } else {
          k = sz;
          for (std::size_t i = st.head; i < sz; ++i) {
            const TimeNs tx_ts = st.ts[i];
            if (tx_ts > read_ts + opts.slack) break;  // not yet arrived
            if (read_ts - tx_ts > opts.max_link_delay) continue;
            if (st.ipids[i] != ipid) continue;
            k = i;
            break;  // first in-window match per stream is the FIFO-legal one
          }
          if (k >= sz) continue;
        }
        const std::size_t skips = k - st.head;
        if (skips < best_skips) {
          best_skips = skips;
          best_stream = s;
          best_pos = k;
        }
      }
      if (best_stream < S) {
        Ref& st = refs[best_stream];
        for (std::size_t k = st.head; k < best_pos; ++k) {
          st.drop_flags[st.entry_at(static_cast<std::uint32_t>(k))] = 1;
          ++local.queue_drops_inferred;
        }
        da.rx_origin[j] =
            TxRef{st.up, st.entry_at(static_cast<std::uint32_t>(best_pos))};
        st.head = static_cast<std::uint32_t>(best_pos) + 1;
        ++local.link_matched;
        ++local.link_ambiguous;  // resolved beyond head-of-line
      } else {
        ++local.link_unmatched;
      }
    };

    for (std::uint32_t j = 0; j < n_rx; ++j) {
      const std::uint16_t ipid = rx_ipid[j];
      const TimeNs read_ts = rx_ts[j];

      // Candidate upstreams: head-of-line entries with the right IPID
      // inside the delay bound (side channels 1-3). The ablation knob
      // disables the timing bound (side channel 2).
      int best = -1;
      TimeNs best_ts = kTimeNever;
      int candidates = 0;
      for (std::size_t s = 0; s < S; ++s) {
        const Ref& st = refs[s];
        if (st.exhausted()) continue;
        if (st.ipids[st.head] != ipid) continue;
        const TimeNs tx_ts = st.ts[st.head];
        if (opts.use_timing) {
          if (tx_ts > read_ts + opts.slack) continue;
          if (read_ts - tx_ts > opts.max_link_delay) continue;
        }
        ++candidates;
        if (tx_ts < best_ts ||
            (tx_ts == best_ts && best >= 0 &&
             st.up < refs[static_cast<std::size_t>(best)].up)) {
          best = static_cast<int>(s);
          best_ts = tx_ts;
        }
      }
      if (best >= 0) {
        if (candidates > 1) ++local.link_ambiguous;
        Ref& st = refs[static_cast<std::size_t>(best)];
        da.rx_origin[j] = TxRef{st.up, st.head_entry()};
        ++st.head;
        ++local.link_matched;
        continue;
      }
      if (!opts.use_timing) {
        // Drop inference below needs both FIFO order and timing bounds.
        ++local.link_unmatched;
        continue;
      }
      scan_ahead(j, ipid, read_ts);
    }

    // Remaining unconsumed upstream entries: dropped if their deadline has
    // passed relative to the node's last read (otherwise still in flight).
    const TimeNs last_read =
        dt.rx_batches.empty() ? 0 : dt.rx_batches.back().ts;
    for (std::size_t s = 0; s < S; ++s) {
      Ref& st = refs[s];
      for (; st.head < st.size; ++st.head) {
        if (last_read - st.ts[st.head] > opts.max_link_delay) {
          st.drop_flags[st.head_entry()] = 1;
          ++local.queue_drops_inferred;
        }
      }
    }
  };

  // Pass 2: internal alignment (rx entries -> this node's tx streams).
  auto pass2 = [&](NodeId d, AlignStats& local) {
    if (graph.kinds[d] != NodeKind::kNf || !col.has_node(d)) return;
    const NodeTrace& dt = col.node(d);
    NodeAlignment& da = out[d];

    // Output streams keyed by destination in first-appearance order —
    // exactly how tx_streams[d] was built. The link pass walks the same
    // arrays through its own cursors, so they are still pristine here.
    std::vector<Ref> cur;
    cur.reserve(tx_streams[d].size());
    for (const Stream& s : tx_streams[d]) cur.push_back(make_ref(s, nullptr));
    Ref* refs = cur.data();

    const std::uint32_t n_rx = static_cast<std::uint32_t>(dt.rx_ipids.size());
    const std::uint16_t* rx_ipid = dt.rx_ipids.data();
    const TimeNs* rx_ts = da.rx_entry_ts.data();
    const std::size_t S = cur.size();

    for (std::uint32_t i = 0; i < n_rx; ++i) {
      const std::uint16_t ipid = rx_ipid[i];
      const TimeNs read_ts = rx_ts[i];
      int best = -1;
      TimeNs best_ts = kTimeNever;
      int candidates = 0;
      for (std::size_t s = 0; s < S; ++s) {
        Ref& st = refs[s];
        // Expired head entries (tx earlier than any remaining read can
        // explain) are permanently unclaimable: per-node reads are
        // time-ordered, so read_ts only grows. They occur when the tx
        // entry's rx record is missing — a partial trace (e.g. a streamed
        // time slice) or a lost record — and leaving one at the head would
        // wedge the whole output stream into policy drops.
        while (st.head < st.size && st.ts[st.head] + opts.slack < read_ts) {
          ++st.head;
          ++local.internal_expired;
        }
        if (st.exhausted()) continue;
        if (st.ipids[st.head] != ipid) continue;
        const TimeNs tx_ts = st.ts[st.head];
        if (tx_ts - read_ts > opts.max_nf_delay) continue;
        ++candidates;
        if (tx_ts < best_ts) {
          best = static_cast<int>(s);
          best_ts = tx_ts;
        }
      }
      if (best >= 0) {
        if (candidates > 1) ++local.internal_ambiguous;
        Ref& st = refs[static_cast<std::size_t>(best)];
        const std::uint32_t e = st.head_entry();
        da.rx_to_tx[i] = e;
        da.tx_to_rx[e] = i;
        ++st.head;
        ++local.internal_matched;
      } else {
        // The NF consumed the packet without emitting it: policy drop.
        ++local.policy_drops_inferred;
      }
    }
  };

  // Pass barriers: pass 1 reads pass 0's stream arrays and timestamp
  // lanes of upstream nodes; pass 2 walks streams pass 1 also read (both
  // through private cursors).
  obs::Registry& reg = obs::Registry::global();
  const std::size_t grain = chunk_grain(par, n);
  {
    obs::ScopedTimer t(reg.histogram("trace.align.prepare_ns"));
    parallel_for_over(pool, n,
                      [&](std::size_t b, std::size_t e) {
                        for (std::size_t id = b; id < e; ++id)
                          pass0(static_cast<NodeId>(id));
                      },
                      grain);
  }
  {
    obs::ScopedTimer t(reg.histogram("trace.align.link_pass_ns"));
    parallel_for_over(pool, n,
                      [&](std::size_t b, std::size_t e) {
                        for (std::size_t id = b; id < e; ++id)
                          pass1(static_cast<NodeId>(id), node_stats[id]);
                      },
                      grain);
  }
  {
    obs::ScopedTimer t(reg.histogram("trace.align.internal_pass_ns"));
    parallel_for_over(pool, n,
                      [&](std::size_t b, std::size_t e) {
                        for (std::size_t id = b; id < e; ++id)
                          pass2(static_cast<NodeId>(id), node_stats[id]);
                      },
                      grain);
  }

  AlignStats total;
  for (const AlignStats& s : node_stats) total += s;
  // Registry mirror of AlignStats: link_ambiguous doubles as the
  // IPID-collision resolution count (matches that needed the order/time
  // side channels to disambiguate).
  reg.counter("trace.align.link_matched").add(total.link_matched);
  reg.counter("trace.align.link_ambiguous").add(total.link_ambiguous);
  reg.counter("trace.align.link_unmatched").add(total.link_unmatched);
  reg.counter("trace.align.queue_drops_inferred")
      .add(total.queue_drops_inferred);
  reg.counter("trace.align.internal_matched").add(total.internal_matched);
  reg.counter("trace.align.internal_ambiguous").add(total.internal_ambiguous);
  reg.counter("trace.align.internal_expired").add(total.internal_expired);
  reg.counter("trace.align.policy_drops_inferred")
      .add(total.policy_drops_inferred);
  if (stats) *stats = total;
  return out;
}

}  // namespace microscope::trace
