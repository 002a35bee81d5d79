#include "online/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/introspect.hpp"
#include "obs/metrics.hpp"
#include "obs/tracing.hpp"

namespace microscope::online {

core::DiagnoserOptions streaming_diagnoser_defaults() {
  core::DiagnoserOptions opts;
  opts.abnormal_stddev_k = std::numeric_limits<double>::infinity();
  return opts;
}

DurationNs derive_history(const OnlineOptions& o) {
  if (o.history_ns > 0) return o.history_ns;
  const auto& d = o.diagnoser;
  return d.max_depth * (d.period.max_lookback + o.reconstruct.prop_delay) +
         o.slack_ns;
}

/// OnlineStats stays the per-engine authoritative accessor; these mirror
/// the same events into the process-wide registry.
struct OnlineMetrics {
  obs::Counter& batches_ingested;
  obs::Counter& packets_ingested;
  obs::Counter& late_dropped;
  obs::Counter& backpressure_dropped;
  obs::Counter& windows_closed;
  obs::Counter& windows_idle_forced;
  obs::Counter& windows_skipped_empty;
  obs::Histogram& window_close_ns;
  obs::Gauge& window_amplification;
  obs::Gauge& watermark_lag_ns;
  obs::Gauge& ring_dropped_records;
  obs::Gauge& retained_batches;
  obs::Gauge& retained_bytes;

  static OnlineMetrics& get() {
    obs::Registry& r = obs::Registry::global();
    static OnlineMetrics m{
        r.counter("online.batches_ingested"),
        r.counter("online.packets_ingested"),
        r.counter("online.late_dropped_batches"),
        r.counter("online.backpressure_dropped_batches"),
        r.counter("online.windows_closed"),
        r.counter("online.windows_idle_forced"),
        r.counter("online.windows_skipped_empty"),
        r.histogram("online.window_close_ns"),
        r.gauge("online.window.amplification"),
        r.gauge("online.watermark_lag_ns"),
        r.gauge("online.ring_dropped_records"),
        r.gauge("online.retained_batches"),
        r.gauge("online.retained_bytes")};
    return m;
  }
};

namespace {

double diagnosis_score(const core::Diagnosis& d) {
  double s = 0.0;
  for (const core::CausalRelation& r : d.relations) s += r.score;
  return s;
}

/// Victims rendered per window for /explain, ranked by descending total
/// attribution score (/explain?top=k serves a prefix of these).
constexpr std::size_t kExplainTopMax = 8;

std::string victim_summary(const core::Diagnosis& d, double score,
                           const std::vector<std::string>& names) {
  const core::Victim& v = d.victim;
  std::string name = v.node < names.size() && !names[v.node].empty()
                         ? names[v.node]
                         : "node" + std::to_string(v.node);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "victim at %s, t=%.3f ms, %zu relations, score=%.3f",
                name.c_str(), static_cast<double>(v.time) / 1e6,
                d.relations.size(), score);
  return buf;
}

}  // namespace

OnlineEngine::OnlineEngine(trace::GraphView graph,
                           std::vector<RatePerNs> peak_rates,
                           OnlineOptions opts)
    : opts_(opts),
      graph_(std::move(graph)),
      peak_rates_(std::move(peak_rates)),
      history_(derive_history(opts)),
      recon_(graph_, opts.reconstruct),
      pool_(opts.threads > 1 ? std::make_unique<ThreadPool>(opts.threads)
                             : nullptr),
      wm_(opts.window_ns, opts.slack_ns, opts.idle_timeout_ns),
      agg_(make_aggregator(opts.aggregator, opts.agg_memory_budget,
                           opts.agg_catalog)),
      decoder_(
          [this](NodeId n) { return store_.full_flow(n); },
          [this](const collector::DecodedBatch& b) {
            ingest(b.dir, b.node, b.peer, b.ts, b.pkts);
          },
          opts.decode,
          [this](NodeId n) { return store_.has_node(n); }),
      metrics_(OnlineMetrics::get()),
      recorder_(obs::TraceRecorder::global()) {
  // The ablations match without the FIFO or timing side channel, so no
  // decision would ever be final before the end of the stream.
  if (!opts.reconstruct.align.use_order || !opts.reconstruct.align.use_timing)
    throw std::invalid_argument(
        "OnlineEngine: the use_order/use_timing ablations are offline-only");
}

void OnlineEngine::register_node(NodeId id, bool full_flow) {
  store_.register_node(id, full_flow);
  wm_.register_node(id);
}

void OnlineEngine::on_rx(NodeId id, TimeNs ts, std::span<const Packet> batch) {
  ingest(collector::Direction::kRx, id, kInvalidNode, ts, batch);
}

void OnlineEngine::on_tx(NodeId id, NodeId peer, TimeNs ts,
                         std::span<const Packet> batch) {
  ingest(collector::Direction::kTx, id, peer, ts, batch);
}

void OnlineEngine::feed_bytes(std::span<const std::byte> bytes) {
  decoder_.feed(bytes);
}

void OnlineEngine::set_wire_framing(collector::WireFraming framing) {
  decoder_.set_framing(framing);
}

std::size_t OnlineEngine::drain_ring(collector::RingCollector& ring,
                                     std::size_t max_bytes) {
  obs::TraceSpan span("collector", "drain");
  std::byte buf[4096];
  std::size_t total = 0;
  while (total < max_bytes) {
    const std::size_t want = std::min(sizeof(buf), max_bytes - total);
    const std::size_t got = ring.drain(std::span(buf, want));
    if (got == 0) break;
    feed_bytes(std::span(buf, got));
    total += got;
  }
  stats_.ring_dropped_records = ring.dropped_records();
  metrics_.ring_dropped_records.set(
      static_cast<double>(stats_.ring_dropped_records));
  span.set_items(total);
  return total;
}

void OnlineEngine::ingest(collector::Direction dir, NodeId node, NodeId peer,
                          TimeNs ts, std::span<const Packet> pkts) {
  // The watermark advances even for records we end up dropping: the node's
  // stream demonstrably reached `ts`, and stalling the watermark would
  // wedge every later window behind a drop.
  wm_.note(node, ts);
  // Window-open lifecycle instants: the first record whose timestamp lands
  // in a not-yet-announced window opens it (mirrors WindowManager, which
  // also derives the window index as ts / window_ns).
  if (recorder_.enabled() && ts >= 0) {
    const std::int64_t w = ts / opts_.window_ns;
    if (trace_opened_through_ < 0) trace_opened_through_ = w - 1;
    while (trace_opened_through_ < w) {
      ++trace_opened_through_;
      const auto scope =
          obs::CorrelationScope::for_window(trace_opened_through_);
      obs::trace_instant("online", "window.open");
    }
  }
  // A record below the floor, or behind its lane's newest, could change
  // reconstruction decisions already committed: drop it.
  if (ts < floor_ ||
      (store_.has_node(node) && ts < store_.newest(dir, node))) {
    ++stats_.late_dropped_batches;
    return;
  }
  if (opts_.max_retained_batches > 0 &&
      store_.retained_batches() >= opts_.max_retained_batches) {
    ++stats_.backpressure_dropped_batches;
    return;
  }
  store_.add(dir, node, peer, ts, pkts);
  ++stats_.batches_ingested;
  stats_.packets_ingested += pkts.size();
}

std::vector<WindowResult> OnlineEngine::poll() { return close_ready(false); }

std::vector<WindowResult> OnlineEngine::finish() {
  // A partial record buffered in the decoder can never complete now; fault
  // it (truncated_tail, or a strict throw) before the final window sweep.
  decoder_.finish();
  return close_ready(true);
}

std::vector<WindowResult> OnlineEngine::close_ready(bool finishing) {
  OnlineMetrics& m = metrics_;
  // Watermark lag: how far the slowest node's stream trails the fastest —
  // the live signal that some NF's records are wedging window closure.
  const TimeNs min_watermark = wm_.min_watermark();
  if (wm_.global_watermark() != WindowManager::kWatermarkNone &&
      min_watermark != WindowManager::kWatermarkNone) {
    m.watermark_lag_ns.set(
        static_cast<double>(wm_.global_watermark() - min_watermark));
    obs::trace_instant("online", "watermark",
                       static_cast<std::uint64_t>(wm_.global_watermark()));
  }
  std::vector<WindowResult> out;
  WindowBounds b;
  while (wm_.next_closable(b, finishing)) {
    const auto wscope = obs::CorrelationScope::for_window(b.index);
    obs::TraceSpan wspan("online", "window.close");
    obs::ScopedTimer close_timer(m.window_close_ns);
    WindowResult res = diagnose(b);
    publish(res);
    agg_->ingest(res.diagnoses);
    close_timer.stop();
    wspan.set_items(res.diagnoses.size());
    wspan.stop();
    ++stats_.windows_closed;
    m.windows_closed.add();
    if (b.idle_forced) {
      ++stats_.windows_idle_forced;
      m.windows_idle_forced.add();
    }
    wm_.advance();
    floor_ = std::max(floor_, view_hi(b));
    // Everything older than what the *next* window can reach is dead: its
    // diagnoses look back to its start - history, and a journey arriving
    // there left its source up to slack earlier.
    const TimeNs horizon = b.end - history_ - opts_.slack_ns;
    store_.evict_before(horizon);
    recon_.evict_before(horizon);
    // Entry numbers are 32-bit and grow with the stream: shift them down,
    // store and reconstruction together, long before any could wrap.
    if (std::max(store_.entries_end(), recon_.numbers_end()) >=
        trace::kRenumberAt)
      store_.renumber(recon_.renumber(store_.lanes()));
    out.push_back(std::move(res));
  }
  m.retained_batches.set(static_cast<double>(store_.retained_batches()));
  m.retained_bytes.set(static_cast<double>(store_.retained_bytes()));
  m.batches_ingested.add(stats_.batches_ingested - counted_.batches_ingested);
  m.packets_ingested.add(stats_.packets_ingested - counted_.packets_ingested);
  m.late_dropped.add(stats_.late_dropped_batches -
                     counted_.late_dropped_batches);
  m.backpressure_dropped.add(stats_.backpressure_dropped_batches -
                             counted_.backpressure_dropped_batches);
  counted_ = stats_;
  return out;
}

WindowResult OnlineEngine::diagnose(const WindowBounds& b) {
  WindowResult res;
  res.index = b.index;
  res.start = b.start;
  res.end = b.end;
  res.idle_forced = b.idle_forced;

  // Commit what no later record can change, recompute the rest from
  // exactly the records <= end + slack. Decisions about records older than
  // end - history are forced: after this window, state below
  // end - history - slack is evicted.
  OnlineMetrics& m = metrics_;
  trace::Frontier f;
  f.ceiling = view_hi(b);
  f.force = b.end - history_;
  recon_.advance(store_.lanes(), f, pool_.get());
  res.journeys = recon_.walked();
  res.journeys_committed = recon_.committed();
  if (res.journeys_committed > 0)
    m.window_amplification.set(static_cast<double>(res.journeys) /
                               static_cast<double>(res.journeys_committed));

  if (store_.empty_in(view_lo(b), view_hi(b))) {
    ++stats_.windows_skipped_empty;
    m.windows_skipped_empty.add();
    recon_.discard_speculative(pool_.get());
    return res;
  }

  core::Diagnoser diag(recon_.trace(), peak_rates_, opts_.diagnoser);
  std::vector<core::Victim> victims;
  auto keep = [&](const core::Victim& v) {
    return v.time >= b.start && v.time < b.end;
  };
  if (opts_.diagnose_latency)
    for (const core::Victim& v :
         diag.latency_victims_by_threshold(opts_.latency_threshold))
      if (keep(v)) victims.push_back(v);
  if (opts_.diagnose_drops)
    for (const core::Victim& v : diag.drop_victims())
      if (keep(v)) victims.push_back(v);

  const bool provenance = opts_.capture_provenance || opts_.introspection;
  res.diagnoses = diag.diagnose_all(victims, pool_.get(),
                                    provenance ? &res.provenances : nullptr);
  recon_.discard_speculative(pool_.get());
  return res;
}

void OnlineEngine::publish(const WindowResult& res) const {
  obs::IntrospectionHub* hub = opts_.introspection.get();
  if (!hub) return;

  std::vector<double> scores(res.diagnoses.size());
  for (std::size_t i = 0; i < res.diagnoses.size(); ++i)
    scores[i] = diagnosis_score(res.diagnoses[i]);

  obs::WindowNote note;
  note.index = res.index;
  note.start_ns = res.start;
  note.end_ns = res.end;
  note.idle_forced = res.idle_forced;
  note.journeys = res.journeys;
  note.diagnoses = res.diagnoses.size();
  note.top_score = scores.empty() ? 0.0
                                  : *std::max_element(scores.begin(),
                                                      scores.end());
  hub->publish_window(note);

  // /explain tracks the newest window that actually diagnosed something;
  // quiet windows leave the last interesting explanation in place.
  if (res.diagnoses.empty() ||
      res.provenances.size() != res.diagnoses.size()) {
    return;
  }
  std::vector<std::size_t> order(res.diagnoses.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return scores[a] > scores[b];
                   });
  if (order.size() > kExplainTopMax) order.resize(kExplainTopMax);

  const std::vector<std::string>& names = opts_.agg_catalog.node_names;
  std::vector<obs::ExplainEntry> entries;
  entries.reserve(order.size());
  for (const std::size_t i : order) {
    obs::ExplainEntry e;
    e.summary = victim_summary(res.diagnoses[i], scores[i], names);
    e.tree = core::render_explain_tree(res.provenances[i], names);
    e.json = core::provenance_to_json(res.provenances[i], names);
    entries.push_back(std::move(e));
  }
  hub->publish_explain(res.index, std::move(entries));
}

OnlineStats OnlineEngine::stats() const {
  OnlineStats s = stats_;
  s.wire_decode_dropped = decoder_.stats().dropped();
  s.retained_batches = store_.retained_batches();
  s.retained_bytes = store_.retained_bytes();
  s.retained_span_ns = store_.retained_span();
  s.reconstruction_bytes = recon_.retained_bytes();
  s.live_journeys = recon_.live_journeys();
  return s;
}

}  // namespace microscope::online
