#include "testing/chaos.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/crc32c.hpp"
#include "common/rng.hpp"

namespace microscope::testing {

namespace {

std::uint16_t read_u16(const std::vector<std::byte>& buf, std::size_t pos) {
  std::uint16_t v = 0;
  std::memcpy(&v, buf.data() + pos, sizeof v);
  return v;
}

std::int64_t read_i64(const std::vector<std::byte>& buf, std::size_t pos) {
  std::int64_t v = 0;
  std::memcpy(&v, buf.data() + pos, sizeof v);
  return v;
}

void write_i64(std::vector<std::byte>& buf, std::size_t pos, std::int64_t v) {
  std::memcpy(buf.data() + pos, &v, sizeof v);
}

void write_u32(std::vector<std::byte>& buf, std::size_t pos, std::uint32_t v) {
  std::memcpy(buf.data() + pos, &v, sizeof v);
}

}  // namespace

std::vector<DurationNs> random_clock_skew(std::size_t nodes,
                                          DurationNs max_skew,
                                          std::uint64_t seed) {
  Rng rng(seed ^ 0x5C3B00F5ULL);
  std::vector<DurationNs> offsets(nodes, 0);
  for (auto& off : offsets)
    off = static_cast<DurationNs>(
        rng.uniform_u64(static_cast<std::uint64_t>(max_skew) + 1));
  return offsets;
}

void apply_clock_skew(collector::Collector& col,
                      const std::vector<DurationNs>& offsets) {
  for (NodeId id = 0; id < col.node_count(); ++id) {
    if (!col.has_node(id) || id >= offsets.size() || offsets[id] == 0)
      continue;
    collector::NodeTrace& tr = col.mutable_node(id);
    for (collector::BatchRecord& b : tr.rx_batches) b.ts += offsets[id];
    for (collector::BatchRecord& b : tr.tx_batches) b.ts += offsets[id];
  }
}

std::vector<std::byte> encode_framed_stream(
    const collector::Collector& col,
    std::vector<std::size_t>* frame_starts) {
  // One cursor per batch across every node and direction, merged into a
  // single stream by timestamp (ties broken by node, rx before tx, then
  // batch order) — per-(node, dir) streams stay time-ordered.
  struct Cursor {
    TimeNs ts;
    NodeId node;
    collector::Direction dir;
    std::size_t idx;
  };
  std::vector<Cursor> order;
  for (NodeId id = 0; id < col.node_count(); ++id) {
    if (!col.has_node(id)) continue;
    const collector::NodeTrace& tr = col.node(id);
    for (std::size_t i = 0; i < tr.rx_batches.size(); ++i)
      order.push_back({tr.rx_batches[i].ts, id, collector::Direction::kRx, i});
    for (std::size_t i = 0; i < tr.tx_batches.size(); ++i)
      order.push_back({tr.tx_batches[i].ts, id, collector::Direction::kTx, i});
  }
  std::sort(order.begin(), order.end(), [](const Cursor& a, const Cursor& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    if (a.node != b.node) return a.node < b.node;
    if (a.dir != b.dir) return a.dir == collector::Direction::kRx;
    return a.idx < b.idx;
  });

  std::vector<std::byte> out;
  std::vector<Packet> pkts;
  for (const Cursor& c : order) {
    const collector::NodeTrace& tr = col.node(c.node);
    const bool tx = c.dir == collector::Direction::kTx;
    const collector::BatchRecord& rec =
        tx ? tr.tx_batches[c.idx] : tr.rx_batches[c.idx];
    const bool full_flow = tx && tr.full_flow;
    pkts.assign(rec.count, Packet{});
    for (std::size_t i = 0; i < rec.count; ++i) {
      const std::size_t at = rec.begin + i;
      pkts[i].ipid = tx ? tr.tx_ipids[at] : tr.rx_ipids[at];
      if (full_flow) pkts[i].flow = tr.tx_flows[at];
    }
    if (frame_starts) frame_starts->push_back(out.size());
    collector::encode_frame(out, c.dir, c.node, tx ? rec.peer : kInvalidNode,
                            rec.ts, pkts, full_flow);
  }
  return out;
}

namespace {

/// Rewrite one frame's timestamp payload field `jump` backwards and re-seal
/// the CRC, so only the decoder's timestamp validator (when enabled) can
/// object. Returns false when the frame's ts is too small to move.
bool inject_ts_regression(std::vector<std::byte>& buf, std::size_t frame_off,
                          DurationNs jump) {
  const std::uint16_t len = read_u16(buf, frame_off + 2);
  const std::size_t payload = frame_off + collector::kFrameHeaderBytes;
  const auto kind = static_cast<std::uint8_t>(buf[payload]);
  const std::size_t ts_off = payload + (kind == 1 ? 9 : 5);
  const std::int64_t ts = read_i64(buf, ts_off);
  if (ts < jump) return false;
  write_i64(buf, ts_off, ts - jump);
  write_u32(buf, frame_off + 4, crc32c(buf.data() + payload, len));
  return true;
}

}  // namespace

ChaosReport run_chaos(const collector::Collector& col, trace::GraphView graph,
                      std::vector<RatePerNs> peak_rates,
                      online::OnlineOptions engine_opts,
                      const ChaosOptions& chaos) {
  ChaosReport report;
  Rng rng(chaos.seed ^ 0xC4A05D11ULL);

  // 1. Skew clocks on a private copy of the recording.
  collector::Collector skewed = col;
  report.clock_skew_ns =
      random_clock_skew(col.node_count(), chaos.clock_skew_max, chaos.seed);
  apply_clock_skew(skewed, report.clock_skew_ns);

  // 2. Serialize to one framed stream.
  std::vector<std::size_t> frames;
  std::vector<std::byte> stream = encode_framed_stream(skewed, &frames);
  report.frames = frames.size();

  // 3. Timestamp regressions: sealed-CRC backward jumps on random frames.
  for (int i = 0; i < chaos.ts_regressions && !frames.empty(); ++i) {
    for (int attempt = 0; attempt < 16; ++attempt) {
      const std::size_t f = rng.uniform_u64(frames.size());
      if (inject_ts_regression(stream, frames[f], chaos.ts_regression_jump)) {
        ++report.ts_regressions_applied;
        break;
      }
    }
  }

  // 4. Corruption + dumper crashes, one per disjoint frame-aligned segment
  // (concatenated back afterwards; a crash segment's torn tail is followed
  // by the next segment's clean frame boundary — the restarted dumper).
  const std::size_t want_segs = static_cast<std::size_t>(
      std::max(0, chaos.corruptions) + std::max(0, chaos.dumper_crashes));
  const std::size_t n_segs =
      std::min(want_segs, frames.size() / 2);  // >= 2 frames per segment
  if (n_segs > 0) {
    std::vector<std::uint8_t> is_crash(want_segs, 0);
    for (std::size_t i = 0; i < static_cast<std::size_t>(
                                    std::max(0, chaos.dumper_crashes));
         ++i)
      is_crash[want_segs - 1 - i] = 1;
    for (std::size_t i = want_segs - 1; i > 0; --i)
      std::swap(is_crash[i], is_crash[rng.uniform_u64(i + 1)]);

    const std::size_t max_payload = collector::wire_max_payload_bytes(
        engine_opts.decode.max_batch_packets);
    CorruptionFuzzer fuzzer(chaos.seed ^ 0xF022ULL);

    std::vector<std::byte> rebuilt;
    rebuilt.reserve(stream.size());
    for (std::size_t s = 0; s < n_segs; ++s) {
      const std::size_t f_lo = s * frames.size() / n_segs;
      const std::size_t f_hi = (s + 1) * frames.size() / n_segs;
      const std::size_t b_lo = frames[f_lo];
      const std::size_t b_hi =
          f_hi < frames.size() ? frames[f_hi] : stream.size();
      std::vector<std::byte> seg(stream.begin() + b_lo,
                                 stream.begin() + b_hi);
      std::vector<std::size_t> rel;
      for (std::size_t f = f_lo; f < f_hi; ++f)
        rel.push_back(frames[f] - b_lo);
      if (is_crash[s]) {
        // Tear the segment mid-frame: cut inside a random frame.
        const std::size_t fi = rng.uniform_u64(rel.size());
        const std::size_t off = rel[fi];
        const std::size_t fend = fi + 1 < rel.size() ? rel[fi + 1] : seg.size();
        truncate_at(seg, off + 1 + rng.uniform_u64(fend - off - 1));
        ++report.crashes_applied;
      } else {
        fuzzer.apply_random(seg, rel, max_payload);
        ++report.corruptions_applied;
      }
      rebuilt.insert(rebuilt.end(), seg.begin(), seg.end());
    }
    stream = std::move(rebuilt);
  }
  report.stream_bytes = stream.size();

  // 5. Drive the engine: chunked feed with duplicates and late chunks.
  engine_opts.capture_provenance = true;
  engine_opts.decode.framing = collector::WireFraming::kFramed;
  online::OnlineEngine engine(graph, std::move(peak_rates), engine_opts);
  for (NodeId id = 0; id < col.node_count(); ++id)
    if (col.has_node(id)) engine.register_node(id, col.node(id).full_flow);

  auto collect = [&report](std::vector<online::WindowResult> ws) {
    for (auto& w : ws) report.results.push_back(std::move(w));
  };
  std::vector<std::pair<std::size_t, std::size_t>> held;  // [pos, len)
  auto flush_held = [&] {
    // Deliver late chunks newest-first (maximal reordering).
    for (auto it = held.rbegin(); it != held.rend(); ++it) {
      engine.feed_bytes({stream.data() + it->first, it->second});
      collect(engine.poll());
    }
    held.clear();
  };
  for (std::size_t pos = 0; pos < stream.size(); pos += chaos.chunk_bytes) {
    const std::size_t len = std::min(chaos.chunk_bytes, stream.size() - pos);
    ++report.chunks;
    if (rng.bernoulli(chaos.reorder_prob) &&
        held.size() < chaos.max_reorder_chunks) {
      held.push_back({pos, len});
      ++report.chunks_reordered;
      continue;
    }
    engine.feed_bytes({stream.data() + pos, len});
    collect(engine.poll());
    if (rng.bernoulli(chaos.duplicate_prob)) {
      engine.feed_bytes({stream.data() + pos, len});
      ++report.chunks_duplicated;
      collect(engine.poll());
    }
    if (held.size() >= chaos.max_reorder_chunks) flush_held();
  }
  flush_held();
  collect(engine.finish());

  // 6. Audit: every captured propagation step must conserve its score.
  for (const online::WindowResult& w : report.results) {
    ++report.windows;
    report.diagnoses += w.diagnoses.size();
    for (const core::Provenance& prov : w.provenances) {
      for (const core::PropagationStep& st : prov.steps) {
        ++report.provenance_steps;
        const double rel =
            std::abs(st.residual) / std::max(1.0, st.base_score);
        report.max_conservation_residual =
            std::max(report.max_conservation_residual, rel);
        if (rel > 1e-6) report.conservation_ok = false;
      }
    }
  }
  report.decode = engine.decode_stats();
  report.stats = engine.stats();
  return report;
}

}  // namespace microscope::testing
