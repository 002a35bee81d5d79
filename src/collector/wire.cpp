#include "collector/wire.hpp"

#include <cstring>

#include "common/crc32c.hpp"
#include "obs/metrics.hpp"

namespace microscope::collector {
namespace {

template <typename T>
void put(std::vector<std::byte>& out, const T& v) {
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}

template <typename T>
T get(const std::byte* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
void patch(std::vector<std::byte>& out, std::size_t at, const T& v) {
  std::memcpy(out.data() + at, &v, sizeof(T));
}

struct PackedTuple {
  std::uint32_t src_ip;
  std::uint32_t dst_ip;
  std::uint16_t src_port;
  std::uint16_t dst_port;
  std::uint8_t proto;
};
static_assert(sizeof(PackedTuple) <= 16);

const char* metric_name(DecodeErrorKind kind) {
  switch (kind) {
    case DecodeErrorKind::kBadSync:
      return "collector.decode.bad_sync";
    case DecodeErrorKind::kBadLength:
      return "collector.decode.bad_length";
    case DecodeErrorKind::kBadCrc:
      return "collector.decode.bad_crc";
    case DecodeErrorKind::kBadKind:
      return "collector.decode.bad_kind";
    case DecodeErrorKind::kUnknownNode:
      return "collector.decode.unknown_node";
    case DecodeErrorKind::kOversizedBatch:
      return "collector.decode.oversized_batch";
    case DecodeErrorKind::kTimestampRegression:
      return "collector.decode.timestamp_regression";
    case DecodeErrorKind::kTruncatedTail:
      return "collector.decode.truncated_tail";
  }
  return "collector.decode.unknown";
}

}  // namespace

const char* to_string(DecodeErrorKind kind) {
  switch (kind) {
    case DecodeErrorKind::kBadSync:
      return "bad_sync";
    case DecodeErrorKind::kBadLength:
      return "bad_length";
    case DecodeErrorKind::kBadCrc:
      return "bad_crc";
    case DecodeErrorKind::kBadKind:
      return "bad_kind";
    case DecodeErrorKind::kUnknownNode:
      return "unknown_node";
    case DecodeErrorKind::kOversizedBatch:
      return "oversized_batch";
    case DecodeErrorKind::kTimestampRegression:
      return "timestamp_regression";
    case DecodeErrorKind::kTruncatedTail:
      return "truncated_tail";
  }
  return "unknown";
}

DecodeError::DecodeError(DecodeErrorKind kind, std::uint64_t offset,
                         NodeId node, const std::string& detail)
    : std::runtime_error("wire decode error [" + std::string(to_string(kind)) +
                         "] at stream offset " + std::to_string(offset) +
                         (node == kInvalidNode
                              ? std::string()
                              : " (node " + std::to_string(node) + ")") +
                         (detail.empty() ? std::string() : ": " + detail)),
      kind_(kind),
      offset_(offset),
      node_(node) {}

std::uint64_t DecodeStats::count(DecodeErrorKind kind) const {
  switch (kind) {
    case DecodeErrorKind::kBadSync:
      return bad_sync;
    case DecodeErrorKind::kBadLength:
      return bad_length;
    case DecodeErrorKind::kBadCrc:
      return bad_crc;
    case DecodeErrorKind::kBadKind:
      return bad_kind;
    case DecodeErrorKind::kUnknownNode:
      return unknown_node;
    case DecodeErrorKind::kOversizedBatch:
      return oversized_batch;
    case DecodeErrorKind::kTimestampRegression:
      return timestamp_regression;
    case DecodeErrorKind::kTruncatedTail:
      return truncated_tail;
  }
  return 0;
}

std::size_t encode_batch(std::vector<std::byte>& out, Direction dir, NodeId node,
                         NodeId peer, TimeNs ts, std::span<const Packet> batch,
                         bool full_flow) {
  const std::size_t before = out.size();
  put<std::uint8_t>(out, dir == Direction::kRx ? 0 : 1);
  put<std::uint32_t>(out, node);
  if (dir == Direction::kTx) put<std::uint32_t>(out, peer);
  put<std::int64_t>(out, ts);
  put<std::uint16_t>(out, static_cast<std::uint16_t>(batch.size()));
  for (const Packet& p : batch) put<std::uint16_t>(out, p.ipid);
  if (full_flow && dir == Direction::kTx) {
    for (const Packet& p : batch) {
      PackedTuple t{p.flow.src_ip, p.flow.dst_ip, p.flow.src_port,
                    p.flow.dst_port, p.flow.proto};
      const auto* b = reinterpret_cast<const std::byte*>(&t);
      out.insert(out.end(), b, b + 13);  // 13 significant bytes
    }
  }
  return out.size() - before;
}

std::size_t encode_frame(std::vector<std::byte>& out, Direction dir, NodeId node,
                         NodeId peer, TimeNs ts, std::span<const Packet> batch,
                         bool full_flow) {
  const std::size_t before = out.size();
  put<std::uint16_t>(out, kFrameSync);
  put<std::uint16_t>(out, 0);  // len, patched below
  put<std::uint32_t>(out, 0);  // crc, patched below
  const std::size_t payload_at = out.size();
  encode_batch(out, dir, node, peer, ts, batch, full_flow);
  const std::size_t payload_len = out.size() - payload_at;
  if (payload_len > 0xFFFF)
    throw std::length_error("wire frame payload exceeds u16 length");
  patch<std::uint16_t>(out, before + 2,
                       static_cast<std::uint16_t>(payload_len));
  patch<std::uint32_t>(out, before + 4,
                       crc32c(out.data() + payload_at, payload_len));
  return out.size() - before;
}

WireCallbackDecoder::WireCallbackDecoder(FullFlowFn full_flow, BatchFn on_batch,
                                         DecodeOptions opts,
                                         KnownNodeFn known_node)
    : full_flow_(std::move(full_flow)),
      on_batch_(std::move(on_batch)),
      known_node_(std::move(known_node)),
      opts_(opts) {
  obs::Registry& reg = obs::Registry::global();
  for (std::uint8_t k = 0; k < 8; ++k)
    obs_fault_[k] = &reg.counter(metric_name(static_cast<DecodeErrorKind>(k)));
  obs_records_ = &reg.counter("collector.decode.records");
  obs_resync_bytes_ = &reg.counter("collector.decode.resync_bytes");
}

void WireCallbackDecoder::set_framing(WireFraming framing) {
  if (!drained())
    throw std::logic_error(
        "wire decoder: cannot switch framing with a partial record pending");
  opts_.framing = framing;
}

void WireCallbackDecoder::publish_records() {
  const std::uint64_t counted = decoded_.load(std::memory_order_relaxed);
  if (stats_.records == counted) return;
  obs_records_->add(stats_.records - counted);
  decoded_.store(stats_.records, std::memory_order_release);
}

void WireCallbackDecoder::feed(std::span<const std::byte> bytes) {
  pending_.insert(pending_.end(), bytes.begin(), bytes.end());
  while (step()) {
  }
  compact();
  publish_records();
}

void WireCallbackDecoder::finish() {
  // A partial record (or a frame whose corrupted length claims more bytes
  // than the stream holds) is a truncated tail. After counting it, keep
  // scanning: frames stranded behind the bad length prefix are recoverable.
  while (!drained()) {
    fault(DecodeErrorKind::kTruncatedTail, kInvalidNode);
    skip_resync(1);
    while (step()) {
    }
  }
  compact();
  resync_ = false;
  publish_records();
}

void WireCallbackDecoder::compact() {
  if (consumed_ == 0) return;
  if (consumed_ == pending_.size()) {
    pending_.clear();
  } else {
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(consumed_));
  }
  consumed_ = 0;
}

void WireCallbackDecoder::fault(DecodeErrorKind kind, NodeId node) {
  if (opts_.policy == DecodePolicy::kStrict) {
    publish_records();  // the records before the fault count
    throw DecodeError(kind, stream_offset_, node, "");
  }
  // One category increment per corruption episode: while re-synchronizing,
  // failed parse attempts are scanning, not new faults.
  if (resync_) return;
  resync_ = true;
  switch (kind) {
    case DecodeErrorKind::kBadSync:
      ++stats_.bad_sync;
      break;
    case DecodeErrorKind::kBadLength:
      ++stats_.bad_length;
      break;
    case DecodeErrorKind::kBadCrc:
      ++stats_.bad_crc;
      break;
    case DecodeErrorKind::kBadKind:
      ++stats_.bad_kind;
      break;
    case DecodeErrorKind::kUnknownNode:
      ++stats_.unknown_node;
      break;
    case DecodeErrorKind::kOversizedBatch:
      ++stats_.oversized_batch;
      break;
    case DecodeErrorKind::kTimestampRegression:
      ++stats_.timestamp_regression;
      break;
    case DecodeErrorKind::kTruncatedTail:
      ++stats_.truncated_tail;
      break;
  }
  obs_fault_[static_cast<std::uint8_t>(kind)]->add();
}

void WireCallbackDecoder::skip_resync(std::size_t bytes) {
  consumed_ += bytes;
  stream_offset_ += bytes;
  stats_.resync_bytes_skipped += bytes;
  obs_resync_bytes_->add(bytes);
}

void WireCallbackDecoder::accept(std::size_t bytes) {
  if (opts_.max_ts_regression_ns >= 0 &&
      scratch_.node < kMaxTrackedNode) {
    if (scratch_.node >= last_ts_.size())
      last_ts_.resize(scratch_.node + 1, {kTimeNever, kTimeNever});
    last_ts_[scratch_.node][scratch_.dir == Direction::kRx ? 0 : 1] =
        scratch_.ts;
  }
  on_batch_(scratch_);
  consumed_ += bytes;
  stream_offset_ += bytes;
  ++stats_.records;
  resync_ = false;
}

WireCallbackDecoder::Parsed WireCallbackDecoder::parse_record(
    const std::byte* p, std::size_t avail, std::ptrdiff_t exact_len) {
  Parsed r;
  if (avail < 1) return r;  // kNeedMore
  const std::uint8_t kind = get<std::uint8_t>(p);
  if (kind > 1) {
    r.status = Parsed::Status::kFault;
    r.fault = DecodeErrorKind::kBadKind;
    return r;
  }
  // Header: kind(1) + node(4) [+ peer(4)] + ts(8) + count(2).
  const std::size_t header = kind == 1 ? 19 : 15;
  if (avail < header) return r;  // kNeedMore
  std::size_t off = 1;
  const auto node = get<std::uint32_t>(p + off);
  off += 4;
  r.node = node;
  if (known_node_ && !known_node_(node)) {
    r.status = Parsed::Status::kFault;
    r.fault = DecodeErrorKind::kUnknownNode;
    return r;
  }
  NodeId peer = kInvalidNode;
  if (kind == 1) {
    peer = get<std::uint32_t>(p + off);
    off += 4;
  }
  const auto ts = get<std::int64_t>(p + off);
  off += 8;
  const auto count = get<std::uint16_t>(p + off);
  off += 2;
  if (count > opts_.max_batch_packets) {
    r.status = Parsed::Status::kFault;
    r.fault = DecodeErrorKind::kOversizedBatch;
    return r;
  }

  const bool full = kind == 1 && full_flow_(node);
  std::size_t need = off + 2ull * count;
  if (full) need += 13ull * count;
  r.need = need;
  if (exact_len >= 0 && need != static_cast<std::size_t>(exact_len)) {
    r.status = Parsed::Status::kFault;
    r.fault = DecodeErrorKind::kBadLength;
    return r;
  }
  if (avail < need) return r;  // kNeedMore

  if (opts_.max_ts_regression_ns >= 0) {
    bool regressed = ts < 0;
    if (!regressed && node < kMaxTrackedNode && node < last_ts_.size()) {
      const TimeNs last = last_ts_[node][kind == 0 ? 0 : 1];
      regressed = last != kTimeNever && ts + opts_.max_ts_regression_ns < last;
    }
    if (regressed) {
      r.status = Parsed::Status::kFault;
      r.fault = DecodeErrorKind::kTimestampRegression;
      return r;
    }
  }

  scratch_.dir = kind == 0 ? Direction::kRx : Direction::kTx;
  scratch_.node = node;
  scratch_.peer = peer;
  scratch_.ts = ts;
  scratch_.pkts.assign(count, Packet{});
  for (std::uint16_t i = 0; i < count; ++i) {
    scratch_.pkts[i].ipid = get<std::uint16_t>(p + off);
    off += 2;
  }
  if (full) {
    for (std::uint16_t i = 0; i < count; ++i) {
      FiveTuple ft;
      ft.src_ip = get<std::uint32_t>(p + off);
      ft.dst_ip = get<std::uint32_t>(p + off + 4);
      ft.src_port = get<std::uint16_t>(p + off + 8);
      ft.dst_port = get<std::uint16_t>(p + off + 10);
      ft.proto = get<std::uint8_t>(p + off + 12);
      scratch_.pkts[i].flow = ft;
      off += 13;
    }
  }
  r.status = Parsed::Status::kOk;
  return r;
}

bool WireCallbackDecoder::step() {
  return opts_.framing == WireFraming::kRaw ? step_raw() : step_framed();
}

bool WireCallbackDecoder::step_raw() {
  const std::size_t avail = pending_.size() - consumed_;
  if (avail == 0) return false;
  const std::byte* p = pending_.data() + consumed_;
  const Parsed r = parse_record(p, avail, -1);
  switch (r.status) {
    case Parsed::Status::kNeedMore:
      return false;
    case Parsed::Status::kOk:
      accept(r.need);
      return true;
    case Parsed::Status::kFault:
      if (r.fault == DecodeErrorKind::kTimestampRegression && !resync_) {
        // Structurally sound record with a bad clock: drop exactly it.
        fault(r.fault, r.node);
        consumed_ += r.need;
        stream_offset_ += r.need;
        resync_ = false;
        return true;
      }
      // Raw framing carries no record boundary we can trust past a fault;
      // re-synchronize by scanning byte-by-byte for the next record that
      // validates.
      fault(r.fault, r.node);
      skip_resync(1);
      return true;
  }
  return false;
}

bool WireCallbackDecoder::step_framed() {
  const std::size_t avail = pending_.size() - consumed_;
  if (avail < kFrameHeaderBytes) return false;
  const std::byte* p = pending_.data() + consumed_;

  const auto sync = get<std::uint16_t>(p);
  if (sync != kFrameSync) {
    fault(DecodeErrorKind::kBadSync, kInvalidNode);
    // Scan forward for the next plausible frame marker.
    std::size_t skip = 1;
    while (consumed_ + skip + 2 <= pending_.size() &&
           get<std::uint16_t>(pending_.data() + consumed_ + skip) !=
               kFrameSync) {
      ++skip;
    }
    skip_resync(skip);
    return true;
  }
  const auto len = get<std::uint16_t>(p + 2);
  if (len < kMinRecordBytes ||
      len > wire_max_payload_bytes(opts_.max_batch_packets)) {
    fault(DecodeErrorKind::kBadLength, kInvalidNode);
    skip_resync(1);
    return true;
  }
  if (avail < kFrameHeaderBytes + len) return false;
  // The CRC walk below touches only this frame; start pulling the next
  // frame's header into cache so the pending-cursor advance doesn't stall
  // on it (the decode loop is limited by these dependent line fills).
  if (avail >= kFrameHeaderBytes + len + kFrameHeaderBytes)
    __builtin_prefetch(p + kFrameHeaderBytes + len);
  const auto crc = get<std::uint32_t>(p + 4);
  if (crc32c(p + kFrameHeaderBytes, len) != crc) {
    fault(DecodeErrorKind::kBadCrc, kInvalidNode);
    skip_resync(1);
    return true;
  }

  // Frame integrity holds, so the boundary is trustworthy: payload-level
  // faults (bad kind, unknown node, oversized count, clock regression) drop
  // exactly this frame and stay synchronized.
  const Parsed r = parse_record(p + kFrameHeaderBytes, len, len);
  switch (r.status) {
    case Parsed::Status::kOk:
      accept(kFrameHeaderBytes + len);
      return true;
    case Parsed::Status::kNeedMore: {
      // The payload's own fields claim more than its frame length.
      fault(DecodeErrorKind::kBadLength, r.node);
      consumed_ += kFrameHeaderBytes + len;
      stream_offset_ += kFrameHeaderBytes + len;
      resync_ = false;
      return true;
    }
    case Parsed::Status::kFault:
      fault(r.fault, r.node);
      consumed_ += kFrameHeaderBytes + len;
      stream_offset_ += kFrameHeaderBytes + len;
      resync_ = false;
      return true;
  }
  return false;
}

WireDecoder::WireDecoder(Collector& sink, DecodeOptions opts)
    : sink_(&sink),
      inner_(
          [this](NodeId node) {
            return sink_->has_node(node) && sink_->node(node).full_flow;
          },
          [this](const DecodedBatch& b) {
            // Hand the batch to the collector through its normal API so
            // downstream consumers see one canonical representation.
            if (b.dir == Direction::kRx) {
              sink_->on_rx(b.node, b.ts, b.pkts);
            } else {
              sink_->on_tx(b.node, b.peer, b.ts, b.pkts);
            }
          },
          opts, [this](NodeId node) { return sink_->has_node(node); }) {}

}  // namespace microscope::collector
