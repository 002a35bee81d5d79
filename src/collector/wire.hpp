// Compact wire format for collector records, plus the hardened decode layer.
//
// This is the byte stream the runtime side pushes into the shared-memory
// ring and the standalone dumper decodes (or persists). Layout per record
// (the "raw" framing, used on the in-process ring and in v1 trace files):
//
//   u8  kind        (0 = rx batch, 1 = tx batch)
//   u32 node
//   u32 peer        (tx only)
//   i64 ts
//   u16 count
//   u16 ipid[count]
//   five-tuple[count]  (13 B each; only when the node records full flows)
//
// The v2 trace-file framing wraps each raw record in a self-describing
// frame so corruption is detected and contained at record granularity:
//
//   u16 sync  = kFrameSync
//   u16 len   = payload bytes (the raw record above)
//   u32 crc   = CRC32C(payload)
//   payload[len]
//
// Decoding validates every record against an error taxonomy (DecodeErrorKind)
// under a strict/lenient DecodePolicy. Lenient decode counts each fault,
// resynchronizes (scanning for the next frame sync, or the next parseable
// record in raw mode), and keeps going — one corrupted record costs one
// record, not the rest of the stream. Strict decode throws a typed
// DecodeError naming the fault, the stream byte offset, and the node (when
// known) at the first fault. Ground-truth sidecar data is intentionally NOT
// part of the wire format — a real deployment doesn't have it.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "collector/collector.hpp"
#include "common/packet.hpp"

namespace microscope::obs {
class Counter;
}  // namespace microscope::obs

namespace microscope::collector {

/// Per-record sync marker of the v2 framing (little-endian bytes FE 5A).
inline constexpr std::uint16_t kFrameSync = 0x5AFE;
/// Frame header: sync(2) + len(2) + crc32c(4).
inline constexpr std::size_t kFrameHeaderBytes = 8;
/// Smallest raw record: kind(1) + node(4) + ts(8) + count(2).
inline constexpr std::size_t kMinRecordBytes = 15;
/// Default cap on the per-batch packet count accepted by the decoder. DPDK
/// burst sizes are <= 512 in practice; anything near the u16 ceiling is a
/// corrupted length field, and rejecting it early keeps a flipped count
/// byte from swallowing kilobytes of good records.
inline constexpr std::uint16_t kDefaultMaxBatchPackets = 4096;

/// Largest raw-record payload possible under a batch cap: tx header (19)
/// plus ipid + five-tuple per packet.
constexpr std::size_t wire_max_payload_bytes(std::uint16_t max_batch_packets) {
  return 19 + 15ull * max_batch_packets;
}
static_assert(wire_max_payload_bytes(kDefaultMaxBatchPackets) <= 0xFFFF,
              "v2 frame length field is u16");

/// Everything that can be wrong with a record on the wire. Lenient decode
/// counts one of these per corruption episode; strict decode throws it.
enum class DecodeErrorKind : std::uint8_t {
  kBadSync,              // v2: frame marker missing where a frame must start
  kBadLength,            // v2: frame length implausible or payload/len mismatch
  kBadCrc,               // v2: payload failed its CRC32C
  kBadKind,              // record kind byte not in {0, 1}
  kUnknownNode,          // node id absent from the registration table
  kOversizedBatch,       // batch count above DecodeOptions::max_batch_packets
  kTimestampRegression,  // ts runs backward beyond tolerance (or negative)
  kTruncatedTail,        // stream ended inside a record/frame
};
const char* to_string(DecodeErrorKind kind);

enum class DecodePolicy : std::uint8_t {
  kLenient,  // count + resync; never throw
  kStrict,   // throw DecodeError at the first fault
};

enum class WireFraming : std::uint8_t {
  kRaw,     // bare records (ring, v1 trace files)
  kFramed,  // sync/len/crc frames (v2 trace files)
};

struct DecodeOptions {
  DecodePolicy policy = DecodePolicy::kLenient;
  WireFraming framing = WireFraming::kRaw;
  std::uint16_t max_batch_packets = kDefaultMaxBatchPackets;
  /// Per-(node, direction) timestamp monotonicity tolerance: a record whose
  /// timestamp precedes its stream's previous one by more than this — or is
  /// negative — is faulted as kTimestampRegression. Negative disables the
  /// check (the right setting for trusted in-process streams, where clock
  /// noise is legitimate and nothing corrupts bytes in flight).
  DurationNs max_ts_regression_ns = -1;
};

/// Typed decode failure: what was wrong, where in the record stream (byte
/// offset from the first byte fed, i.e. relative to the start of a trace
/// file's record section), and which node the record named when that much
/// was parseable.
class DecodeError : public std::runtime_error {
 public:
  DecodeError(DecodeErrorKind kind, std::uint64_t offset, NodeId node,
              const std::string& detail);

  DecodeErrorKind kind() const { return kind_; }
  /// Byte offset of the faulted record within the stream fed so far.
  std::uint64_t offset() const { return offset_; }
  /// Node id named by the record, or kInvalidNode when unparseable.
  NodeId node() const { return node_; }

 private:
  DecodeErrorKind kind_;
  std::uint64_t offset_;
  NodeId node_;
};

/// Per-decoder fault accounting (mirrored into obs:: counters under
/// `collector.decode.*`). One category increment per corruption episode: the
/// bytes scanned while re-synchronizing count into resync_bytes_skipped, not
/// into further categories.
struct DecodeStats {
  std::uint64_t records{0};  // successfully decoded batches
  std::uint64_t bad_sync{0};
  std::uint64_t bad_length{0};
  std::uint64_t bad_crc{0};
  std::uint64_t bad_kind{0};
  std::uint64_t unknown_node{0};
  std::uint64_t oversized_batch{0};
  std::uint64_t timestamp_regression{0};
  std::uint64_t truncated_tail{0};
  std::uint64_t resync_bytes_skipped{0};

  std::uint64_t count(DecodeErrorKind kind) const;
  /// Total corruption episodes across all categories.
  std::uint64_t dropped() const {
    return bad_sync + bad_length + bad_crc + bad_kind + unknown_node +
           oversized_batch + timestamp_regression + truncated_tail;
  }
};

/// Append one batch record to `out` (raw framing). Returns bytes appended.
std::size_t encode_batch(std::vector<std::byte>& out, Direction dir, NodeId node,
                         NodeId peer, TimeNs ts, std::span<const Packet> batch,
                         bool full_flow);

/// Append one v2 frame (sync + len + crc + raw record) to `out`. Returns
/// bytes appended. Throws std::length_error if the payload would overflow
/// the u16 frame length (batch larger than ~4 K packets).
std::size_t encode_frame(std::vector<std::byte>& out, Direction dir, NodeId node,
                         NodeId peer, TimeNs ts, std::span<const Packet> batch,
                         bool full_flow);

/// One batch decoded off the wire, independent of any Collector store.
struct DecodedBatch {
  Direction dir{Direction::kRx};
  NodeId node{kInvalidNode};
  NodeId peer{kInvalidNode};  // tx only
  TimeNs ts{0};
  std::vector<Packet> pkts;  // ipid always; flow only for full-flow tx
};

/// Incremental validating decoder that hands complete batches to a
/// callback. Handles records split across feed() calls (as happens with a
/// byte ring or a tailed file). The wire format does not mark whether a tx
/// record carries five-tuples, so the caller supplies a `full_flow(node)`
/// predicate — normally backed by the node registration table. An optional
/// `known_node(node)` predicate enables kUnknownNode validation; without it
/// any node id is accepted (callers without a registration table).
class WireCallbackDecoder {
 public:
  using FullFlowFn = std::function<bool(NodeId)>;
  using BatchFn = std::function<void(const DecodedBatch&)>;
  using KnownNodeFn = std::function<bool(NodeId)>;

  WireCallbackDecoder(FullFlowFn full_flow, BatchFn on_batch)
      : WireCallbackDecoder(std::move(full_flow), std::move(on_batch),
                            DecodeOptions{}, {}) {}

  WireCallbackDecoder(FullFlowFn full_flow, BatchFn on_batch,
                      DecodeOptions opts, KnownNodeFn known_node = {});

  /// Consume `bytes`; any trailing partial record is buffered. Strict
  /// policy: throws DecodeError at the first fault (the cursor stays on the
  /// faulted record, so a retry fails identically).
  void feed(std::span<const std::byte> bytes);

  /// End of stream: a buffered partial record is faulted as kTruncatedTail
  /// (strict: throws). Lenient decode then re-scans the tail so frames
  /// stranded behind a corrupt length prefix are still recovered.
  void finish();

  /// Switch framing (e.g. after a file header announced v2). Only legal
  /// while no partial record is buffered.
  void set_framing(WireFraming framing);

  const DecodeOptions& options() const { return opts_; }
  const DecodeStats& stats() const { return stats_; }

  /// Number of complete batch records decoded by the feed() and finish()
  /// calls returned so far (readable from other threads; RingCollector::
  /// flush polls it).
  std::uint64_t decoded_batches() const {
    return decoded_.load(std::memory_order_acquire);
  }

  /// True if no partial record is pending.
  bool drained() const { return consumed_ == pending_.size(); }

 private:
  struct Parsed {
    enum class Status : std::uint8_t { kOk, kNeedMore, kFault };
    Status status{Status::kNeedMore};
    DecodeErrorKind fault{DecodeErrorKind::kBadKind};
    std::size_t need{0};  // record bytes; valid on kOk and on ts faults
    NodeId node{kInvalidNode};
  };

  /// Validate + decode the raw record at `p` into scratch_ (on kOk).
  /// `exact_len`: when >= 0, the record must consume exactly that many
  /// bytes (v2 frame payloads); mismatch faults as kBadLength.
  Parsed parse_record(const std::byte* p, std::size_t avail,
                      std::ptrdiff_t exact_len);

  bool step();         // one decode attempt; false when more bytes needed
  bool step_raw();
  bool step_framed();
  void accept(std::size_t bytes);           // emit scratch_, advance cursor
  void fault(DecodeErrorKind kind, NodeId node);  // count or throw
  void skip_resync(std::size_t bytes);      // advance cursor while resyncing
  void compact();
  /// Bring decoded_ and collector.decode.records up to stats_.records; the
  /// end of every feed() and finish() does (and a strict fault before it
  /// throws), so neither moves per record.
  void publish_records();

  FullFlowFn full_flow_;
  BatchFn on_batch_;
  KnownNodeFn known_node_;
  DecodeOptions opts_;
  DecodeStats stats_;
  std::vector<std::byte> pending_;
  std::size_t consumed_{0};       // cursor into pending_ (reset by compact)
  std::uint64_t stream_offset_{0};  // absolute cursor across all feeds
  bool resync_{false};  // inside a corruption episode; skips are not new faults
  /// Last accepted timestamp per (node, direction); only consulted when
  /// max_ts_regression_ns >= 0. Node ids above kMaxTracked are not tracked
  /// (unvalidated streams can name arbitrary ids; don't let them size this).
  static constexpr std::size_t kMaxTrackedNode = 1 << 16;
  std::vector<std::array<TimeNs, 2>> last_ts_;
  DecodedBatch scratch_;
  std::atomic<std::uint64_t> decoded_{0};  // stats_.records, published
  // Registry mirrors, resolved once at construction.
  obs::Counter* obs_fault_[8];
  obs::Counter* obs_records_;
  obs::Counter* obs_resync_bytes_;
};

/// Incremental decoder that emits decoded batches into a Collector (the
/// ring-dumper and trace-file loading path). Unknown-node validation is
/// always on, backed by the sink's registration table, so a corrupted node
/// id is counted (lenient) or reported (strict) instead of escaping as
/// std::out_of_range from Collector::on_rx/on_tx.
class WireDecoder {
 public:
  explicit WireDecoder(Collector& sink) : WireDecoder(sink, DecodeOptions{}) {}
  WireDecoder(Collector& sink, DecodeOptions opts);

  /// Consume `bytes`; any trailing partial record is buffered.
  void feed(std::span<const std::byte> bytes) { inner_.feed(bytes); }

  /// End of stream; see WireCallbackDecoder::finish.
  void finish() { inner_.finish(); }

  void set_framing(WireFraming framing) { inner_.set_framing(framing); }

  const DecodeStats& stats() const { return inner_.stats(); }
  std::uint64_t decoded_batches() const { return inner_.decoded_batches(); }

  /// True if no partial record is pending.
  bool drained() const { return inner_.drained(); }

 private:
  Collector* sink_;
  WireCallbackDecoder inner_;
};

}  // namespace microscope::collector
