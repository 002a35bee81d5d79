// On-disk trace persistence.
//
// The paper's runtime dumper persists collector records to disk for offline
// diagnosis. This is that file format: a small header, a node table
// (node id, full_flow flag), then the batch records.
//
//   v1: records in the raw wire format (collector/wire.hpp) back to back —
//       compact, but a single corrupted byte desynchronizes everything
//       after it and a truncated file loses the whole trace.
//   v2: each record wrapped in a sync/len/CRC32C frame (see wire.hpp), so
//       corruption is detected and contained at record granularity and a
//       truncated file still yields its complete prefix.
//
// New files are written as v2; v1 files remain loadable. Ground-truth
// sidecar data is intentionally not persisted — a real deployment doesn't
// have it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "collector/collector.hpp"
#include "collector/wire.hpp"

namespace microscope::collector {

/// Magic + version checked on load.
inline constexpr std::uint32_t kTraceFileMagic = 0x4D535450;  // "MSTP"
inline constexpr std::uint16_t kTraceFileV1 = 1;  // raw records
inline constexpr std::uint16_t kTraceFileV2 = 2;  // framed records

/// A trace file's header: the node table and how the records after it are
/// framed.
struct TraceFileHeader {
  struct Node {
    NodeId id{0};
    bool full_flow{false};
  };
  std::uint16_t version{0};
  WireFraming framing{WireFraming::kFramed};
  std::vector<Node> nodes;
  /// Header length in bytes: the first record starts at this offset.
  std::size_t length{0};
};

/// Parse the header at the start of `bytes`, the first bytes of the file
/// at `path`. Returns std::nullopt while `bytes` ends before the header
/// does; throws std::runtime_error naming `path` on a bad magic or an
/// unknown version. The one header parser behind load_trace_ex and
/// online::TraceFileTailer.
std::optional<TraceFileHeader> parse_trace_header(
    std::span<const std::byte> bytes, const std::string& path);

/// Serialize the store to `path` as a v2 file. Throws std::runtime_error
/// on I/O failure.
void save_trace(const Collector& col, const std::string& path);

/// Like save_trace, but batch records are interleaved across nodes in
/// global timestamp order (for_each_batch_by_time; per-node record order
/// is preserved exactly). The resulting file is byte-compatible with
/// load_trace and, unlike the node-major layout, can be *tailed* by the
/// online engine: watermarks advance and windows close while the file is
/// still being read.
void save_trace_stream(const Collector& col, const std::string& path);

/// Outcome of a policy-aware load: the store plus the decode fault
/// accounting (all zero for a pristine file).
struct TraceLoadResult {
  Collector col;
  DecodeStats decode;
  std::uint16_t version{0};
  /// True when every byte decoded cleanly (no drops, no truncated tail).
  bool complete() const { return decode.dropped() == 0; }
  /// True when the file ended mid-record (crashed or still-running dumper).
  bool truncated() const { return decode.truncated_tail > 0; }
};

/// Load a trace written by save_trace under `policy`:
///  * kStrict — any fault (corruption, truncation, unknown node) throws a
///    typed DecodeError; a clean file loads exactly.
///  * kLenient — faults are counted per category in the returned
///    DecodeStats, the decoder re-synchronizes, and every recoverable
///    record is kept.
/// Header/node-table damage always throws std::runtime_error: with no node
/// table there is nothing meaningful to salvage. The returned collector has
/// no ground-truth sidecar.
TraceLoadResult load_trace_ex(const std::string& path,
                              DecodePolicy policy = DecodePolicy::kStrict);

/// Strict load (load_trace_ex(path, kStrict).col): throws on I/O, format,
/// or any decode fault.
Collector load_trace(const std::string& path);

/// Crashed-dumper recovery: lenient load that keeps the complete prefix
/// (and anything recoverable past a corrupt region) of a damaged or
/// truncated file instead of throwing the whole trace away. Equivalent to
/// load_trace_ex(path, DecodePolicy::kLenient); see the README runbook.
TraceLoadResult salvage_trace(const std::string& path);

}  // namespace microscope::collector
