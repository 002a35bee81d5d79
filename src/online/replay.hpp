// Feeding the streaming engine from recorded data.
//
// Two sources:
//  * replay_collector — an in-memory offline Collector, interleaved into
//    one global time-ordered stream (what the rings would have produced),
//    with poll() interspersed at a configurable granularity.
//  * TraceFileTailer — a trace file in the save_trace_stream layout,
//    consumed incrementally (`tail -f` style): the file may still be
//    growing, reads are chunked, and records split across chunks are fine.
#pragma once

#include <cstddef>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "collector/collector.hpp"
#include "online/engine.hpp"

namespace microscope::online {

/// Observer invoked as each window closes during a replay/tail drive (live
/// progress, periodic metrics dumps); the window is still returned in the
/// final vector.
using WindowCallback = std::function<void(const WindowResult&)>;

/// Replay every record of `col` into `engine` in global timestamp order
/// (collector::for_each_batch_by_time, the order save_trace_stream
/// writes), registering the nodes first and calling engine.poll() every
/// `poll_every` batches. Closed windows are returned in order; when
/// `finish` is set the stream is finalized too.
std::vector<WindowResult> replay_collector(const collector::Collector& col,
                                           StreamTarget& engine,
                                           std::size_t poll_every = 64,
                                           bool finish = true,
                                           const WindowCallback& on_window = {});

/// Incremental reader for save_trace_stream files feeding a StreamTarget.
/// Parses the header (registering the node table on the engine and
/// switching the engine's wire framing to match the file version — raw for
/// v1, framed for v2), then forwards record bytes through the engine's
/// wire decoder. Decode policy/validation comes from the engine's
/// OnlineOptions::decode.
class TraceFileTailer {
 public:
  TraceFileTailer(std::string path, StreamTarget& engine);

  /// Read and ingest up to `max_bytes` of new data. Returns bytes
  /// consumed; 0 means no new data right now (the file may still grow).
  std::size_t pump(std::size_t max_bytes = 1 << 16);

  /// Pump until EOF, polling the engine after every chunk; then finish().
  /// Convenience for files that are already complete.
  std::vector<WindowResult> drain_to_end(std::size_t chunk = 1 << 12,
                                         const WindowCallback& on_window = {});

 private:
  void try_parse_header();

  std::string path_;
  StreamTarget* engine_;
  std::ifstream is_;
  bool header_done_{false};
  std::vector<std::byte> header_buf_;
  std::vector<std::byte> chunk_;  // read buffer, kept across pumps
};

}  // namespace microscope::online
