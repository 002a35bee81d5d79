#include "collector/file.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "collector/wire.hpp"

namespace microscope::collector {
namespace {

template <typename T>
void put(std::ofstream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T get(std::ifstream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!is) throw std::runtime_error("trace file truncated");
  return v;
}

std::vector<NodeId> registered_nodes(const Collector& col) {
  std::vector<NodeId> nodes;
  for (NodeId id = 0; id < col.node_count(); ++id)
    if (col.has_node(id)) nodes.push_back(id);
  return nodes;
}

void write_header(std::ofstream& os, const Collector& col,
                  const std::vector<NodeId>& nodes, std::uint16_t version) {
  if (version != kTraceFileV1 && version != kTraceFileV2)
    throw std::invalid_argument("unknown trace file version " +
                                std::to_string(version));
  put(os, kTraceFileMagic);
  put(os, version);
  put(os, static_cast<std::uint32_t>(nodes.size()));
  for (const NodeId id : nodes) {
    put(os, id);
    put(os, static_cast<std::uint8_t>(col.node(id).full_flow ? 1 : 0));
  }
}

void write_record(std::ofstream& os, std::vector<std::byte>& buf,
                  std::uint16_t version, Direction dir, NodeId node,
                  NodeId peer, TimeNs ts, std::span<const Packet> pkts,
                  bool full_flow) {
  buf.clear();
  if (version == kTraceFileV1) {
    encode_batch(buf, dir, node, peer, ts, pkts, full_flow);
  } else {
    encode_frame(buf, dir, node, peer, ts, pkts, full_flow);
  }
  os.write(reinterpret_cast<const char*>(buf.data()),
           static_cast<std::streamsize>(buf.size()));
}

/// Decode options for trace files: validate everything. The timestamp
/// tolerance is generous — collector clock noise perturbs stamps by
/// microseconds, while a corrupted i64 lands eons away.
DecodeOptions file_decode_options(DecodePolicy policy, std::uint16_t version) {
  DecodeOptions opts;
  opts.policy = policy;
  opts.framing =
      version == kTraceFileV1 ? WireFraming::kRaw : WireFraming::kFramed;
  opts.max_ts_regression_ns = 10_ms;
  return opts;
}

}  // namespace

void save_trace(const Collector& col, const std::string& path,
                std::uint16_t version) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("cannot open for writing: " + path);

  const std::vector<NodeId> nodes = registered_nodes(col);
  write_header(os, col, nodes, version);

  // Records, re-encoded through the wire format.
  std::vector<std::byte> buf;
  std::vector<Packet> pkts;
  for (const NodeId id : nodes) {
    const NodeTrace& t = col.node(id);
    for (const BatchRecord& rec : t.rx_batches) {
      batch_packets(t, Direction::kRx, rec, pkts);
      write_record(os, buf, version, Direction::kRx, id, kInvalidNode, rec.ts,
                   pkts, false);
    }
    for (const BatchRecord& rec : t.tx_batches) {
      batch_packets(t, Direction::kTx, rec, pkts);
      write_record(os, buf, version, Direction::kTx, id, rec.peer, rec.ts,
                   pkts, t.full_flow);
    }
  }
  if (!os) throw std::runtime_error("write failed: " + path);
}

void save_trace_stream(const Collector& col, const std::string& path,
                       std::uint16_t version) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("cannot open for writing: " + path);
  write_header(os, col, registered_nodes(col), version);

  std::vector<std::byte> buf;
  for_each_batch_by_time(col, [&](const TimedBatch& b) {
    write_record(os, buf, version, b.dir, b.node, b.peer, b.ts, b.pkts,
                 b.full_flow);
  });
  if (!os) throw std::runtime_error("write failed: " + path);
}

TraceLoadResult load_trace_ex(const std::string& path, DecodePolicy policy) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open for reading: " + path);

  if (get<std::uint32_t>(is) != kTraceFileMagic)
    throw std::runtime_error("not a microscope trace file: " + path);
  const auto version = get<std::uint16_t>(is);
  if (version != kTraceFileV1 && version != kTraceFileV2)
    throw std::runtime_error("unsupported trace file version: " + path);

  CollectorOptions copts;
  copts.ground_truth = false;
  TraceLoadResult result{Collector(copts), DecodeStats{}, version};

  const auto n = get<std::uint32_t>(is);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto id = get<NodeId>(is);
    const auto full = get<std::uint8_t>(is);
    result.col.register_node(id, full != 0);
  }

  WireDecoder dec(result.col, file_decode_options(policy, version));
  std::vector<std::byte> chunk(1 << 16);
  while (is) {
    is.read(reinterpret_cast<char*>(chunk.data()),
            static_cast<std::streamsize>(chunk.size()));
    const auto got = static_cast<std::size_t>(is.gcount());
    if (got == 0) break;
    dec.feed(std::span<const std::byte>(chunk.data(), got));
  }
  dec.finish();
  result.decode = dec.stats();
  return result;
}

Collector load_trace(const std::string& path) {
  return std::move(load_trace_ex(path, DecodePolicy::kStrict).col);
}

TraceLoadResult salvage_trace(const std::string& path) {
  return load_trace_ex(path, DecodePolicy::kLenient);
}

}  // namespace microscope::collector
