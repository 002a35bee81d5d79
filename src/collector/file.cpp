#include "collector/file.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>

#include "collector/wire.hpp"

namespace microscope::collector {
namespace {

template <typename T>
void put(std::ofstream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

std::vector<NodeId> registered_nodes(const Collector& col) {
  std::vector<NodeId> nodes;
  for (NodeId id = 0; id < col.node_count(); ++id)
    if (col.has_node(id)) nodes.push_back(id);
  return nodes;
}

void write_header(std::ofstream& os, const Collector& col,
                  const std::vector<NodeId>& nodes) {
  put(os, kTraceFileMagic);
  put(os, kTraceFileV2);
  put(os, static_cast<std::uint32_t>(nodes.size()));
  for (const NodeId id : nodes) {
    put(os, id);
    put(os, static_cast<std::uint8_t>(col.node(id).full_flow ? 1 : 0));
  }
}

void write_record(std::ofstream& os, std::vector<std::byte>& buf,
                  Direction dir, NodeId node, NodeId peer, TimeNs ts,
                  std::span<const Packet> pkts, bool full_flow) {
  buf.clear();
  encode_frame(buf, dir, node, peer, ts, pkts, full_flow);
  os.write(reinterpret_cast<const char*>(buf.data()),
           static_cast<std::streamsize>(buf.size()));
}

/// Decode options for trace files: validate everything. The timestamp
/// tolerance is generous — collector clock noise perturbs stamps by
/// microseconds, while a corrupted i64 lands eons away.
DecodeOptions file_decode_options(DecodePolicy policy, WireFraming framing) {
  DecodeOptions opts;
  opts.policy = policy;
  opts.framing = framing;
  opts.max_ts_regression_ns = 10_ms;
  return opts;
}

}  // namespace

std::optional<TraceFileHeader> parse_trace_header(
    std::span<const std::byte> bytes, const std::string& path) {
  // magic u32, version u16, count u32, then count x (node u32, full u8).
  constexpr std::size_t kFixed = 4 + 2 + 4;
  constexpr std::size_t kNode = 4 + 1;
  if (bytes.size() < kFixed) return std::nullopt;
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  std::uint32_t count = 0;
  std::memcpy(&magic, bytes.data(), 4);
  std::memcpy(&version, bytes.data() + 4, 2);
  std::memcpy(&count, bytes.data() + 6, 4);
  if (magic != kTraceFileMagic)
    throw std::runtime_error("not a microscope trace file: " + path);
  if (version != kTraceFileV1 && version != kTraceFileV2)
    throw std::runtime_error("unsupported trace file version: " + path);
  const std::size_t length = kFixed + std::size_t{count} * kNode;
  if (bytes.size() < length) return std::nullopt;

  TraceFileHeader h;
  h.version = version;
  h.framing =
      version == kTraceFileV1 ? WireFraming::kRaw : WireFraming::kFramed;
  h.length = length;
  h.nodes.reserve(count);
  for (std::size_t off = kFixed; off < length; off += kNode) {
    NodeId id = 0;
    std::uint8_t full = 0;
    std::memcpy(&id, bytes.data() + off, 4);
    std::memcpy(&full, bytes.data() + off + 4, 1);
    h.nodes.push_back({id, full != 0});
  }
  return h;
}

void save_trace(const Collector& col, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("cannot open for writing: " + path);

  const std::vector<NodeId> nodes = registered_nodes(col);
  write_header(os, col, nodes);

  // Records, re-encoded through the wire format.
  std::vector<std::byte> buf;
  std::vector<Packet> pkts;
  for (const NodeId id : nodes) {
    const NodeTrace& t = col.node(id);
    for (const BatchRecord& rec : t.rx_batches) {
      batch_packets(t, Direction::kRx, rec, pkts);
      write_record(os, buf, Direction::kRx, id, kInvalidNode, rec.ts, pkts,
                   false);
    }
    for (const BatchRecord& rec : t.tx_batches) {
      batch_packets(t, Direction::kTx, rec, pkts);
      write_record(os, buf, Direction::kTx, id, rec.peer, rec.ts, pkts,
                   t.full_flow);
    }
  }
  if (!os) throw std::runtime_error("write failed: " + path);
}

void save_trace_stream(const Collector& col, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("cannot open for writing: " + path);
  write_header(os, col, registered_nodes(col));

  std::vector<std::byte> buf;
  for_each_batch_by_time(col, [&](const TimedBatch& b) {
    write_record(os, buf, b.dir, b.node, b.peer, b.ts, b.pkts, b.full_flow);
  });
  if (!os) throw std::runtime_error("write failed: " + path);
}

TraceLoadResult load_trace_ex(const std::string& path, DecodePolicy policy) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open for reading: " + path);

  std::vector<std::byte> chunk(1 << 16);
  const auto read_chunk = [&] {
    is.read(reinterpret_cast<char*>(chunk.data()),
            static_cast<std::streamsize>(chunk.size()));
    return std::span<const std::byte>(chunk.data(),
                                      static_cast<std::size_t>(is.gcount()));
  };
  std::vector<std::byte> head;
  std::optional<TraceFileHeader> hdr;
  while (!hdr) {
    const std::span<const std::byte> got = read_chunk();
    if (got.empty()) throw std::runtime_error("trace file truncated: " + path);
    head.insert(head.end(), got.begin(), got.end());
    hdr = parse_trace_header(head, path);
  }

  CollectorOptions copts;
  copts.ground_truth = false;
  TraceLoadResult result{Collector(copts), DecodeStats{}, hdr->version};
  for (const TraceFileHeader::Node& n : hdr->nodes)
    result.col.register_node(n.id, n.full_flow);

  WireDecoder dec(result.col, file_decode_options(policy, hdr->framing));
  dec.feed(std::span<const std::byte>(head).subspan(hdr->length));
  for (auto got = read_chunk(); !got.empty(); got = read_chunk()) dec.feed(got);
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
