#include "online/replay.hpp"

#include <optional>
#include <stdexcept>
#include <vector>

#include "collector/file.hpp"
#include "obs/tracing.hpp"

namespace microscope::online {

std::vector<WindowResult> replay_collector(const collector::Collector& col,
                                           StreamTarget& engine,
                                           std::size_t poll_every,
                                           bool finish,
                                           const WindowCallback& on_window) {
  for (NodeId id = 0; id < col.node_count(); ++id)
    if (col.has_node(id)) engine.register_node(id, col.node(id).full_flow);

  std::vector<WindowResult> windows;
  auto take = [&](std::vector<WindowResult> closed) {
    for (WindowResult& w : closed) {
      if (on_window) on_window(w);
      windows.push_back(std::move(w));
    }
  };
  std::size_t since_poll = 0;
  collector::for_each_batch_by_time(col, [&](const collector::TimedBatch& b) {
    if (b.dir == collector::Direction::kRx) {
      engine.on_rx(b.node, b.ts, b.pkts);
    } else {
      engine.on_tx(b.node, b.peer, b.ts, b.pkts);
    }
    if (poll_every > 0 && ++since_poll >= poll_every) {
      since_poll = 0;
      take(engine.poll());
    }
  });
  take(engine.poll());
  if (finish) take(engine.finish());
  return windows;
}

TraceFileTailer::TraceFileTailer(std::string path, StreamTarget& engine)
    : path_(std::move(path)), engine_(&engine) {
  is_.open(path_, std::ios::binary);
  if (!is_) throw std::runtime_error("cannot open for reading: " + path_);
}

void TraceFileTailer::try_parse_header() {
  const std::optional<collector::TraceFileHeader> hdr =
      collector::parse_trace_header(header_buf_, path_);
  if (!hdr) return;
  for (const collector::TraceFileHeader::Node& n : hdr->nodes)
    engine_->register_node(n.id, n.full_flow);
  // Must happen before any record byte reaches the engine: v2 records are
  // framed, and the decoder's framing can only be switched while drained.
  engine_->set_wire_framing(hdr->framing);
  header_done_ = true;
  engine_->feed_bytes(
      std::span<const std::byte>(header_buf_).subspan(hdr->length));
  header_buf_.clear();
  header_buf_.shrink_to_fit();
}

std::size_t TraceFileTailer::pump(std::size_t max_bytes) {
  if (max_bytes == 0) return 0;
  obs::TraceSpan span("collector", "drain");
  if (chunk_.size() < max_bytes) chunk_.resize(max_bytes);
  is_.clear();  // recover from a previous EOF: the file may have grown
  is_.read(reinterpret_cast<char*>(chunk_.data()),
           static_cast<std::streamsize>(max_bytes));
  const auto got = static_cast<std::size_t>(is_.gcount());
  if (got == 0) return 0;
  span.set_items(got);
  if (!header_done_) {
    header_buf_.insert(header_buf_.end(), chunk_.begin(),
                       chunk_.begin() + static_cast<std::ptrdiff_t>(got));
    try_parse_header();
  } else {
    engine_->feed_bytes(std::span<const std::byte>(chunk_.data(), got));
  }
  return got;
}

std::vector<WindowResult> TraceFileTailer::drain_to_end(
    std::size_t chunk, const WindowCallback& on_window) {
  std::vector<WindowResult> windows;
  while (pump(chunk) > 0)
    for (WindowResult& w : engine_->poll()) {
      if (on_window) on_window(w);
      windows.push_back(std::move(w));
    }
  for (WindowResult& w : engine_->finish()) {
    if (on_window) on_window(w);
    windows.push_back(std::move(w));
  }
  return windows;
}

}  // namespace microscope::online
