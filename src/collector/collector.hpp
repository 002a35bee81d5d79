// In-memory runtime collector.
//
// The paper's collector writes records into shared memory where a standalone
// dumper persists them (to keep the NF critical path short). `Collector` is
// the in-memory store that both the direct path and the ring+dumper path
// (see ring.hpp) ultimately fill.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "collector/records.hpp"
#include "common/packet.hpp"
#include "obs/metrics.hpp"

namespace microscope::collector {

struct CollectorOptions {
  /// Keep ground-truth uids/tags alongside records (tests & oracle only).
  bool ground_truth = true;
  /// Add `timestamp_noise_ns` of uniform noise to every batch timestamp to
  /// exercise the paper's §7 failure mode (clock inaccuracy). 0 = exact.
  DurationNs timestamp_noise_ns = 0;
  /// Seed for timestamp noise.
  std::uint64_t noise_seed = 1;
};

class Collector {
 public:
  explicit Collector(CollectorOptions opts = {});

  /// Declare a node before any records are written for it.
  /// `full_flow` enables five-tuple recording on the node's tx side.
  void register_node(NodeId id, bool full_flow);

  /// Record a batch read from the node's input queue (DPDK rx hook).
  void on_rx(NodeId id, TimeNs ts, std::span<const Packet> batch);

  /// Record a batch written toward `peer` (DPDK tx hook).
  void on_tx(NodeId id, NodeId peer, TimeNs ts, std::span<const Packet> batch);

  std::size_t node_count() const { return traces_.size(); }
  bool has_node(NodeId id) const {
    return id < traces_.size() && registered_[id];
  }
  const NodeTrace& node(NodeId id) const;
  NodeTrace& mutable_node(NodeId id);

  /// Approximate bytes of trace data collected so far, using the paper's
  /// compressed on-disk format (~2 B/packet + batch headers).
  std::size_t compressed_bytes() const;

  const CollectorOptions& options() const { return opts_; }

 private:
  /// The store behind both hooks, after they count the batch. `peer` is
  /// ignored for rx batches.
  void append(Direction dir, NodeId id, NodeId peer, TimeNs ts,
              std::span<const Packet> batch);
  TimeNs noisy(TimeNs ts);

  CollectorOptions opts_;
  std::vector<NodeTrace> traces_;
  std::vector<bool> registered_;
  std::uint64_t noise_state_;
  // Registry-backed hook counters, resolved once at construction so the
  // critical path is a single relaxed add per batch (a no-op under
  // MICROSCOPE_NO_METRICS).
  obs::Counter* rx_batches_;
  obs::Counter* rx_packets_;
  obs::Counter* tx_batches_;
  obs::Counter* tx_packets_;
};

}  // namespace microscope::collector
