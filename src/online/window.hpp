// Window lifecycle + watermark tracking for the streaming engine.
//
// The stream is segmented into fixed, contiguous window cores
// [k*W, (k+1)*W). A window *closes* — becomes eligible for reconstruction
// and diagnosis — only when every node's stream has advanced past
// window_end + slack (the max-propagation slack): a packet whose victim
// anchor lies inside the core can still be in flight for up to `slack`
// after the core ends, and a node whose records for the core haven't been
// drained yet must hold the window open. Per-node watermarks are the
// largest record timestamp drained from that node so far; per-node streams
// are in timestamp order, so a watermark past t proves no record <= t is
// still coming — late data can only appear when a window was force-closed.
//
// A node that goes idle (no records, watermark stalls) would wedge every
// later window; the idle timeout force-closes a window once the *global*
// watermark has run `idle_timeout` past the window's due point.
#pragma once

#include <cstdint>
#include <vector>

#include "common/packet.hpp"
#include "common/time.hpp"

namespace microscope::online {

struct WindowBounds {
  std::int64_t index{0};
  TimeNs start{0};
  TimeNs end{0};  // exclusive
  /// Closed by the idle timeout rather than by full watermark coverage.
  bool idle_forced{false};
};

class WindowManager {
 public:
  WindowManager(DurationNs window_ns, DurationNs slack_ns,
                DurationNs idle_timeout_ns);

  void register_node(NodeId id);

  /// Record that `node`'s stream reached `ts`.
  void note(NodeId id, TimeNs ts);

  /// Next window that can close, if any. `finishing` ignores watermark
  /// coverage and closes every window whose core could contain a victim
  /// (start <= global watermark + slack).
  bool next_closable(WindowBounds& out, bool finishing) const;

  /// Advance past the window returned by next_closable.
  void advance();

  /// End of the newest closed window (records below this are late).
  TimeNs closed_end() const { return closed_end_; }
  TimeNs global_watermark() const { return global_max_; }
  /// Minimum watermark across registered nodes (kWatermarkNone when some
  /// node has not produced a record yet). Scans the nodes only after a
  /// registration or after a note() raised a node that sat at the minimum,
  /// so a poll pays at most one scan however often it asks.
  TimeNs min_watermark() const;

  DurationNs window_ns() const { return window_ns_; }
  DurationNs slack_ns() const { return slack_ns_; }

  static constexpr TimeNs kWatermarkNone =
      std::numeric_limits<TimeNs>::min();

 private:
  DurationNs window_ns_;
  DurationNs slack_ns_;
  DurationNs idle_timeout_ns_;
  std::vector<TimeNs> watermarks_;   // by node id, kWatermarkNone = unseen
  std::vector<bool> registered_;
  TimeNs global_max_{kWatermarkNone};
  mutable TimeNs min_{kWatermarkNone};
  mutable bool min_stale_{false};
  std::int64_t next_index_{0};
  bool started_{false};
  TimeNs closed_end_{kWatermarkNone};
};

}  // namespace microscope::online
