#include "online/window.hpp"

#include <algorithm>
#include <stdexcept>

namespace microscope::online {

WindowManager::WindowManager(DurationNs window_ns, DurationNs slack_ns,
                             DurationNs idle_timeout_ns)
    : window_ns_(window_ns),
      slack_ns_(slack_ns),
      idle_timeout_ns_(idle_timeout_ns) {
  if (window_ns_ <= 0) throw std::invalid_argument("window must be > 0");
  if (slack_ns_ < 0) throw std::invalid_argument("slack must be >= 0");
}

void WindowManager::register_node(NodeId id) {
  if (id >= watermarks_.size()) {
    watermarks_.resize(id + 1, kWatermarkNone);
    registered_.resize(id + 1, false);
  }
  registered_[id] = true;
  min_stale_ = true;
}

void WindowManager::note(NodeId id, TimeNs ts) {
  if (id < watermarks_.size() && registered_[id] && ts > watermarks_[id]) {
    if (watermarks_[id] == min_) min_stale_ = true;
    watermarks_[id] = ts;
  }
  global_max_ = std::max(global_max_, ts);
  if (!started_) {
    // Fast-forward past the empty prefix: the first window is the one
    // containing the first record (records never carry negative times).
    next_index_ = ts >= 0 ? ts / window_ns_ : 0;
    started_ = true;
  }
}

TimeNs WindowManager::min_watermark() const {
  if (!min_stale_) return min_;
  TimeNs lo = kTimeNever;
  bool any = false;
  for (NodeId id = 0; id < watermarks_.size(); ++id) {
    if (!registered_[id]) continue;
    lo = std::min(lo, watermarks_[id]);
    any = true;
  }
  min_ = any ? lo : kWatermarkNone;
  min_stale_ = false;
  return min_;
}

bool WindowManager::next_closable(WindowBounds& out, bool finishing) const {
  if (!started_) return false;
  const TimeNs w0 = next_index_ * window_ns_;
  const TimeNs w1 = w0 + window_ns_;
  out.index = next_index_;
  out.start = w0;
  out.end = w1;
  out.idle_forced = false;

  if (finishing) return w0 <= global_max_ + slack_ns_;
  const TimeNs due = w1 + slack_ns_;
  if (min_watermark() >= due) return true;
  if (idle_timeout_ns_ > 0 && global_max_ >= due + idle_timeout_ns_) {
    out.idle_forced = true;
    return true;
  }
  return false;
}

void WindowManager::advance() {
  closed_end_ = (next_index_ + 1) * window_ns_;
  ++next_index_;
}

}  // namespace microscope::online
