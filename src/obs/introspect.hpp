// IntrospectionHub: the hand-off point between the (single-threaded)
// streaming engines and the HTTP introspection thread, plus the wiring
// that installs the standard endpoint routes on an HttpServer.
//
// The engines are not thread-safe — everything they own is touched only
// from the steering thread — so the HTTP thread must never reach into
// them. Instead, each closed window the engine publishes into this hub:
// a compact WindowNote for the /windows board, and (when the window had
// victims) pre-rendered --explain output — the human tree and the
// provenance JSON per top victim. Rendering happens on the engine thread
// where the Provenance objects live; the hub stores only strings under a
// mutex, so the HTTP thread serves /windows and /explain without ever
// seeing an engine type. This also keeps obs/ free of core/online
// dependencies (strings cross the boundary, types do not).
//
// install_introspection_routes() wires the canonical endpoint table
// (DESIGN.md §15): /metrics, /metrics.json, /healthz, /readyz, /version,
// /windows, /series, /explain. Null wiring members degrade their routes
// (404/not-configured) rather than failing — a server with only a
// Registry is still a useful /metrics port.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/http.hpp"
#include "obs/timeseries.hpp"

namespace microscope::obs {

class HealthWatchdog;

/// One closed window's summary line on the /windows board.
struct WindowNote {
  std::int64_t index{0};
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  bool idle_forced{false};
  /// Journeys walked while closing the window, committed plus speculative
  /// (the excess over one window's traffic is repeated work).
  std::uint64_t journeys{0};
  std::uint64_t diagnoses{0};
  /// Highest per-victim attribution score in the window (0 when none).
  double top_score{0.0};
};

/// One victim's pre-rendered explanation from the newest diagnosed window.
struct ExplainEntry {
  std::string summary;  // one line: victim node / kind / score
  std::string tree;     // render_explain_tree output
  std::string json;     // provenance_to_json output (a complete object)
};

class IntrospectionHub {
 public:
  /// `window_capacity` bounds the /windows board (oldest dropped).
  explicit IntrospectionHub(std::size_t window_capacity = 64);

  /// Engine thread: record a closed window on the board.
  void publish_window(const WindowNote& note);

  /// Engine thread: replace the live explanation set with the newest
  /// diagnosed window's entries (already rendered).
  void publish_explain(std::int64_t window_index,
                       std::vector<ExplainEntry> entries);

  /// True once any window has been published (/readyz).
  bool ready() const;

  std::uint64_t windows_published() const;

  /// {"windows": [ ... ]} oldest first, newest last.
  std::string windows_json() const;

  /// Human-readable explanation of the newest diagnosed window's top
  /// `top` victims; empty when nothing has been diagnosed yet.
  std::string explain_text(std::size_t top) const;

  /// {"window": idx, "explanations": [ <provenance json>, ... ]}; empty
  /// when nothing has been diagnosed yet.
  std::string explain_json(std::size_t top) const;

 private:
  std::size_t capacity_;
  mutable std::mutex mu_;
  std::deque<WindowNote> windows_;
  std::int64_t explain_window_{-1};
  std::vector<ExplainEntry> explain_;
  std::uint64_t published_{0};
};

/// Everything the standard routes may consult; null members degrade the
/// corresponding route instead of failing.
struct IntrospectionWiring {
  Registry* registry{nullptr};  // defaults to Registry::global() when null
  const TimeSeriesStore* series{nullptr};
  const HealthWatchdog* health{nullptr};
  const IntrospectionHub* hub{nullptr};
};

void install_introspection_routes(HttpServer& server, IntrospectionWiring w);

}  // namespace microscope::obs
