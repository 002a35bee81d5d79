#include "obs/introspect.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/build_info.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"

namespace microscope::obs {

namespace {

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out += buf;
}

void append_score(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

std::size_t parse_count(std::string_view s, std::size_t fallback,
                        std::size_t cap) {
  if (s.empty()) return fallback;
  std::size_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return fallback;
    v = v * 10 + static_cast<std::size_t>(c - '0');
    if (v > cap) return cap;
  }
  return v == 0 ? fallback : v;
}

constexpr const char* kJson = "application/json; charset=utf-8";
constexpr const char* kText = "text/plain; charset=utf-8";
constexpr const char* kProm = "text/plain; version=0.0.4; charset=utf-8";

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

IntrospectionHub::IntrospectionHub(std::size_t window_capacity)
    : capacity_(window_capacity == 0 ? 1 : window_capacity) {}

void IntrospectionHub::publish_window(const WindowNote& note) {
  std::lock_guard<std::mutex> lock(mu_);
  windows_.push_back(note);
  while (windows_.size() > capacity_) windows_.pop_front();
  ++published_;
}

void IntrospectionHub::publish_explain(std::int64_t window_index,
                                       std::vector<ExplainEntry> entries) {
  std::lock_guard<std::mutex> lock(mu_);
  explain_window_ = window_index;
  explain_ = std::move(entries);
}

bool IntrospectionHub::ready() const {
  std::lock_guard<std::mutex> lock(mu_);
  return published_ > 0;
}

std::uint64_t IntrospectionHub::windows_published() const {
  std::lock_guard<std::mutex> lock(mu_);
  return published_;
}

std::string IntrospectionHub::windows_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"published\": ";
  append_i64(out, static_cast<std::int64_t>(published_));
  out += ", \"windows\": [";
  bool first = true;
  for (const WindowNote& w : windows_) {
    if (!first) out += ", ";
    first = false;
    out += "{\"index\": ";
    append_i64(out, w.index);
    out += ", \"start_ns\": ";
    append_i64(out, w.start_ns);
    out += ", \"end_ns\": ";
    append_i64(out, w.end_ns);
    out += ", \"idle_forced\": ";
    out += w.idle_forced ? "true" : "false";
    out += ", \"journeys\": ";
    append_i64(out, static_cast<std::int64_t>(w.journeys));
    out += ", \"diagnoses\": ";
    append_i64(out, static_cast<std::int64_t>(w.diagnoses));
    out += ", \"top_score\": ";
    append_score(out, w.top_score);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string IntrospectionHub::explain_text(std::size_t top) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (explain_.empty()) return {};
  std::string out = "window ";
  append_i64(out, explain_window_);
  out += ": top ";
  append_i64(out, static_cast<std::int64_t>(std::min(top, explain_.size())));
  out += " of ";
  append_i64(out, static_cast<std::int64_t>(explain_.size()));
  out += " victims\n\n";
  for (std::size_t i = 0; i < explain_.size() && i < top; ++i) {
    out += "[";
    append_i64(out, static_cast<std::int64_t>(i + 1));
    out += "] ";
    out += explain_[i].summary;
    out += "\n";
    out += explain_[i].tree;
    if (out.empty() || out.back() != '\n') out += "\n";
    out += "\n";
  }
  return out;
}

std::string IntrospectionHub::explain_json(std::size_t top) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (explain_.empty()) return {};
  std::string out = "{\"window\": ";
  append_i64(out, explain_window_);
  out += ", \"victims\": ";
  append_i64(out, static_cast<std::int64_t>(explain_.size()));
  out += ", \"explanations\": [";
  for (std::size_t i = 0; i < explain_.size() && i < top; ++i) {
    if (i > 0) out += ", ";
    out += explain_[i].json;  // already a complete JSON object
  }
  out += "]}";
  return out;
}

void install_introspection_routes(HttpServer& server, IntrospectionWiring w) {
  Registry* reg = w.registry ? w.registry : &Registry::global();

  server.handle("/metrics", [reg](const HttpRequest&) {
    return HttpResponse{200, kProm, render_prometheus(*reg)};
  });
  server.handle("/version", [](const HttpRequest&) {
    return HttpResponse{200, kJson, build_info_json() + "\n"};
  });

  server.handle("/healthz", [w](const HttpRequest&) {
    if (!w.health) {
      return HttpResponse{200, kJson,
                          "{\"state\": \"ok\", \"watchdog\": false}\n"};
    }
    const int status = w.health->healthy() ? 200 : 503;
    return HttpResponse{status, kJson, w.health->report_json() + "\n"};
  });
  server.handle("/readyz", [w](const HttpRequest&) {
    // Ready once a window has closed (the engine is demonstrably keeping
    // up with the stream); a hub-less server is ready when it answers.
    const bool ready = !w.hub || w.hub->ready();
    return HttpResponse{ready ? 200 : 503, kText,
                        ready ? "ready\n" : "no window closed yet\n"};
  });

  server.handle("/windows", [w](const HttpRequest&) {
    if (!w.hub) {
      return HttpResponse{404, kJson,
                          "{\"error\": \"no engine attached\"}\n"};
    }
    return HttpResponse{200, kJson, w.hub->windows_json() + "\n"};
  });

  server.handle("/explain", [w](const HttpRequest& req) {
    if (!w.hub) {
      return HttpResponse{404, kJson,
                          "{\"error\": \"no engine attached\"}\n"};
    }
    const std::size_t top = parse_count(req.param("top"), 3, 64);
    const bool as_json = req.param("json") == "1";
    const std::string body =
        as_json ? w.hub->explain_json(top) : w.hub->explain_text(top);
    if (body.empty()) {
      const char* msg = "{\"error\": \"no diagnosed window yet\"}\n";
      return HttpResponse{404, as_json ? kJson : kText,
                          as_json ? msg : "no diagnosed window yet\n"};
    }
    return HttpResponse{200, as_json ? kJson : kText, body + "\n"};
  });
}

}  // namespace microscope::obs
