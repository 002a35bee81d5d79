// Dependency-free bounded HTTP/1.1 server for the introspection plane.
//
// A --follow engine is a long-lived process; the only way to ask it
// anything used to be killing it (--metrics dumps on exit). This server
// gives it a query surface: a handful of GET routes (installed by
// introspect.hpp) served from one dedicated thread over plain POSIX
// sockets — no third-party dependency, which is the price of keeping the
// container image and the build graph unchanged.
//
// Scope is deliberately narrow (threat model, DESIGN.md §15): it binds
// 127.0.0.1 by default, serves GET only, reads at most max_request_bytes
// per request, services connections serially (the kernel backlog is the
// connection cap), answers Connection: close, and imposes socket I/O
// timeouts so a stalled client cannot wedge the thread. It is an
// operator's localhost diagnostic port, not an internet-facing endpoint.
//
// stop() wakes the accept loop via poll() timeout + stop flag and joins;
// destruction stops implicitly. Handlers run on the server thread — they
// must only touch thread-safe state (the metrics Registry, the
// HealthWatchdog, the IntrospectionHub).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>

namespace microscope::obs {

class Counter;

struct HttpOptions {
  /// Bind address; keep the localhost default unless you have a reason.
  std::string bind_addr = "127.0.0.1";
  /// 0 picks an ephemeral port (tests); port() reports the bound one.
  std::uint16_t port = 0;
  /// Request head cap; longer requests get 431 and the connection closed.
  std::size_t max_request_bytes = 8192;
  /// listen() backlog — connections beyond it are refused by the kernel
  /// while the (serial) server thread is busy.
  int max_pending_connections = 16;
  /// Per-connection socket read/write timeout.
  std::chrono::milliseconds io_timeout{2000};
};

struct HttpRequest {
  std::string method;
  std::string path;  // decoded, query string stripped
  std::map<std::string, std::string> query;

  /// Query parameter by name, or `fallback` when absent.
  std::string_view param(std::string_view name,
                         std::string_view fallback = "") const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  explicit HttpServer(HttpOptions opts = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Register a handler for an exact decoded path ("/metrics"). Must be
  /// called before start(); unknown paths get 404.
  void handle(std::string path, Handler h);

  /// Bind + listen + spawn the server thread. False (with *err set) when
  /// the address cannot be bound. Idempotent while running.
  bool start(std::string* err = nullptr);

  /// Stop accepting, join the thread, close the socket. Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// Bound port (resolves ephemeral binds); 0 before start().
  std::uint16_t port() const { return port_.load(std::memory_order_acquire); }
  std::uint64_t requests_served() const {
    return served_.load(std::memory_order_relaxed);
  }

  /// "<bind_addr>:<port>" of a running server.
  std::string address() const;

 private:
  void loop();
  void serve_one(int fd);

  HttpOptions opts_;
  std::map<std::string, Handler> routes_;
  int listen_fd_{-1};
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::uint16_t> port_{0};
  std::atomic<std::uint64_t> served_{0};
  Counter& requests_metric_;
  Counter& bad_requests_metric_;
};

/// Parse "addr:port" (the CLI --http argument) into opts; false + *err on
/// malformed input. A bare ":9100" keeps the localhost default address.
bool parse_http_address(std::string_view spec, HttpOptions& opts,
                        std::string* err);

}  // namespace microscope::obs
