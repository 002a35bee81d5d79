#include "obs/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/metrics.hpp"

namespace microscope::obs {

namespace {

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
  }
  return "Error";
}

int hex_val(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string url_decode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      const int hi = hex_val(s[i + 1]), lo = hex_val(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
        continue;
      }
    }
    out.push_back(s[i] == '+' ? ' ' : s[i]);
  }
  return out;
}

void parse_query(std::string_view q, std::map<std::string, std::string>& out) {
  while (!q.empty()) {
    const std::size_t amp = q.find('&');
    const std::string_view pair = q.substr(0, amp);
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos) {
      out[url_decode(pair.substr(0, eq))] = url_decode(pair.substr(eq + 1));
    } else if (!pair.empty()) {
      out[url_decode(pair)] = "";
    }
    if (amp == std::string_view::npos) break;
    q.remove_prefix(amp + 1);
  }
}

bool write_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Writes the response; a HEAD response carries the GET body's length but
/// no body (RFC 9110 §8.6).
void write_response(int fd, const HttpResponse& resp, bool head_only = false) {
  std::string head = "HTTP/1.1 ";
  head += std::to_string(resp.status);
  head += ' ';
  head += status_text(resp.status);
  head += "\r\nContent-Type: ";
  head += resp.content_type;
  head += "\r\nContent-Length: ";
  head += std::to_string(resp.body.size());
  // Every route serves the same two methods (RFC 9110 §15.5.6).
  if (resp.status == 405) head += "\r\nAllow: GET, HEAD";
  head += "\r\nConnection: close\r\n\r\n";
  if (write_all(fd, head.data(), head.size()) && !head_only) {
    write_all(fd, resp.body.data(), resp.body.size());
  }
}

}  // namespace

std::string_view HttpRequest::param(std::string_view name,
                                    std::string_view fallback) const {
  const auto it = query.find(std::string(name));
  return it == query.end() ? fallback : std::string_view(it->second);
}

HttpServer::HttpServer(HttpOptions opts)
    : opts_(std::move(opts)),
      requests_metric_(Registry::global().counter("obs.http.requests")),
      bad_requests_metric_(
          Registry::global().counter("obs.http.bad_requests")) {}

HttpServer::~HttpServer() { stop(); }

void HttpServer::handle(std::string path, Handler h) {
  routes_[std::move(path)] = std::move(h);
}

bool HttpServer::start(std::string* err) {
  if (running_.load(std::memory_order_acquire)) return true;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (err) *err = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (::inet_pton(AF_INET, opts_.bind_addr.c_str(), &addr.sin_addr) != 1) {
    if (err) *err = "invalid bind address: " + opts_.bind_addr;
    ::close(fd);
    return false;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (err) {
      *err = "bind " + opts_.bind_addr + ":" + std::to_string(opts_.port) +
             ": " + std::strerror(errno);
    }
    ::close(fd);
    return false;
  }
  if (::listen(fd, opts_.max_pending_connections) != 0) {
    if (err) *err = std::string("listen: ") + std::strerror(errno);
    ::close(fd);
    return false;
  }

  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &blen) == 0) {
    port_.store(ntohs(bound.sin_port), std::memory_order_release);
  }

  listen_fd_ = fd;
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { loop(); });
  return true;
}

void HttpServer::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_requested_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

std::string HttpServer::address() const {
  return opts_.bind_addr + ":" + std::to_string(port());
}

void HttpServer::loop() {
  // poll() with a short timeout instead of a blocking accept, so stop()
  // is observed within one tick without signal games.
  pollfd pfd{listen_fd_, POLLIN, 0};
  while (!stop_requested_.load(std::memory_order_acquire)) {
    const int n = ::poll(&pfd, 1, 100);
    if (n <= 0) continue;  // timeout / EINTR: re-check the stop flag
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    const timeval tv{
        static_cast<time_t>(opts_.io_timeout.count() / 1000),
        static_cast<suseconds_t>((opts_.io_timeout.count() % 1000) * 1000)};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    serve_one(fd);
    ::close(fd);
  }
}

void HttpServer::serve_one(int fd) {
  std::string buf;
  buf.reserve(512);
  // Read until the end of the request head or the size cap. The body (if
  // any) is ignored — every route is a GET.
  while (buf.find("\r\n\r\n") == std::string::npos) {
    if (buf.size() >= opts_.max_request_bytes) {
      bad_requests_metric_.add();
      write_response(fd, {431, "text/plain; charset=utf-8",
                          "request too large\n"});
      return;
    }
    char chunk[1024];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      bad_requests_metric_.add();
      return;  // client went away or stalled past the timeout
    }
    buf.append(chunk, static_cast<std::size_t>(n));
  }

  // Request line: METHOD SP TARGET SP VERSION.
  const std::size_t line_end = buf.find("\r\n");
  const std::string_view line = std::string_view(buf).substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) {
    bad_requests_metric_.add();
    write_response(fd, {400, "text/plain; charset=utf-8", "bad request\n"});
    return;
  }

  HttpRequest req;
  req.method = std::string(line.substr(0, sp1));
  std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t qmark = target.find('?');
  if (qmark != std::string_view::npos) {
    parse_query(target.substr(qmark + 1), req.query);
    target = target.substr(0, qmark);
  }
  req.path = url_decode(target);

  requests_metric_.add();
  served_.fetch_add(1, std::memory_order_relaxed);

  if (req.method != "GET" && req.method != "HEAD") {
    write_response(fd, {405, "text/plain; charset=utf-8",
                        "only GET is served here\n"});
    return;
  }

  const bool head_only = req.method == "HEAD";
  const auto it = routes_.find(req.path);
  if (it == routes_.end()) {
    write_response(fd, {404, "text/plain; charset=utf-8", "not found\n"},
                   head_only);
    return;
  }
  write_response(fd, it->second(req), head_only);
}

bool parse_http_address(std::string_view spec, HttpOptions& opts,
                        std::string* err) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string_view::npos) {
    if (err) *err = "expected <addr>:<port> or :<port>, got '" +
                    std::string(spec) + "'";
    return false;
  }
  const std::string_view port_sv = spec.substr(colon + 1);
  if (port_sv.empty()) {
    if (err) *err = "missing port in '" + std::string(spec) + "'";
    return false;
  }
  unsigned long port = 0;
  for (const char c : port_sv) {
    if (c < '0' || c > '9') {
      if (err) *err = "invalid port '" + std::string(port_sv) + "'";
      return false;
    }
    port = port * 10 + static_cast<unsigned long>(c - '0');
    if (port > 65535) {
      if (err) *err = "port out of range: '" + std::string(port_sv) + "'";
      return false;
    }
  }
  if (colon > 0) opts.bind_addr = std::string(spec.substr(0, colon));
  opts.port = static_cast<std::uint16_t>(port);
  return true;
}

}  // namespace microscope::obs
