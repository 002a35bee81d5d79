// The MICROSCOPE_NO_METRICS off-switch for the introspection plane. This
// binary compiles the obs/ sources directly with metrics disabled (no
// microscope link — see tests/CMakeLists.txt): the HTTP server must still
// start and answer every route, with the registry-backed bodies degrading
// to build info + flat zeroes instead of breaking, and the health watchdog
// must still tick.
#ifndef MICROSCOPE_NO_METRICS
#error "this test must be built with MICROSCOPE_NO_METRICS"
#endif

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>

#include "obs/health.hpp"
#include "obs/http.hpp"
#include "obs/introspect.hpp"
#include "obs/metrics.hpp"

namespace microscope::obs {
namespace {

int http_get(std::uint16_t port, const std::string& target,
             std::string* body = nullptr) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const std::string req =
      "GET " + target + " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
  if (::send(fd, req.data(), req.size(), 0) !=
      static_cast<ssize_t>(req.size())) {
    ::close(fd);
    return -1;
  }
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
    resp.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  if (resp.compare(0, 9, "HTTP/1.1 ") != 0) return -1;
  if (body) {
    const auto hdr_end = resp.find("\r\n\r\n");
    *body = hdr_end == std::string::npos ? "" : resp.substr(hdr_end + 4);
  }
  return std::atoi(resp.c_str() + 9);
}

TEST(HttpNoop, CompiledOutFlagIsVisible) { EXPECT_FALSE(kMetricsEnabled); }

TEST(HttpNoop, ServerAnswersEveryRouteWithMetricsCompiledOut) {
  HealthWatchdog watchdog(Registry::global(), HealthOptions{});
  IntrospectionHub hub;

  HttpServer srv;
  IntrospectionWiring wiring;
  wiring.health = &watchdog;
  wiring.hub = &hub;
  install_introspection_routes(srv, wiring);
  std::string err;
  ASSERT_TRUE(srv.start(&err)) << err;
  ASSERT_NE(srv.port(), 0);

  // /metrics still enumerates registered names but every value is frozen
  // at zero, and the build-info gauge is flagged metrics="off".
  std::string body;
  EXPECT_EQ(http_get(srv.port(), "/metrics", &body), 200);
  EXPECT_NE(body.find("microscope_build_info"), std::string::npos);
  EXPECT_NE(body.find("metrics=\"off\""), std::string::npos);
  EXPECT_NE(
      body.find("microscope_obs_health_signal_flips_drop_rate_total 0\n"),
      std::string::npos);

  EXPECT_EQ(http_get(srv.port(), "/version", &body), 200);
  EXPECT_NE(body.find("\"metrics\": false"), std::string::npos);

  // The watchdog never saw a breach (all-zero snapshots): healthy.
  EXPECT_EQ(http_get(srv.port(), "/healthz", &body), 200);
  EXPECT_EQ(http_get(srv.port(), "/readyz", &body), 503);  // no window yet

  WindowNote note;
  note.index = 0;
  hub.publish_window(note);
  EXPECT_EQ(http_get(srv.port(), "/readyz", &body), 200);
  EXPECT_EQ(http_get(srv.port(), "/windows", &body), 200);
  EXPECT_NE(body.find("\"published\": 1"), std::string::npos);
  EXPECT_EQ(http_get(srv.port(), "/explain", &body), 404);

  srv.stop();
}

TEST(HttpNoop, WatchdogTicksStayInertButFunctional) {
  HealthWatchdog watchdog(Registry::global(), HealthOptions{});
  watchdog.tick();
  watchdog.tick();
  // Snapshots enumerate registered names but stay flat zero with metrics
  // compiled out: every signal reads zero, nothing crashes, verdict ok.
  for (const SignalReport& s : watchdog.signals())
    EXPECT_EQ(s.value, 0.0) << s.name;
  EXPECT_EQ(watchdog.state(), HealthState::kOk);
  EXPECT_TRUE(watchdog.healthy());
  EXPECT_EQ(watchdog.ticks(), 2u);
  EXPECT_NE(watchdog.report_json().find("\"state\": \"ok\""),
            std::string::npos);

  // The watchdog's own thread ticks once at start, then on its cadence.
  watchdog.start(std::chrono::milliseconds(1));
  watchdog.start(std::chrono::milliseconds(1));  // idempotent
  for (int i = 0; i < 2000 && watchdog.ticks() < 5; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  watchdog.stop();
  watchdog.stop();  // idempotent
  EXPECT_GE(watchdog.ticks(), 5u);
  EXPECT_EQ(watchdog.state(), HealthState::kOk);
}

}  // namespace
}  // namespace microscope::obs
