// Introspection-plane overhead: what the live telemetry costs the host.
//
//  * BM_HealthEvaluate    — the watchdog's four-signal verdict on a tick
//  * BM_RenderPrometheus/ — rendering the full exposition the endpoint
//    BM_RenderJson          serves (also exercised by --metrics-every)
//  * BM_HttpGetMetrics    — end-to-end loopback GET /metrics including
//                           connect/parse/render/close
//
// The watchdog defaults to one tick per second and the server renders only
// on request, so the budget question is "does a scrape stall the engine" —
// these numbers bound the answer (everything here runs off the engine
// thread; the shared state is one registry snapshot).
#include "bench_main.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>

#include "obs/health.hpp"
#include "obs/http.hpp"
#include "obs/introspect.hpp"
#include "obs/metrics.hpp"

using namespace microscope;
using namespace microscope::obs;

namespace {

/// A registry shaped like a live pipeline's with a watchdog attached: 47
/// counters, 12 gauges and 12 histograms (ten of them *_ns latencies, one
/// on depth and one on score buckets), with nonzero counters and populated
/// histograms. Like an online run's, it holds the six metrics the watchdog
/// reads.
Registry& bench_registry() {
  static Registry reg;
  static bool once = [] {
    HealthWatchdog registers_its_names(reg);  // 4 counters, 1 gauge
    reg.counter("online.late_dropped_batches");
    reg.counter("online.backpressure_dropped_batches");
    reg.counter("agg.board_evicted");
    reg.gauge("online.watermark_lag_ns").set(2.5e6);
    reg.gauge("online.ring_dropped_records");
    reg.gauge("sketch.fill_frac");
    auto name = [](const char* stem, int i) {
      return "bench.stage" + std::to_string(i % 5) + "." + stem +
             std::to_string(i);
    };
    for (int i = 0; i < 40; ++i) reg.counter(name("events", i));
    for (int i = 0; i < 8; ++i) reg.gauge(name("level", i));
    for (int i = 0; i < 9; ++i) reg.histogram(name("lat", i) + "_ns");
    reg.histogram(name("depth", 0), depth_bounds());
    reg.histogram(name("score", 0), score_bounds());
    reg.counter(name("events", 0)).add(1'000'000);
    reg.counter(name("events", 1)).add(240);
    reg.gauge(name("level", 0)).set(384);
    auto& h = reg.histogram(name("lat", 0) + "_ns");
    for (int i = 0; i < 1000; ++i) h.record(50'000 + i * 997);
    // The twelfth histogram is the one every render records its cost in.
    auto& d = reg.histogram("obs.render_ns");
    for (int i = 0; i < 1000; ++i) d.record(20'000 + i * 131);
    return true;
  }();
  (void)once;
  return reg;
}

void BM_HealthEvaluate(benchmark::State& state) {
  Registry& reg = bench_registry();
  HealthWatchdog watchdog(reg, HealthOptions{});
  const Snapshot snap = reg.snapshot();
  // A full lag history, so the lag-p95 signal does real percentile work.
  HealthWatchdog::Clock::time_point now{};
  for (std::size_t i = 0; i < watchdog.options().history; ++i)
    watchdog.evaluate(snap, now += std::chrono::seconds(1));
  for (auto _ : state) {
    watchdog.evaluate(snap, now += std::chrono::seconds(1));
    benchmark::DoNotOptimize(watchdog.state());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_RenderPrometheus(benchmark::State& state) {
  Registry& reg = bench_registry();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string out = render_prometheus(reg);
    bytes += out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}

void BM_RenderJson(benchmark::State& state) {
  Registry& reg = bench_registry();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string out = render_json(reg);
    bytes += out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}

/// One blocking loopback GET; returns bytes received (0 on failure).
std::size_t loopback_get(std::uint16_t port, const char* target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return 0;
  }
  std::string req = std::string("GET ") + target +
                    " HTTP/1.1\r\nHost: b\r\nConnection: close\r\n\r\n";
  if (::send(fd, req.data(), req.size(), 0) !=
      static_cast<ssize_t>(req.size())) {
    ::close(fd);
    return 0;
  }
  std::size_t total = 0;
  char buf[16384];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
    total += static_cast<std::size_t>(n);
  ::close(fd);
  return total;
}

void BM_HttpGetMetrics(benchmark::State& state) {
  Registry& reg = bench_registry();
  HttpServer srv;  // ephemeral port
  IntrospectionWiring wiring;
  wiring.registry = &reg;
  install_introspection_routes(srv, wiring);
  std::string err;
  if (!srv.start(&err)) {
    state.SkipWithError(("server start failed: " + err).c_str());
    return;
  }
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::size_t got = loopback_get(srv.port(), "/metrics");
    if (got == 0) {
      state.SkipWithError("GET /metrics failed");
      break;
    }
    bytes += got;
  }
  srv.stop();
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}

}  // namespace

BENCHMARK(BM_HealthEvaluate);
BENCHMARK(BM_RenderPrometheus);
BENCHMARK(BM_RenderJson);
BENCHMARK(BM_HttpGetMetrics);

MICROSCOPE_BENCH_MAIN("overhead_endpoint");
