// Introspection-plane overhead: what the live telemetry costs the host.
//
//  * BM_SamplerTick       — one sampler tick (runtime gauges + registry
//                           snapshot + ring append across every metric)
//  * BM_HealthEvaluate    — the watchdog's five-signal verdict on a tick
//  * BM_RenderPrometheus/ — rendering the full exposition the endpoint
//    BM_RenderJson          serves (also exercised by --metrics-every)
//  * BM_HttpGetMetrics    — end-to-end loopback GET /metrics including
//                           connect/parse/render/close
//
// The sampler defaults to one tick per second and renders only on
// request, so the budget question is "does a scrape stall the engine" —
// these numbers bound the answer (everything here runs off the engine
// thread; the shared state is one registry snapshot).
#include "bench_main.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>

#include "obs/health.hpp"
#include "obs/http.hpp"
#include "obs/introspect.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

using namespace microscope;
using namespace microscope::obs;

namespace {

/// A registry shaped like a live pipeline: every canonical metric
/// registered, with nonzero counters and populated histograms.
Registry& bench_registry() {
  static Registry reg;
  static bool once = [] {
    register_pipeline_metrics(reg);
    reg.counter("online.packets_ingested").add(1'000'000);
    reg.counter("online.windows_closed").add(240);
    reg.gauge("online.watermark_lag_ns").set(2.5e6);
    auto& h = reg.histogram("core.diagnose.total_ns");
    for (int i = 0; i < 1000; ++i) h.record(50'000 + i * 997);
    reg.gauge("online.retained_batches").set(384);
    auto& d = reg.histogram("obs.render_ns");
    for (int i = 0; i < 1000; ++i) d.record(20'000 + i * 131);
    return true;
  }();
  (void)once;
  return reg;
}

void BM_SamplerTick(benchmark::State& state) {
  Registry& reg = bench_registry();
  TimeSeriesStore store;
  Sampler sampler(reg, store, SamplerOptions{});
  for (auto _ : state) {
    sampler.sample_now();
    benchmark::DoNotOptimize(store.samples_taken());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_HealthEvaluate(benchmark::State& state) {
  Registry& reg = bench_registry();
  TimeSeriesStore store;
  // Enough history that the lag-p95 signal does real percentile work.
  for (int i = 0; i < 64; ++i)
    store.sample(reg.snapshot(), static_cast<std::int64_t>(i) * 1'000'000'000);
  HealthWatchdog watchdog(reg, store, HealthOptions{});
  const Snapshot snap = reg.snapshot();
  for (auto _ : state) {
    watchdog.evaluate(snap);
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

BENCHMARK(BM_SamplerTick);
BENCHMARK(BM_HealthEvaluate);
BENCHMARK(BM_RenderPrometheus);
BENCHMARK(BM_RenderJson);
BENCHMARK(BM_HttpGetMetrics);

MICROSCOPE_BENCH_MAIN("overhead_endpoint");
