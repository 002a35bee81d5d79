// The live introspection plane: HTTP server bounds and routing, metric
// time-series rings + rate derivation, the health watchdog's hysteresis
// state machine, the engine -> hub publishing path, and concurrent HTTP
// GETs racing window closes (the latter runs under TSan in CI).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "eval/scenarios.hpp"
#include "nf/inject.hpp"
#include "nf/traffic.hpp"
#include "obs/health.hpp"
#include "obs/http.hpp"
#include "obs/introspect.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "online/engine.hpp"
#include "online/replay.hpp"
#include "sim/simulator.hpp"
#include "trace/graph.hpp"

namespace microscope::obs {
namespace {

#define SKIP_IF_METRICS_DISABLED()                                  \
  if constexpr (!kMetricsEnabled) {                                 \
    GTEST_SKIP() << "metrics compiled out (MICROSCOPE_NO_METRICS)"; \
  }

/// Minimal blocking HTTP client for loopback tests: one GET, returns the
/// status code and fills `body` (headers stripped). -1 on connect failure.
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
  std::size_t off = 0;
  while (off < req.size()) {
    const ssize_t n = ::send(fd, req.data() + off, req.size() - off, 0);
    if (n <= 0) {
      ::close(fd);
      return -1;
    }
    off += static_cast<std::size_t>(n);
  }
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
    resp.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  if (resp.size() < 12 || resp.compare(0, 9, "HTTP/1.1 ") != 0) return -1;
  const int status = std::atoi(resp.c_str() + 9);
  if (body) {
    const auto hdr_end = resp.find("\r\n\r\n");
    *body = hdr_end == std::string::npos ? "" : resp.substr(hdr_end + 4);
  }
  return status;
}

// ---- HTTP server ---------------------------------------------------------

TEST(Http, ParseAddress) {
  HttpOptions o;
  std::string err;
  EXPECT_TRUE(parse_http_address(":9100", o, &err));
  EXPECT_EQ(o.bind_addr, "127.0.0.1");
  EXPECT_EQ(o.port, 9100);
  EXPECT_TRUE(parse_http_address("0.0.0.0:80", o, &err));
  EXPECT_EQ(o.bind_addr, "0.0.0.0");
  EXPECT_EQ(o.port, 80);
  EXPECT_FALSE(parse_http_address("9100", o, &err));
  EXPECT_FALSE(parse_http_address("host:", o, &err));
  EXPECT_FALSE(parse_http_address(":99999", o, &err));
  EXPECT_FALSE(parse_http_address(":12x", o, &err));
}

TEST(Http, RoutesQueryDecodingAndErrors) {
  HttpServer srv;  // ephemeral port, localhost
  srv.handle("/echo", [](const HttpRequest& req) {
    return HttpResponse{200, "text/plain",
                        std::string(req.param("q", "<none>"))};
  });
  std::string err;
  ASSERT_TRUE(srv.start(&err)) << err;
  ASSERT_NE(srv.port(), 0);

  std::string body;
  EXPECT_EQ(http_get(srv.port(), "/echo?q=hello", &body), 200);
  EXPECT_EQ(body, "hello");
  // Percent- and plus-decoding in query values.
  EXPECT_EQ(http_get(srv.port(), "/echo?q=a%2Fb+c", &body), 200);
  EXPECT_EQ(body, "a/b c");
  EXPECT_EQ(http_get(srv.port(), "/echo", &body), 200);
  EXPECT_EQ(body, "<none>");
  EXPECT_EQ(http_get(srv.port(), "/nope", &body), 404);
  EXPECT_GE(srv.requests_served(), 4u);
  srv.stop();
  EXPECT_FALSE(srv.running());
  // Stop is idempotent and the port rejects connections afterwards.
  srv.stop();
  EXPECT_EQ(http_get(srv.port(), "/echo"), -1);
}

TEST(Http, RejectsNonGetAndOversizedRequests) {
  HttpOptions o;
  o.max_request_bytes = 256;
  HttpServer srv(o);
  srv.handle("/", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain", "ok"};
  });
  std::string err;
  ASSERT_TRUE(srv.start(&err)) << err;

  // POST is refused with 405.
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(srv.port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    const char req[] = "POST / HTTP/1.1\r\nHost: t\r\n\r\n";
    ASSERT_GT(::send(fd, req, sizeof(req) - 1, 0), 0);
    char buf[256];
    const ssize_t n = ::recv(fd, buf, sizeof(buf) - 1, 0);
    ASSERT_GT(n, 0);
    buf[n] = '\0';
    EXPECT_NE(std::strstr(buf, "405"), nullptr);
    ::close(fd);
  }
  // A request head larger than the cap gets 431.
  const std::string huge = "/?x=" + std::string(1024, 'a');
  std::string body;
  EXPECT_EQ(http_get(srv.port(), huge, &body), 431);
}

// ---- time series ---------------------------------------------------------

Snapshot counter_snap(Registry& reg, const char* name, std::uint64_t v) {
  Counter& c = reg.counter(name);
  const std::uint64_t cur = c.value();
  c.add(v - cur);
  return reg.snapshot();
}

TEST(TimeSeries, RingWraparoundKeepsNewest) {
  SKIP_IF_METRICS_DISABLED();
  Registry reg;
  TimeSeriesStore store(TimeSeriesOptions{4});
  for (std::uint64_t i = 1; i <= 7; ++i) {
    store.sample(counter_snap(reg, "c", i * 10),
                 static_cast<std::int64_t>(i) * 1'000'000'000);
  }
  EXPECT_EQ(store.samples_taken(), 7u);
  // Capacity 4: samples 4..7 survive, oldest first; asking for more than
  // capacity returns what is retained.
  const auto pts = store.last("c", 10);
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_EQ(pts.front().unix_ns, 4'000'000'000);
  EXPECT_EQ(pts.back().unix_ns, 7'000'000'000);
  EXPECT_DOUBLE_EQ(pts.front().value, 40.0);
  EXPECT_DOUBLE_EQ(pts.back().value, 70.0);
  // A smaller ask returns the newest n, still oldest first.
  const auto two = store.last("c", 2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_DOUBLE_EQ(two[0].value, 60.0);
  EXPECT_DOUBLE_EQ(two[1].value, 70.0);
  EXPECT_TRUE(store.last("unknown", 5).empty());
}

TEST(TimeSeries, RateIsPerSecondDerivative) {
  SKIP_IF_METRICS_DISABLED();
  Registry reg;
  TimeSeriesStore store(TimeSeriesOptions{8});
  // 100 events at t=1s, 160 at t=3s (2 s gap), 160 at t=4s (flat).
  store.sample(counter_snap(reg, "c", 100), 1'000'000'000);
  store.sample(counter_snap(reg, "c", 160), 3'000'000'000);
  store.sample(counter_snap(reg, "c", 160), 4'000'000'000);
  const auto rates = store.rate("c", 8);
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_EQ(rates[0].unix_ns, 3'000'000'000);  // stamped at the newer point
  EXPECT_DOUBLE_EQ(rates[0].value, 30.0);      // 60 events / 2 s
  EXPECT_DOUBLE_EQ(rates[1].value, 0.0);
  // Fewer than two retained points -> no rate.
  EXPECT_TRUE(store.rate("unknown", 4).empty());
}

TEST(TimeSeries, SeriesJsonShape) {
  SKIP_IF_METRICS_DISABLED();
  const std::vector<SeriesPoint> pts{{1'000'000'000, 2.0},
                                     {2'000'000'000, 4.5}};
  const std::vector<SeriesPoint> rates{{2'000'000'000, 2.5}};
  EXPECT_EQ(series_to_json("x.lat_ns", pts, rates),
            "{\"name\": \"x.lat_ns\", \"unit\": \"ns\", \"points\": "
            "[{\"t\": 1000000000, \"v\": 2}, {\"t\": 2000000000, \"v\": 4.5}]"
            ", \"rate_per_s\": [{\"t\": 2000000000, \"v\": 2.5}]}");
}

TEST(TimeSeries, SamplerTicksAndInvokesHook) {
  SKIP_IF_METRICS_DISABLED();
  Registry reg;
  reg.counter("c").add(5);
  TimeSeriesStore store;
  std::atomic<int> hooked{0};
  Sampler sampler(reg, store, SamplerOptions{std::chrono::milliseconds(20)},
                  [&](const Snapshot&) { hooked.fetch_add(1); });
  sampler.start();
  sampler.start();  // idempotent
  for (int i = 0; i < 200 && sampler.ticks() < 3; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  sampler.stop();
  sampler.stop();  // idempotent
  EXPECT_GE(sampler.ticks(), 3u);
  EXPECT_GE(hooked.load(), 3);
  EXPECT_FALSE(store.last("c", 4).empty());
  // The uptime gauges were refreshed into this registry by the sampler.
  EXPECT_NE(reg.snapshot().find("obs.uptime_seconds"), nullptr);
}

// ---- health watchdog -----------------------------------------------------

struct HealthRig {
  Registry reg;
  TimeSeriesStore store;
  HealthOptions opts;
  std::int64_t now_ns = 0;

  HealthRig() {
    opts.drop_rate_degraded = 10.0;
    opts.drop_rate_unhealthy = 100.0;
    opts.recover_ticks = 3;
  }

  /// One sampler tick: bump the drop counter to `total`, advance wall time
  /// by 1 s, sample, and evaluate.
  void tick(HealthWatchdog& w, std::uint64_t total) {
    Counter& c = reg.counter("online.late_dropped_batches");
    c.add(total - c.value());
    now_ns += 1'000'000'000;
    const Snapshot snap = reg.snapshot();
    store.sample(snap, now_ns);
    w.evaluate(snap);
  }
};

TEST(Health, UpgradeIsImmediateDowngradeNeedsCalmTicks) {
  SKIP_IF_METRICS_DISABLED();
  HealthRig rig;
  HealthWatchdog w(rig.reg, rig.store, rig.opts);
  EXPECT_EQ(w.state(), HealthState::kOk);

  rig.tick(w, 0);  // first sample: no rate yet
  EXPECT_EQ(w.state(), HealthState::kOk);
  rig.tick(w, 500);  // +500 drops in 1 s >= 100/s -> unhealthy immediately
  EXPECT_EQ(w.state(), HealthState::kUnhealthy);
  EXPECT_FALSE(w.healthy());
  EXPECT_DOUBLE_EQ(rig.reg.gauge("obs.health.state").value(), 2.0);

  // Flat counter: rate 0, but hysteresis holds the state for 2 more ticks.
  rig.tick(w, 500);
  EXPECT_EQ(w.state(), HealthState::kUnhealthy);
  rig.tick(w, 500);
  EXPECT_EQ(w.state(), HealthState::kUnhealthy);
  rig.tick(w, 500);  // third calm tick: downgrade
  EXPECT_EQ(w.state(), HealthState::kOk);
  EXPECT_TRUE(w.healthy());
  EXPECT_DOUBLE_EQ(rig.reg.gauge("obs.health.state").value(), 0.0);

  // Per-signal flip counter saw both transitions (ok->unhealthy->ok).
  const auto signals = w.signals();
  const auto drop = std::find_if(
      signals.begin(), signals.end(),
      [](const SignalReport& s) { return s.name == "drop_rate"; });
  ASSERT_NE(drop, signals.end());
  EXPECT_EQ(drop->flips, 2u);
  EXPECT_EQ(
      rig.reg.counter("obs.health.signal_flips.drop_rate").value(), 2u);
}

TEST(Health, CalmStreakResetsOnRelapse) {
  SKIP_IF_METRICS_DISABLED();
  HealthRig rig;
  HealthWatchdog w(rig.reg, rig.store, rig.opts);
  rig.tick(w, 0);
  rig.tick(w, 500);  // unhealthy
  rig.tick(w, 500);  // calm 1
  rig.tick(w, 500);  // calm 2
  rig.tick(w, 1500);  // relapse: +1000/s resets the calm streak
  EXPECT_EQ(w.state(), HealthState::kUnhealthy);
  rig.tick(w, 1500);
  rig.tick(w, 1500);
  EXPECT_EQ(w.state(), HealthState::kUnhealthy);  // only 2 calm ticks
  rig.tick(w, 1500);
  EXPECT_EQ(w.state(), HealthState::kOk);
}

TEST(Health, DegradedBandAndReportJson) {
  SKIP_IF_METRICS_DISABLED();
  HealthRig rig;
  HealthWatchdog w(rig.reg, rig.store, rig.opts);
  rig.tick(w, 0);
  rig.tick(w, 50);  // +50/s: >= degraded(10), < unhealthy(100)
  EXPECT_EQ(w.state(), HealthState::kDegraded);
  EXPECT_TRUE(w.healthy());  // degraded still answers 200
  const std::string json = w.report_json();
  EXPECT_NE(json.find("\"state\": \"degraded\""), std::string::npos);
  EXPECT_NE(json.find("\"state_code\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"drop_rate\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"watermark_lag\""), std::string::npos);
  EXPECT_NE(json.find("\"unhealthy_at\": 100"), std::string::npos);
}

// ---- hub + routes --------------------------------------------------------

TEST(Hub, WindowBoardIsBoundedAndOrdered) {
  IntrospectionHub hub(3);
  EXPECT_FALSE(hub.ready());
  for (int i = 0; i < 5; ++i) {
    WindowNote n;
    n.index = i;
    n.start_ns = i * 10;
    n.end_ns = (i + 1) * 10;
    n.journeys = 100 + static_cast<std::uint64_t>(i);
    hub.publish_window(n);
  }
  EXPECT_TRUE(hub.ready());
  EXPECT_EQ(hub.windows_published(), 5u);
  const std::string json = hub.windows_json();
  EXPECT_NE(json.find("\"published\": 5"), std::string::npos);
  EXPECT_EQ(json.find("\"index\": 1"), std::string::npos);  // evicted
  EXPECT_NE(json.find("\"index\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"index\": 4"), std::string::npos);
}

TEST(Hub, ExplainServesTopPrefix) {
  IntrospectionHub hub;
  EXPECT_TRUE(hub.explain_text(3).empty());
  EXPECT_TRUE(hub.explain_json(3).empty());
  std::vector<ExplainEntry> entries(3);
  for (int i = 0; i < 3; ++i) {
    entries[static_cast<std::size_t>(i)] = ExplainEntry{
        "victim " + std::to_string(i), "tree " + std::to_string(i),
        "{\"victim\": " + std::to_string(i) + "}"};
  }
  hub.publish_explain(7, std::move(entries));
  const std::string text = hub.explain_text(2);
  EXPECT_NE(text.find("window 7"), std::string::npos);
  EXPECT_NE(text.find("victim 0"), std::string::npos);
  EXPECT_NE(text.find("victim 1"), std::string::npos);
  EXPECT_EQ(text.find("victim 2"), std::string::npos);  // beyond top
  const std::string json = hub.explain_json(10);
  EXPECT_NE(json.find("\"window\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"victims\": 3"), std::string::npos);
  EXPECT_NE(json.find("{\"victim\": 2}"), std::string::npos);
}

TEST(Routes, DegradeGracefullyWithoutWiring) {
  HttpServer srv;
  install_introspection_routes(srv, IntrospectionWiring{});
  std::string err;
  ASSERT_TRUE(srv.start(&err)) << err;
  std::string body;
  EXPECT_EQ(http_get(srv.port(), "/metrics", &body), 200);
  EXPECT_NE(body.find("microscope_build_info"), std::string::npos);
  EXPECT_EQ(http_get(srv.port(), "/metrics.json", &body), 200);
  EXPECT_EQ(body.find("\"metrics\""), 1u);  // '{' then the key
  EXPECT_EQ(http_get(srv.port(), "/healthz", &body), 200);
  EXPECT_NE(body.find("\"watchdog\": false"), std::string::npos);
  EXPECT_EQ(http_get(srv.port(), "/readyz", &body), 200);
  EXPECT_EQ(http_get(srv.port(), "/version", &body), 200);
  EXPECT_NE(body.find("\"git_hash\""), std::string::npos);
  EXPECT_EQ(http_get(srv.port(), "/windows", &body), 404);
  EXPECT_EQ(http_get(srv.port(), "/series", &body), 404);
  EXPECT_EQ(http_get(srv.port(), "/explain", &body), 404);
}

// ---- end to end: engine publishes, HTTP reads concurrently --------------

/// Fig. 10 scenario small enough for CI: interrupt at nat1 so windows carry
/// real victims and the hub gets explain entries.
collector::Collector make_fig10_collector(trace::GraphView* graph,
                                          std::vector<RatePerNs>* rates,
                                          DurationNs* prop_delay) {
  collector::Collector col;
  sim::Simulator sim;
  auto net = eval::build_fig10(sim, &col);
  nf::CaidaLikeOptions topts;
  topts.duration = 10_ms;
  topts.rate_mpps = 1.0;
  topts.num_flows = 300;
  net.topo->source(net.source).load(nf::generate_caida_like(topts));
  nf::InjectionLog log;
  nf::schedule_interrupt(sim, net.topo->nf(net.nats[0]), 4_ms, 600_us, log);
  sim.run_until(24_ms);
  *graph = trace::graph_view(*net.topo);
  *rates = net.topo->peak_rates();
  *prop_delay = net.topo->options().prop_delay;
  return col;
}

TEST(EndToEnd, ConcurrentGetsDuringWindowCloses) {
  SKIP_IF_METRICS_DISABLED();
  trace::GraphView graph;
  std::vector<RatePerNs> rates;
  DurationNs prop_delay = 0;
  const collector::Collector col =
      make_fig10_collector(&graph, &rates, &prop_delay);

  auto hub = std::make_shared<IntrospectionHub>();
  online::OnlineOptions oopt;
  oopt.window_ns = 2_ms;
  oopt.slack_ns = 2_ms;
  oopt.latency_threshold = 200_us;
  oopt.reconstruct.prop_delay = prop_delay;
  oopt.introspection = hub;
  oopt.explain_top_max = 4;

  TimeSeriesStore store;
  HealthWatchdog watchdog(Registry::global(), store, HealthOptions{});
  Sampler sampler(Registry::global(), store,
                  SamplerOptions{std::chrono::milliseconds(5)},
                  [&](const Snapshot& s) { watchdog.evaluate(s); });
  HttpServer srv;
  IntrospectionWiring wiring;
  wiring.series = &store;
  wiring.health = &watchdog;
  wiring.hub = hub.get();
  install_introspection_routes(srv, wiring);
  std::string err;
  ASSERT_TRUE(srv.start(&err)) << err;
  sampler.start();

  // Hammer the endpoints from two client threads while the engine closes
  // windows on this thread (TSan watches the whole arrangement).
  std::atomic<bool> done{false};
  std::atomic<int> ok_gets{0};
  const std::uint16_t port = srv.port();
  auto client = [&] {
    const char* targets[] = {"/metrics", "/windows", "/healthz",
                             "/series?name=online.windows_closed&last=4",
                             "/explain?top=2&json=1", "/metrics.json"};
    std::size_t i = 0;
    while (!done.load(std::memory_order_acquire)) {
      std::string body;
      const int status = http_get(port, targets[i++ % 6], &body);
      if (status == 200 && !body.empty()) ok_gets.fetch_add(1);
    }
  };
  std::thread c1(client), c2(client);

  online::OnlineEngine eng(graph, rates, oopt);
  const auto windows = online::replay_collector(col, eng, 64, true);
  // Let the clients observe the final state before stopping them.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  done.store(true, std::memory_order_release);
  c1.join();
  c2.join();
  sampler.stop();
  srv.stop();

  EXPECT_GT(windows.size(), 2u);
  EXPECT_GT(ok_gets.load(), 0);
  EXPECT_EQ(hub->windows_published(), windows.size());

  // The diagnosed windows put live explain provenance on the hub, and the
  // board note count matches the engine's own output.
  std::size_t diagnosed = 0;
  for (const auto& w : windows) diagnosed += w.diagnoses.empty() ? 0 : 1;
  ASSERT_GT(diagnosed, 0u);
  const std::string ex = hub->explain_json(3);
  ASSERT_FALSE(ex.empty());
  EXPECT_NE(ex.find("\"explanations\": [{"), std::string::npos);
  EXPECT_NE(ex.find("\"victim\""), std::string::npos);
  std::string body;
  EXPECT_EQ(http_get(srv.port(), "/windows", &body), -1);  // stopped
}

TEST(EndToEnd, HubPublishingMatchesCaptureProvenancePath) {
  SKIP_IF_METRICS_DISABLED();
  trace::GraphView graph;
  std::vector<RatePerNs> rates;
  DurationNs prop_delay = 0;
  const collector::Collector col =
      make_fig10_collector(&graph, &rates, &prop_delay);

  online::OnlineOptions base;
  base.window_ns = 2_ms;
  base.slack_ns = 2_ms;
  base.latency_threshold = 200_us;
  base.reconstruct.prop_delay = prop_delay;

  // The hub path forces sequential provenance-capturing diagnosis; the
  // diagnoses must still be byte-identical to the plain path.
  online::OnlineOptions with_hub = base;
  with_hub.introspection = std::make_shared<IntrospectionHub>();
  online::OnlineEngine plain(graph, rates, base);
  online::OnlineEngine hubbed(graph, rates, with_hub);
  const auto w1 = online::replay_collector(col, plain, 64, true);
  const auto w2 = online::replay_collector(col, hubbed, 64, true);
  ASSERT_EQ(w1.size(), w2.size());
  for (std::size_t i = 0; i < w1.size(); ++i) {
    EXPECT_EQ(w1[i].diagnoses, w2[i].diagnoses) << "window " << i;
    EXPECT_TRUE(w1[i].provenances.empty());
    if (!w2[i].diagnoses.empty()) {
      EXPECT_EQ(w2[i].provenances.size(), w2[i].diagnoses.size());
    }
  }
}

}  // namespace
}  // namespace microscope::obs
