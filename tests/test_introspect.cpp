// The live introspection plane: HTTP server bounds and routing, the health
// watchdog's signals and hysteresis state machine, the engine -> hub
// publishing path, the stages an online run registers, and concurrent HTTP
// GETs racing window closes (the latter runs under TSan in CI).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
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

/// Minimal blocking HTTP client for loopback tests: send `request`
/// verbatim and return the whole response, headers included ("" on
/// connect or send failure).
std::string http_exchange(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + off, request.size() - off, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    off += static_cast<std::size_t>(n);
  }
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
    resp.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  return resp;
}

/// One GET: returns the status code and fills `body` (headers stripped).
/// -1 on connect failure.
int http_get(std::uint16_t port, const std::string& target,
             std::string* body = nullptr) {
  const std::string resp = http_exchange(
      port,
      "GET " + target + " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
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
  // HEAD carries the Content-Length a GET would, and no body (RFC 9110
  // §8.6): nothing follows the blank line.
  const std::string head = http_exchange(
      srv.port(), "HEAD /echo?q=hello HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(head.compare(0, 12, "HTTP/1.1 200"), 0) << head;
  EXPECT_NE(head.find("\r\nContent-Length: 5\r\n"), std::string::npos)
      << head;
  EXPECT_EQ(head.find("\r\n\r\n") + 4, head.size()) << head;
  EXPECT_GE(srv.requests_served(), 5u);
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

  // Other methods are refused with 405, which must name the methods that
  // are served (RFC 9110 §15.5.6).
  for (const char* method : {"POST", "PUT", "DELETE"}) {
    const std::string resp = http_exchange(
        srv.port(), std::string(method) + " / HTTP/1.1\r\nHost: t\r\n\r\n");
    EXPECT_EQ(resp.compare(0, 12, "HTTP/1.1 405"), 0) << method << resp;
    const std::string head = resp.substr(0, resp.find("\r\n\r\n") + 2);
    EXPECT_NE(head.find("\r\nAllow: GET, HEAD\r\n"), std::string::npos)
        << method << resp;
  }
  // A request head larger than the cap gets 431.
  const std::string huge = "/?x=" + std::string(1024, 'a');
  std::string body;
  EXPECT_EQ(http_get(srv.port(), huge, &body), 431);
}

// ---- health watchdog -----------------------------------------------------

struct HealthRig {
  Registry reg;
  HealthOptions opts;
  HealthWatchdog::Clock::time_point now{};

  HealthRig() {
    opts.drop_rate_degraded = 10.0;
    opts.drop_rate_unhealthy = 100.0;
    opts.recover_ticks = 3;
  }

  /// One watchdog tick: bump the drop counter to `total`, advance the
  /// clock by 1 s, and tick.
  void tick(HealthWatchdog& w, std::uint64_t total) {
    Counter& c = reg.counter("online.late_dropped_batches");
    c.add(total - c.value());
    now += std::chrono::seconds(1);
    w.tick(now);
  }
};

TEST(Health, UpgradeIsImmediateDowngradeNeedsCalmTicks) {
  SKIP_IF_METRICS_DISABLED();
  HealthRig rig;
  HealthWatchdog w(rig.reg, rig.opts);
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
  HealthWatchdog w(rig.reg, rig.opts);
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
  HealthWatchdog w(rig.reg, rig.opts);
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

TEST(Health, LagSignalIsP95OfRecentTicks) {
  SKIP_IF_METRICS_DISABLED();
  HealthRig rig;
  rig.opts.history = 20;
  HealthWatchdog w(rig.reg, rig.opts);
  auto lag_signal = [&] {
    for (const SignalReport& s : w.signals())
      if (s.name == "watermark_lag") return s;
    return SignalReport{};
  };
  Gauge& lag = rig.reg.gauge("online.watermark_lag_ns");
  // Lags 1..20 ms: the p95 of 20 values is the 19th smallest.
  for (int i = 1; i <= 20; ++i) {
    lag.set(i * 1e6);
    rig.tick(w, 0);
  }
  EXPECT_DOUBLE_EQ(lag_signal().value, 19e6);
  EXPECT_EQ(lag_signal().state, HealthState::kOk);
  // One 500 ms spike is 1 of 20 values: under the p95 rank.
  lag.set(500e6);
  rig.tick(w, 0);
  EXPECT_DOUBLE_EQ(lag_signal().value, 20e6);
  // A second one reaches it: degraded (>= 100 ms, < 1 s).
  rig.tick(w, 0);
  EXPECT_DOUBLE_EQ(lag_signal().value, 500e6);
  EXPECT_EQ(lag_signal().state, HealthState::kDegraded);
  // Only the newest `history` ticks count: 20 calm ticks push both spikes
  // out. The p95 fell below the threshold when the first spike left, two
  // ticks ago, so hysteresis holds the state for one more calm tick.
  lag.set(2e6);
  for (int i = 0; i < 20; ++i) rig.tick(w, 0);
  EXPECT_DOUBLE_EQ(lag_signal().value, 2e6);
  EXPECT_EQ(lag_signal().state, HealthState::kDegraded);
  rig.tick(w, 0);
  EXPECT_EQ(lag_signal().state, HealthState::kOk);
  EXPECT_EQ(w.ticks(), 43u);
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
  EXPECT_EQ(http_get(srv.port(), "/healthz", &body), 200);
  EXPECT_NE(body.find("\"watchdog\": false"), std::string::npos);
  EXPECT_EQ(http_get(srv.port(), "/readyz", &body), 200);
  EXPECT_EQ(http_get(srv.port(), "/version", &body), 200);
  EXPECT_NE(body.find("\"git_hash\""), std::string::npos);
  EXPECT_EQ(http_get(srv.port(), "/windows", &body), 404);
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

// Each stage registers its metric names when it is built, so a short
// online run leaves every stage in the process-wide registry.
TEST(Registry, OnlineRunRegistersEveryStage) {
  trace::GraphView graph;
  std::vector<RatePerNs> rates;
  DurationNs prop_delay = 0;
  const collector::Collector col =
      make_fig10_collector(&graph, &rates, &prop_delay);
  online::OnlineOptions oopt;
  oopt.window_ns = 2_ms;
  oopt.slack_ns = 2_ms;
  oopt.latency_threshold = 200_us;
  oopt.reconstruct.prop_delay = prop_delay;
  online::OnlineEngine eng(graph, rates, oopt);
  ASSERT_FALSE(online::replay_collector(col, eng, 64, true).empty());

  const Snapshot s = Registry::global().snapshot();
  for (const char* stage : {"collector.", "trace.align.", "trace.reconstruct.",
                            "core.diagnose.", "online."}) {
    EXPECT_TRUE(std::any_of(s.metrics.begin(), s.metrics.end(),
                            [&](const MetricSnapshot& m) {
                              return m.name.rfind(stage, 0) == 0;
                            }))
        << stage;
  }
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

  HealthWatchdog watchdog(Registry::global(), HealthOptions{});
  HttpServer srv;
  IntrospectionWiring wiring;
  wiring.health = &watchdog;
  wiring.hub = hub.get();
  install_introspection_routes(srv, wiring);
  std::string err;
  ASSERT_TRUE(srv.start(&err)) << err;
  watchdog.start(std::chrono::milliseconds(5));

  // Hammer the endpoints from two client threads while the engine closes
  // windows on this thread (TSan watches the whole arrangement).
  std::atomic<bool> done{false};
  std::atomic<int> ok_gets{0};
  const std::uint16_t port = srv.port();
  auto client = [&] {
    const char* targets[] = {"/metrics", "/windows", "/healthz",
                             "/readyz",  "/explain?top=2&json=1", "/version"};
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
  watchdog.stop();
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

  // The hub path captures provenance; the diagnoses must still be
  // byte-identical to the plain path, and a 4-thread hubbed engine must
  // capture exactly the sequential one's diagnoses and provenances.
  online::OnlineOptions with_hub = base;
  with_hub.introspection = std::make_shared<IntrospectionHub>();
  online::OnlineOptions par_hub = base;
  par_hub.introspection = std::make_shared<IntrospectionHub>();
  par_hub.reconstruct.parallel.num_threads = 4;
  par_hub.diagnoser.parallel.num_threads = 4;
  online::OnlineEngine plain(graph, rates, base);
  online::OnlineEngine hubbed(graph, rates, with_hub);
  online::OnlineEngine par_hubbed(graph, rates, par_hub);
  const auto w1 = online::replay_collector(col, plain, 64, true);
  const auto w2 = online::replay_collector(col, hubbed, 64, true);
  const auto w3 = online::replay_collector(col, par_hubbed, 64, true);
  ASSERT_EQ(w1.size(), w2.size());
  ASSERT_EQ(w2.size(), w3.size());
  std::size_t captured = 0;
  for (std::size_t i = 0; i < w1.size(); ++i) {
    EXPECT_EQ(w1[i].diagnoses, w2[i].diagnoses) << "window " << i;
    EXPECT_TRUE(w1[i].provenances.empty());
    if (!w2[i].diagnoses.empty()) {
      EXPECT_EQ(w2[i].provenances.size(), w2[i].diagnoses.size());
    }
    EXPECT_EQ(w2[i].diagnoses, w3[i].diagnoses) << "window " << i;
    EXPECT_TRUE(w2[i].provenances == w3[i].provenances) << "window " << i;
    captured += w3[i].provenances.size();
  }
  EXPECT_GT(captured, 0u);
}

}  // namespace
}  // namespace microscope::obs
