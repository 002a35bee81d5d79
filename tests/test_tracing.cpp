// The pipeline flight recorder: recording semantics, correlation scopes,
// epoch flush + capacity behaviour, exporter well-formedness, and the
// online engine's window lifecycle events.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "eval/scenarios.hpp"
#include "nf/inject.hpp"
#include "nf/traffic.hpp"
#include "obs/metrics.hpp"
#include "obs/tracing.hpp"
#include "online/engine.hpp"
#include "online/replay.hpp"
#include "sim/simulator.hpp"
#include "trace/graph.hpp"

namespace microscope::obs {
namespace {

// A MICROSCOPE_NO_METRICS build compiles the recorder out, so the tests of
// what it records skip themselves there (test_tracing_noop covers the
// compiled-out API); the disabled-recorder tests still run.
#define SKIP_IF_METRICS_DISABLED()                                  \
  if constexpr (!kMetricsEnabled) {                                 \
    GTEST_SKIP() << "metrics compiled out (MICROSCOPE_NO_METRICS)"; \
  }

/// Every test drains the process-global recorder on entry and exit so the
/// suites stay independent regardless of execution order.
class Tracing : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRecorder::global().disable();
    TraceRecorder::global().clear();
    TraceRecorder::global().set_capacity(1u << 20);
  }
  void TearDown() override { SetUp(); }
};

std::size_t count_of(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size()))
    ++n;
  return n;
}

TEST_F(Tracing, DisabledRecorderRecordsNothing) {
  {
    TraceSpan span("t", "disabled");
    trace_instant("t", "disabled.instant");
  }
  EXPECT_TRUE(TraceRecorder::global().drain().empty());
}

TEST_F(Tracing, SpanCapturesTimesItemsAndCorrelation) {
  SKIP_IF_METRICS_DISABLED();
  TraceRecorder::global().enable();
  {
    const auto w = CorrelationScope::for_window(7);
    const auto v = CorrelationScope::for_victim(42);
    TraceSpan span("cat", "work");
    span.set_items(13);
  }
  const auto events = TraceRecorder::global().drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].cat, "cat");
  EXPECT_STREQ(events[0].name, "work");
  EXPECT_EQ(events[0].kind, TraceEventKind::kSpan);
  EXPECT_GE(events[0].t1_ns, events[0].t0_ns);
  EXPECT_EQ(events[0].window_id, 7);
  EXPECT_EQ(events[0].victim_id, 42);
  EXPECT_EQ(events[0].items, 13u);
}

TEST_F(Tracing, CorrelationScopesNestAndRestore) {
  SKIP_IF_METRICS_DISABLED();
  TraceRecorder::global().enable();
  {
    const auto outer = CorrelationScope::for_window(1);
    {
      // for_victim keeps the surrounding window tag.
      const auto inner = CorrelationScope::for_victim(5);
      trace_instant("t", "inner");
    }
    {
      // A nested window overrides, then restores on scope exit.
      const auto inner = CorrelationScope::for_window(2);
      trace_instant("t", "override");
    }
    trace_instant("t", "restored");
  }
  trace_instant("t", "outside");
  const auto events = TraceRecorder::global().drain();
  ASSERT_EQ(events.size(), 4u);
  auto find = [&](const char* name) -> const TraceEvent& {
    for (const TraceEvent& e : events)
      if (std::string(e.name) == name) return e;
    ADD_FAILURE() << "missing event " << name;
    return events[0];
  };
  EXPECT_EQ(find("inner").window_id, 1);
  EXPECT_EQ(find("inner").victim_id, 5);
  EXPECT_EQ(find("override").window_id, 2);
  EXPECT_EQ(find("restored").window_id, 1);
  EXPECT_EQ(find("restored").victim_id, kNoCorrelation);
  EXPECT_EQ(find("outside").window_id, kNoCorrelation);
}

TEST_F(Tracing, SpanStartedWhileDisabledStaysUnrecorded) {
  TraceSpan span("t", "straddle");  // recorder still disabled here
  TraceRecorder::global().enable();
  span.stop();
  EXPECT_TRUE(TraceRecorder::global().drain().empty());
}

TEST_F(Tracing, EpochFlushKeepsEveryEventAndDrainSorts) {
  SKIP_IF_METRICS_DISABLED();
  TraceRecorder::global().enable();
  constexpr std::size_t kN = 10000;  // > one 4096-event epoch
  for (std::size_t i = 0; i < kN; ++i) trace_instant("t", "tick", i);
  const auto events = TraceRecorder::global().drain();
  ASSERT_EQ(events.size(), kN);
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_LE(events[i - 1].t0_ns, events[i].t0_ns);
  // A second drain is empty: the buffers were moved out.
  EXPECT_TRUE(TraceRecorder::global().drain().empty());
}

TEST_F(Tracing, CapacityCapDropsAndCounts) {
  SKIP_IF_METRICS_DISABLED();
  TraceRecorder::global().set_capacity(100);
  TraceRecorder::global().enable();
  for (std::size_t i = 0; i < 500; ++i) trace_instant("t", "burst");
  EXPECT_GT(TraceRecorder::global().dropped(), 0u);
  const auto events = TraceRecorder::global().drain();
  EXPECT_LE(events.size(), 101u);
  // drain() resets the dropped counter.
  EXPECT_EQ(TraceRecorder::global().dropped(), 0u);
}

TEST_F(Tracing, ConcurrentRecordingIsSafe) {
  SKIP_IF_METRICS_DISABLED();
  TraceRecorder::global().enable();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      const auto scope = CorrelationScope::for_window(t);
      for (int i = 0; i < kPerThread; ++i) {
        TraceSpan span("mt", "work");
        trace_instant("mt", "tick");
      }
    });
  }
  // Concurrent drains race against the recorders on purpose.
  std::size_t drained = 0;
  for (int i = 0; i < 50; ++i)
    drained += TraceRecorder::global().drain().size();
  for (std::thread& w : workers) w.join();
  drained += TraceRecorder::global().drain().size();
  EXPECT_EQ(drained, static_cast<std::size_t>(kThreads) * kPerThread * 2);
}

TEST_F(Tracing, ChromeExportBalancedAndStamped) {
  SKIP_IF_METRICS_DISABLED();
  TraceRecorder::global().enable();
  {
    const auto w = CorrelationScope::for_window(3);
    TraceSpan outer("t", "outer");
    {
      TraceSpan inner("t", "inner");
      trace_instant("t", "mark", 9);
    }
  }
  const auto events = TraceRecorder::global().drain();
  ASSERT_EQ(events.size(), 3u);
  const std::string json = export_chrome_trace(events, 5);
  EXPECT_EQ(count_of(json, "\"ph\": \"B\""), 2u);
  EXPECT_EQ(count_of(json, "\"ph\": \"E\""), 2u);
  EXPECT_EQ(count_of(json, "\"ph\": \"i\""), 1u);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"git_hash\""), std::string::npos);
  EXPECT_NE(json.find("\"droppedEvents\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"window\": 3"), std::string::npos);
  // The inner span's B must come after the outer's B and before its E.
  const auto outer_b = json.find("\"name\": \"outer\"");
  const auto inner_b = json.find("\"name\": \"inner\"");
  ASSERT_NE(outer_b, std::string::npos);
  ASSERT_NE(inner_b, std::string::npos);
  EXPECT_LT(outer_b, inner_b);
}

TEST_F(Tracing, JsonlExportHeaderAndOneLinePerEvent) {
  SKIP_IF_METRICS_DISABLED();
  TraceRecorder::global().enable();
  { TraceSpan span("t", "a"); }
  trace_instant("t", "b");
  const auto events = TraceRecorder::global().drain();
  ASSERT_EQ(events.size(), 2u);
  const std::string jsonl = export_trace_jsonl(events, 1);
  EXPECT_EQ(count_of(jsonl, "\n"), 3u);  // header + 2 events
  EXPECT_EQ(jsonl.rfind("{\"type\": \"header\"", 0), 0u);
  EXPECT_NE(jsonl.find("\"dropped\": 1"), std::string::npos);
  EXPECT_EQ(count_of(jsonl, "{\"type\": \"event\""), 2u);
  EXPECT_NE(jsonl.find("\"kind\": \"span\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\": \"instant\""), std::string::npos);
}

TEST_F(Tracing, OnlineEngineEmitsWindowLifecycleEvents) {
  SKIP_IF_METRICS_DISABLED();
  sim::Simulator sim;
  collector::Collector col;
  auto net = eval::build_single_firewall(sim, &col, 700);
  nf::CaidaLikeOptions topts;
  topts.duration = 25_ms;
  topts.rate_mpps = 0.8;
  topts.num_flows = 120;
  net.topo->source(net.source).load(nf::generate_caida_like(topts));
  nf::InjectionLog log;
  nf::schedule_interrupt(sim, net.topo->nf(net.nf), 8_ms, 500_us, log);
  sim.run_until(40_ms);

  TraceRecorder::global().enable();
  online::OnlineOptions oopt;
  oopt.window_ns = 5_ms;
  oopt.slack_ns = 5_ms;
  oopt.latency_threshold = 100_us;
  oopt.diagnoser.max_depth = 5;
  oopt.diagnoser.period.max_lookback = 3_ms;
  oopt.reconstruct.prop_delay = net.topo->options().prop_delay;
  online::OnlineEngine eng(trace::graph_view(*net.topo),
                           net.topo->peak_rates(), oopt);
  online::replay_collector(col, eng, 64, true);
  const auto events = TraceRecorder::global().drain();

  std::size_t opens = 0, closes = 0;
  bool close_has_window_tag = false;
  for (const TraceEvent& e : events) {
    const std::string name = e.name;
    if (name == "window.open") {
      ++opens;
      EXPECT_NE(e.window_id, kNoCorrelation);
    }
    if (name == "window.close") {
      ++closes;
      if (e.window_id != kNoCorrelation) close_has_window_tag = true;
    }
  }
  EXPECT_GT(opens, 0u);
  EXPECT_GT(closes, 0u);
  EXPECT_TRUE(close_has_window_tag);
  // The analysis stages inside a window must carry its id.
  bool tagged_diagnose = false;
  for (const TraceEvent& e : events)
    if (std::string(e.name) == "diagnose" && e.window_id != kNoCorrelation &&
        e.victim_id != kNoCorrelation)
      tagged_diagnose = true;
  EXPECT_TRUE(tagged_diagnose);
}

}  // namespace
}  // namespace microscope::obs
