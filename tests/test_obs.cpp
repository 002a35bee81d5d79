// Unit tests for obs/: metric semantics, quantile accuracy, snapshot
// isolation under concurrent writers (run under TSan in CI), and the JSON
// export golden format.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace microscope::obs {
namespace {

// Most assertions are about recorded values, which a MICROSCOPE_NO_METRICS
// build intentionally discards. Those tests skip themselves there; the
// API-shape tests still run so the disabled configuration stays compiling.
#define SKIP_IF_METRICS_DISABLED()                                  \
  if constexpr (!kMetricsEnabled) {                                 \
    GTEST_SKIP() << "metrics compiled out (MICROSCOPE_NO_METRICS)"; \
  }

TEST(Counter, AddAndValue) {
  SKIP_IF_METRICS_DISABLED();
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  SKIP_IF_METRICS_DISABLED();
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.set(7.0);  // last write wins over accumulated state
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
}

TEST(Histogram, BasicAccounting) {
  SKIP_IF_METRICS_DISABLED();
  Histogram h({10, 100, 1000});
  h.record(5);
  h.record(50);
  h.record(500);
  h.record(5000);  // overflow bucket
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 5555);
  EXPECT_EQ(s.min, 5);
  EXPECT_EQ(s.max, 5000);
  EXPECT_DOUBLE_EQ(s.mean(), 5555.0 / 4.0);
  ASSERT_EQ(s.counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(s.counts[0], 1u);
  EXPECT_EQ(s.counts[1], 1u);
  EXPECT_EQ(s.counts[2], 1u);
  EXPECT_EQ(s.counts[3], 1u);
}

TEST(Histogram, BucketEdgesAreInclusiveUpper) {
  SKIP_IF_METRICS_DISABLED();
  Histogram h({10, 100});
  h.record(10);   // == bound: lands in bucket 0 (<= 10)
  h.record(11);   // first value of bucket 1
  h.record(100);  // == bound: bucket 1
  h.record(101);  // overflow
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.counts[0], 1u);
  EXPECT_EQ(s.counts[1], 2u);
  EXPECT_EQ(s.counts[2], 1u);
}

TEST(Histogram, RejectsUnsortedBounds) {
  EXPECT_THROW(Histogram({10, 5}), std::invalid_argument);
}

TEST(Histogram, EmptySnapshotIsZero) {
  Histogram h({10, 100});
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.min, 0);
  EXPECT_EQ(s.max, 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.p50(), 0.0);
  EXPECT_DOUBLE_EQ(s.p99(), 0.0);
}

TEST(Histogram, QuantilesOnUniformDistribution) {
  SKIP_IF_METRICS_DISABLED();
  // Fine, evenly spaced buckets so interpolation error is tiny: bounds
  // 10, 20, ..., 1000 with one sample at each of 1..1000.
  std::vector<std::int64_t> bounds;
  for (std::int64_t b = 10; b <= 1000; b += 10) bounds.push_back(b);
  Histogram h(bounds);
  for (std::int64_t v = 1; v <= 1000; ++v) h.record(v);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_NEAR(s.p50(), 500.0, 10.0);
  EXPECT_NEAR(s.p95(), 950.0, 10.0);
  EXPECT_NEAR(s.p99(), 990.0, 10.0);
  EXPECT_NEAR(s.quantile(0.0), 1.0, 10.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 1000.0);
}

TEST(Histogram, QuantilesClampToObservedExtremes) {
  SKIP_IF_METRICS_DISABLED();
  // A single sample: every quantile is that sample, not a bucket edge.
  Histogram h({100, 1000});
  h.record(137);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.p50(), 137.0);
  EXPECT_DOUBLE_EQ(s.p95(), 137.0);
  EXPECT_DOUBLE_EQ(s.p99(), 137.0);
}

TEST(Histogram, OverflowBucketQuantileUsesMax) {
  SKIP_IF_METRICS_DISABLED();
  Histogram h({10});
  h.record(500);
  h.record(900);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.counts[1], 2u);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 900.0);
  EXPECT_GE(s.p50(), 500.0);
  EXPECT_LE(s.p50(), 900.0);
}

TEST(ScopedTimer, RecordsElapsed) {
  Histogram h(latency_bounds_ns());
  {
    ScopedTimer t(h);
  }
  {
    ScopedTimer t(h);
    t.stop();
    t.stop();  // idempotent: second stop records nothing
  }
  const HistogramSnapshot s = h.snapshot();
  if constexpr (kMetricsEnabled) {
    EXPECT_EQ(s.count, 2u);
    EXPECT_GE(s.min, 0);
  } else {
    EXPECT_EQ(s.count, 0u);
  }
}

TEST(Registry, RegistrationIsIdempotent) {
  Registry reg;
  Counter& a = reg.counter("x.count");
  Counter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = reg.histogram("x.lat_ns", {10, 20});
  Histogram& h2 = reg.histogram("x.lat_ns", {99});  // bounds ignored: exists
  EXPECT_EQ(&h1, &h2);
}

TEST(Registry, KindMismatchThrows) {
  Registry reg;
  reg.counter("dual");
  EXPECT_THROW(reg.gauge("dual"), std::logic_error);
  EXPECT_THROW(reg.histogram("dual"), std::logic_error);
}

TEST(Registry, SnapshotSortedByName) {
  SKIP_IF_METRICS_DISABLED();
  Registry reg;
  reg.counter("zeta").add(1);
  reg.counter("alpha").add(2);
  reg.gauge("mid").set(3.0);
  const Snapshot s = reg.snapshot();
  ASSERT_EQ(s.metrics.size(), 3u);
  EXPECT_EQ(s.metrics[0].name, "alpha");
  EXPECT_EQ(s.metrics[1].name, "mid");
  EXPECT_EQ(s.metrics[2].name, "zeta");
  ASSERT_NE(s.find("mid"), nullptr);
  EXPECT_DOUBLE_EQ(s.find("mid")->value, 3.0);
  EXPECT_EQ(s.find("nope"), nullptr);
}

// Writers never block on a snapshot, and a snapshot never tears a single
// metric: counters read monotonically, histogram bucket sums never trail
// the reported count. This test is part of the TSan CI filter.
TEST(Registry, SnapshotIsolationUnderConcurrentWriters) {
  SKIP_IF_METRICS_DISABLED();
  Registry reg;
  Counter& c = reg.counter("conc.count");
  Histogram& h = reg.histogram("conc.lat_ns", {8, 64, 512});
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 20'000;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        c.add();
        h.record(static_cast<std::int64_t>((i * 7 + w) % 1000));
      }
    });
  }
  go.store(true, std::memory_order_release);

  std::uint64_t last_count = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const Snapshot s = reg.snapshot();
    const MetricSnapshot* cs = s.find("conc.count");
    ASSERT_NE(cs, nullptr);
    EXPECT_GE(static_cast<std::uint64_t>(cs->value), last_count);
    last_count = static_cast<std::uint64_t>(cs->value);
    const MetricSnapshot* hs = s.find("conc.lat_ns");
    ASSERT_NE(hs, nullptr);
    std::uint64_t bucket_sum = 0;
    for (const std::uint64_t b : hs->hist.counts) bucket_sum += b;
    EXPECT_GE(bucket_sum, hs->hist.count);
  }
  for (std::thread& t : writers) t.join();

  const Snapshot s = reg.snapshot();
  EXPECT_EQ(static_cast<std::uint64_t>(s.find("conc.count")->value),
            kWriters * kPerWriter);
  EXPECT_EQ(s.find("conc.lat_ns")->hist.count, kWriters * kPerWriter);
}

// The JSON layout is a contract with CI tooling (check_bench_regression.py,
// --metrics=json consumers): update the expected string deliberately.
TEST(Export, JsonGolden) {
  SKIP_IF_METRICS_DISABLED();
  Registry reg;
  reg.counter("a").add(3);
  reg.gauge("g").set(2.5);
  reg.histogram("h", {10, 100}).record(5);
  const std::string json = to_json(reg.snapshot());
  EXPECT_EQ(json,
            "{\"metrics\": ["
            "{\"name\": \"a\", \"type\": \"counter\", \"value\": 3}, "
            "{\"name\": \"g\", \"type\": \"gauge\", \"value\": 2.5}, "
            "{\"name\": \"h\", \"type\": \"histogram\", \"count\": 1, "
            "\"sum\": 5, \"min\": 5, \"max\": 5, "
            "\"p50\": 5, \"p95\": 5, \"p99\": 5, "
            "\"buckets\": [{\"le\": 10, \"count\": 1}]}"
            "]}");
}

TEST(Export, TextMentionsEveryMetric) {
  Registry reg;
  reg.counter("stage.events").add(7);
  reg.histogram("stage.lat_ns").record(1500);
  const std::string text = to_text(reg.snapshot());
  EXPECT_NE(text.find("stage.events"), std::string::npos);
  EXPECT_NE(text.find("stage.lat_ns"), std::string::npos);
}

// The exposition format is a contract with Prometheus scrapers and with
// ci/check_prom_format.py: counters get _total, histograms cumulative
// _bucket/_sum/_count with an explicit +Inf, and *_ns durations convert to
// base-unit seconds (name and values both).
TEST(Export, PrometheusGolden) {
  SKIP_IF_METRICS_DISABLED();
  Registry reg;
  reg.counter("a").add(3);
  reg.gauge("g").set(2.5);
  reg.histogram("h_ns", {10, 100}).record(5);
  const std::string prom = to_prometheus(reg.snapshot(), false);
  EXPECT_EQ(prom,
            "# HELP microscope_a_total Microscope metric a.\n"
            "# TYPE microscope_a_total counter\n"
            "microscope_a_total 3\n"
            "# HELP microscope_g Microscope metric g.\n"
            "# TYPE microscope_g gauge\n"
            "microscope_g 2.5\n"
            "# HELP microscope_h_seconds Microscope metric h_ns.\n"
            "# TYPE microscope_h_seconds histogram\n"
            "microscope_h_seconds_bucket{le=\"1e-08\"} 1\n"
            "microscope_h_seconds_bucket{le=\"1e-07\"} 1\n"
            "microscope_h_seconds_bucket{le=\"+Inf\"} 1\n"
            "microscope_h_seconds_sum 5e-09\n"
            "microscope_h_seconds_count 1\n");
}

TEST(Export, PrometheusCumulativeBucketsMatchCount) {
  SKIP_IF_METRICS_DISABLED();
  Registry reg;
  Histogram& h = reg.histogram("d.depth", depth_bounds());
  for (int i = 0; i < 500; ++i) h.record(i % 23);
  const std::string prom = to_prometheus(reg.snapshot(), false);
  // The +Inf bucket line and the _count line must carry the same value.
  const auto inf_pos = prom.find("_bucket{le=\"+Inf\"} ");
  ASSERT_NE(inf_pos, std::string::npos);
  const auto inf_end = prom.find('\n', inf_pos);
  const std::string inf_val =
      prom.substr(inf_pos + 19, inf_end - inf_pos - 19);
  const auto count_pos = prom.find("_count ");
  ASSERT_NE(count_pos, std::string::npos);
  const auto count_end = prom.find('\n', count_pos);
  EXPECT_EQ(prom.substr(count_pos + 7, count_end - count_pos - 7), inf_val);
  EXPECT_EQ(inf_val, "500");
}

TEST(Export, PrometheusBuildInfoLabels) {
  const std::string prom = to_prometheus(Registry().snapshot(), true);
  EXPECT_NE(prom.find("# TYPE microscope_build_info gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("microscope_build_info{git_hash=\""),
            std::string::npos);
  EXPECT_NE(prom.find("build_type=\""), std::string::npos);
  EXPECT_NE(prom.find("\"} 1\n"), std::string::npos);
}

TEST(Export, RenderHelpersRecordTheirOwnCost) {
  SKIP_IF_METRICS_DISABLED();
  Registry reg;
  reg.counter("x").add(1);
  const std::string text = render_text(reg);
  const std::string json = render_json(reg);
  const std::string prom = render_prometheus(reg);
  EXPECT_NE(text.find("x"), std::string::npos);
  EXPECT_NE(json.find("\"x\""), std::string::npos);
  EXPECT_NE(prom.find("microscope_x_total"), std::string::npos);
  const Snapshot s = reg.snapshot();
  const MetricSnapshot* cost = s.find("obs.render_ns");
  ASSERT_NE(cost, nullptr);
  EXPECT_EQ(cost->hist.count, 3u);  // one sample per render call
}

}  // namespace
}  // namespace microscope::obs
