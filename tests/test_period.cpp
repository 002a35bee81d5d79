// Unit tests for queuing-period detection and the local diagnosis scores
// (paper §4.1, eqns 1-2), including property-style parameterized checks.
#include <gtest/gtest.h>

#include "core/period.hpp"

namespace microscope::core {
namespace {

using trace::Arrival;
using trace::NodeTimeline;

/// Build a timeline from raw arrival times and (ts, count, short) reads.
NodeTimeline make_timeline(
    std::vector<TimeNs> arrivals,
    std::vector<std::tuple<TimeNs, std::uint16_t, bool>> reads) {
  NodeTimeline tl;
  for (const TimeNs t : arrivals) {
    Arrival a;
    a.t = t;
    a.from = 0;
    tl.arrivals.push_back(a);
  }
  std::uint64_t cum = 0;
  for (const auto& [ts, count, short_batch] : reads) {
    tl.reads.push_back({ts, count, short_batch});
    cum += count;
    tl.reads_cum.push_back(cum);
  }
  return tl;
}

TEST(QueuingPeriod, StartsAfterLastEmptyProof) {
  // Queue proven empty at t=100 (short read); arrivals at 150, 200, 250.
  const auto tl = make_timeline({50, 150, 200, 250},
                                {{100, 3, true}});
  const auto p = find_queuing_period(tl, 260, {});
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->start, 150);
  EXPECT_EQ(p->end, 260);
  EXPECT_EQ(p->arrival_count(), 3u);  // 150, 200, 250
}

TEST(QueuingPeriod, NoArrivalsAfterProofMeansNoQueue) {
  const auto tl = make_timeline({50}, {{100, 1, true}});
  EXPECT_FALSE(find_queuing_period(tl, 200, {}).has_value());
}

TEST(QueuingPeriod, FullBatchesDontProveEmpty) {
  // All reads are full batches: the period reaches back to the first
  // arrival.
  const auto tl = make_timeline({10, 20, 30}, {{15, 32, false}});
  const auto p = find_queuing_period(tl, 35, {});
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->start, 10);
  EXPECT_EQ(p->arrival_count(), 3u);
}

TEST(QueuingPeriod, LookbackBoundsTheSearch) {
  const auto tl = make_timeline({10, 20, 30, 1'000'000}, {});
  QueuingPeriodOptions opts;
  opts.max_lookback = 100'000;
  const auto p = find_queuing_period(tl, 1'000'100, opts);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->start, 1'000'000);  // early arrivals fall outside lookback
}

TEST(QueuingPeriod, VictimArrivalIncluded) {
  const auto tl = make_timeline({100, 200}, {{50, 1, true}});
  const auto p = find_queuing_period(tl, 200, {});
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->arrival_count(), 2u);  // the victim's own arrival at 200
}

TEST(QueuingPeriod, ThresholdVariantStartsLater) {
  // Arrivals every 10 ns from t=100, no reads: queue grows monotonically.
  std::vector<TimeNs> arrivals;
  for (int i = 0; i < 50; ++i) arrivals.push_back(100 + 10 * i);
  const auto tl = make_timeline(arrivals, {{90, 1, true}});

  const auto p0 = find_queuing_period(tl, 600, {});
  ASSERT_TRUE(p0.has_value());
  EXPECT_EQ(p0->start, 100);

  QueuingPeriodOptions opts;
  opts.queue_threshold = 10;  // period starts once backlog exceeds 10
  const auto p10 = find_queuing_period(tl, 600, opts);
  ASSERT_TRUE(p10.has_value());
  EXPECT_GT(p10->start, p0->start);
  EXPECT_LE(p10->arrival_count(), 40u);
}

TEST(LocalScores, HighInputRateCase) {
  // T = 1000 ns, r = 0.01 pkts/ns => expected 10; 25 arrive, 8 processed.
  std::vector<TimeNs> arrivals;
  for (int i = 0; i < 25; ++i) arrivals.push_back(i * 40);
  auto tl = make_timeline(arrivals, {{500, 8, false}});
  QueuingPeriod p;
  p.start = 0;
  p.end = 1000;
  p.first_arrival = 0;
  p.last_arrival = 25;
  const auto s = local_scores(tl, p, RatePerNs{0.01});
  EXPECT_DOUBLE_EQ(s.n_i, 25.0);
  EXPECT_DOUBLE_EQ(s.n_p, 8.0);
  EXPECT_DOUBLE_EQ(s.expected, 10.0);
  EXPECT_DOUBLE_EQ(s.s_i, 15.0);  // eq (1): n_i - rT
  EXPECT_DOUBLE_EQ(s.s_p, 2.0);   // eq (2): rT - n_p
  // Together they cover the whole buildup.
  EXPECT_DOUBLE_EQ(s.s_i + s.s_p, s.n_i - s.n_p);
}

TEST(LocalScores, SlowProcessingCase) {
  // 8 arrivals within capacity (expected 10), but only 2 processed: local
  // slowness, not input.
  std::vector<TimeNs> arrivals;
  for (int i = 0; i < 8; ++i) arrivals.push_back(i * 100);
  auto tl = make_timeline(arrivals, {{900, 2, false}});
  QueuingPeriod p;
  p.start = 0;
  p.end = 1000;
  p.first_arrival = 0;
  p.last_arrival = 8;
  const auto s = local_scores(tl, p, RatePerNs{0.01});
  EXPECT_DOUBLE_EQ(s.s_i, 0.0);
  EXPECT_DOUBLE_EQ(s.s_p, 6.0);  // n_i - n_p
}

TEST(LocalScores, FasterThanPeakClampsToZero) {
  // Batch effects can drain more than r*T predicts; S_p must not go
  // negative.
  std::vector<TimeNs> arrivals{0, 10, 20};
  auto tl = make_timeline(arrivals, {{50, 3, false}});
  QueuingPeriod p;
  p.start = 0;
  p.end = 100;
  p.first_arrival = 0;
  p.last_arrival = 3;
  const auto s = local_scores(tl, p, RatePerNs{0.01});  // expected 1
  EXPECT_DOUBLE_EQ(s.s_i, 2.0);
  EXPECT_DOUBLE_EQ(s.s_p, 0.0);  // clamped (3 processed > 1 expected)
}

/// Property sweep: S_i + S_p always equals the buildup when no clamping
/// occurs, and both scores are non-negative.
class LocalScoreProperty
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(LocalScoreProperty, ConservationAndNonNegativity) {
  const auto [n_i, n_p, rate] = GetParam();
  std::vector<TimeNs> arrivals;
  for (int i = 0; i < n_i; ++i) arrivals.push_back(i);
  auto tl = make_timeline(
      arrivals, {{500, static_cast<std::uint16_t>(n_p), false}});
  QueuingPeriod p;
  p.start = 0;
  p.end = 1000;
  p.first_arrival = 0;
  p.last_arrival = static_cast<std::size_t>(n_i);
  const auto s = local_scores(tl, p, RatePerNs{rate});
  EXPECT_GE(s.s_i, 0.0);
  EXPECT_GE(s.s_p, 0.0);
  if (s.n_p <= s.expected && n_p <= n_i) {
    EXPECT_NEAR(s.s_i + s.s_p, static_cast<double>(n_i - n_p), 1e-9)
        << "buildup conservation violated";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LocalScoreProperty,
    ::testing::Combine(::testing::Values(5, 20, 100, 500),
                       ::testing::Values(0, 3, 20, 90),
                       ::testing::Values(0.001, 0.01, 0.05, 0.2)));

}  // namespace
}  // namespace microscope::core
