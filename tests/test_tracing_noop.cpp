// The MICROSCOPE_NO_METRICS off-switch for the flight recorder. This
// binary deliberately does NOT link the microscope library: the compiled-out
// header must be self-contained (pure inline no-ops), and the exporter
// must return zero bytes. The build defines MICROSCOPE_NO_METRICS on this
// target only — see tests/CMakeLists.txt.
#ifndef MICROSCOPE_NO_METRICS
#error "this test must be built with MICROSCOPE_NO_METRICS"
#endif

#include <gtest/gtest.h>

#include "obs/tracing.hpp"

namespace microscope::obs {
namespace {

TEST(TracingNoop, CompiledOutFlagIsVisible) {
  EXPECT_FALSE(kTracingCompiledIn);
}

TEST(TracingNoop, EnableIsInertAndNothingRecords) {
  TraceRecorder& rec = TraceRecorder::global();
  rec.enable();
  EXPECT_FALSE(rec.enabled());
  {
    const auto w = CorrelationScope::for_window(1);
    const auto v = CorrelationScope::for_victim(2);
    EXPECT_EQ(CorrelationScope::current_window(), kNoCorrelation);
    TraceSpan span("t", "work", 3);
    span.set_items(4);
    trace_instant("t", "tick", 5);
  }
  EXPECT_TRUE(rec.drain().empty());
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(TracingNoop, ExportersReturnZeroBytes) {
  std::vector<TraceEvent> events(3);
  EXPECT_EQ(export_chrome_trace(events, 7).size(), 0u);
}

}  // namespace
}  // namespace microscope::obs
