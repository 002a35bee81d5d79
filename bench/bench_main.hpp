// MICROSCOPE_BENCH_MAIN: BENCHMARK_MAIN() plus a machine-readable
// BENCH_<name>.json next to the console output.
//
// Kept separate from bench_util.hpp on purpose: including
// <benchmark/benchmark.h> pulls in a static initializer, so only binaries
// that actually link benchmark::benchmark (the overhead_* perf benches)
// may include this header. The fig/table benches use bench_util.hpp alone.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

namespace microscope::bench {

/// Where MICROSCOPE_BENCH_MAIN drops its machine-readable results:
/// $MICROSCOPE_BENCH_OUT_DIR (or the cwd) / BENCH_<name>.json.
inline std::string bench_out_path(const std::string& name) {
  std::string dir = ".";
  if (const char* d = std::getenv("MICROSCOPE_BENCH_OUT_DIR")) dir = d;
  return dir + "/BENCH_" + name + ".json";
}

/// BENCHMARK_MAIN() body that additionally writes the google-benchmark
/// JSON report to BENCH_<name>.json (see bench_out_path) — the
/// machine-readable trajectory the perf-regression CI job consumes.
/// Implemented by injecting --benchmark_out flags so benchmark's own file
/// plumbing does the writing; an explicit --benchmark_out on the command
/// line wins. Console output is unchanged.
#ifndef MICROSCOPE_BENCH_BUILD_TYPE
#define MICROSCOPE_BENCH_BUILD_TYPE "unknown"
#endif

inline int run_bench_main(const std::string& name, int argc, char** argv) {
  // Stamp the compile-time build type into the JSON report's context so
  // the regression checker can refuse cross-build-type comparisons (a
  // RelWithDebInfo run against a Release baseline is pure noise).
  ::benchmark::AddCustomContext("microscope_build_type",
                                MICROSCOPE_BENCH_BUILD_TYPE);
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) has_out = true;
  std::string out_flag = "--benchmark_out=" + bench_out_path(name);
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int ac = static_cast<int>(args.size());
  args.push_back(nullptr);
  ::benchmark::Initialize(&ac, args.data());
  if (::benchmark::ReportUnrecognizedArguments(ac, args.data())) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}

}  // namespace microscope::bench

/// Drop-in replacement for BENCHMARK_MAIN(); see run_bench_main.
#define MICROSCOPE_BENCH_MAIN(bench_name)                               \
  int main(int argc, char** argv) {                                     \
    return ::microscope::bench::run_bench_main(bench_name, argc, argv); \
  }                                                                     \
  static_assert(true, "")  // require a trailing semicolon
