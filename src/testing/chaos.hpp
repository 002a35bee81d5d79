// End-to-end chaos harness for the online pipeline.
//
// Composes every ingestion-side failure mode the repo models — wire
// corruption (CorruptionFuzzer), dumper crashes (torn tails + restart),
// per-node clock skew, injected timestamp regressions, and late/duplicated
// dumper chunks — and pushes the resulting byte stream through a real
// OnlineEngine. The harness does not assert per-fault decode categories
// (composed mutations interact at segment seams); what it checks is the
// survival contract: the engine never crashes, windows keep closing
// (watermarks are never wedged by skew or regressions), and every diagnosis
// that does come out still satisfies the attribution conservation
// invariant (PropagationStep::residual ~ 0).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "collector/collector.hpp"
#include "online/engine.hpp"
#include "testing/corrupt.hpp"
#include "trace/graph.hpp"

namespace microscope::testing {

struct ChaosOptions {
  std::uint64_t seed = 1;
  /// Dumper chunk size the stream is fed in (boundaries are arbitrary
  /// relative to frames, so chunk seams exercise partial-record buffering).
  std::size_t chunk_bytes = 4096;
  /// Fuzzer mutations, each applied to its own disjoint frame-aligned
  /// segment (one mutation per segment keeps each one's blast radius
  /// locally bounded, like real independent corruption episodes).
  int corruptions = 4;
  /// Dumper crashes: a segment's tail is torn mid-frame; the next segment
  /// starts clean on a frame boundary (the restarted dumper).
  int dumper_crashes = 1;
  /// Frames whose timestamp is rewritten `ts_regression_jump` backwards
  /// (CRC re-sealed, so only the timestamp validator can catch it).
  int ts_regressions = 2;
  DurationNs ts_regression_jump = 50_ms;
  /// Per-node constant clock offset drawn from [0, clock_skew_max].
  /// Constant-per-node keeps every per-stream ordering contract intact
  /// while desynchronizing nodes against each other.
  DurationNs clock_skew_max = 2_ms;
  /// Per-chunk probability of feeding the chunk twice (dumper retry).
  double duplicate_prob = 0.05;
  /// Per-chunk probability of holding the chunk back and delivering it
  /// late, after up to max_reorder_chunks newer chunks.
  double reorder_prob = 0.05;
  std::size_t max_reorder_chunks = 3;
};

struct ChaosReport {
  std::size_t stream_bytes{0};
  std::size_t frames{0};
  std::size_t chunks{0};
  std::size_t chunks_duplicated{0};
  std::size_t chunks_reordered{0};
  int corruptions_applied{0};
  int crashes_applied{0};
  int ts_regressions_applied{0};
  std::vector<DurationNs> clock_skew_ns;  // indexed by node id

  collector::DecodeStats decode{};
  online::OnlineStats stats{};
  std::size_t windows{0};
  std::size_t diagnoses{0};
  std::size_t provenance_steps{0};
  /// Largest |residual| / max(1, base_score) over every propagation step.
  double max_conservation_residual{0.0};
  bool conservation_ok{true};
  std::vector<online::WindowResult> results;
};

/// Constant per-node clock offsets in [0, max_skew], seeded.
std::vector<DurationNs> random_clock_skew(std::size_t nodes,
                                          DurationNs max_skew,
                                          std::uint64_t seed);

/// Shift every batch timestamp of node i by offsets[i].
void apply_clock_skew(collector::Collector& col,
                      const std::vector<DurationNs>& offsets);

/// Serialize a collector's records into one v2-framed byte stream, merged
/// across nodes by (possibly skewed) timestamp — the stream a shared dumper
/// draining all nodes would emit. Frame start offsets are returned through
/// `frame_starts` when non-null.
std::vector<std::byte> encode_framed_stream(
    const collector::Collector& col,
    std::vector<std::size_t>* frame_starts = nullptr);

/// Run the full chaos pipeline over a recorded collector: skew clocks,
/// encode, inject ts regressions / corruption / crashes, feed in chunks
/// with duplicates and reordering, finish, and audit conservation.
/// `engine_opts` is taken as configured except that framed decode and
/// provenance capture are forced on (the harness needs both).
ChaosReport run_chaos(const collector::Collector& col, trace::GraphView graph,
                      std::vector<RatePerNs> peak_rates,
                      online::OnlineOptions engine_opts,
                      const ChaosOptions& chaos = {});

}  // namespace microscope::testing
