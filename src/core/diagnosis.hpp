// The Microscope diagnoser: local diagnosis, propagation analysis, and
// recursive diagnosis over a reconstructed trace (paper §4.1-§4.3).
#pragma once

#include <optional>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/period.hpp"
#include "core/provenance.hpp"
#include "core/relation.hpp"
#include "core/timespan.hpp"
#include "trace/reconstruct.hpp"

namespace microscope::core {

struct DiagnoserOptions {
  QueuingPeriodOptions period{};
  /// Recursion depth cap (the paper needs <= 5 on its 16-NF topology).
  int max_depth = 8;
  /// Relations below this score (in packets) are not emitted or recursed.
  double min_score = 0.5;
  /// Cap on per-relation culprit flows kept (top by weight).
  std::size_t max_flows_per_relation = 64;
  /// k in the "beyond k standard deviations" hop-abnormality test.
  double abnormal_stddev_k = 1.0;
  /// Fan out diagnose_all() across a thread pool. Defaults to
  /// sequential; results are always collected in victim order, and each
  /// per-victim diagnosis is a pure function of the (immutable)
  /// reconstructed trace, so parallel output is byte-identical.
  ParallelOptions parallel{};
  /// Online window index to stamp on trace spans recorded inside
  /// diagnose() (obs/tracing correlation tag). Carried through options
  /// because diagnose_all() fans out to pool threads, where the caller's
  /// thread-local CorrelationScope does not reach. -1 = no window.
  std::int64_t trace_window = -1;
};

class Diagnoser {
 public:
  Diagnoser(const trace::ReconstructedTrace& rt,
            std::vector<RatePerNs> peak_rates, DiagnoserOptions opts = {});

  /// Diagnose one victim: full recursive causal analysis. When `prov` is
  /// non-null it is overwritten with the full provenance of the run (the
  /// diagnosis itself is unaffected — capture is observation only).
  Diagnosis diagnose(const Victim& victim, Provenance* prov = nullptr) const;

  /// Diagnose every victim, sharded across `pool` — or, when it is null,
  /// a pool built for this call from options().parallel; out[i] is
  /// diagnose(victims[i], &(*provs)[i]) regardless of scheduling. A
  /// non-null `provs` is resized to victims.size() and receives each
  /// victim's provenance.
  std::vector<Diagnosis> diagnose_all(
      const std::vector<Victim>& victims, ThreadPool* pool = nullptr,
      std::vector<Provenance>* provs = nullptr) const;

  // --- victim selection -------------------------------------------------
  /// Delivered packets whose end-to-end latency is above the given
  /// percentile (e.g. 99.9); anchored at the path hop with abnormal local
  /// latency (falls back to the max-latency hop).
  std::vector<Victim> latency_victims_by_percentile(double pct) const;

  /// Delivered packets with end-to-end latency above a fixed threshold.
  std::vector<Victim> latency_victims_by_threshold(DurationNs threshold) const;

  /// Dropped packets (queue overflow or NF policy).
  std::vector<Victim> drop_victims() const;

  /// Packets of `flow` delivered inside windows where the flow's delivered
  /// throughput fell below `min_rate_pps`.
  std::vector<Victim> throughput_victims(const FiveTuple& flow,
                                         DurationNs window,
                                         double min_rate_pps) const;

  /// Per-connection TCP stall victims (Dapper's connection-level lens):
  /// group delivered TCP journeys by flow and flag a packet whose delivery
  /// gap to the flow's previous delivery exceeds `stall_gap` while the
  /// source-side send gap stayed below `stall_gap / 4` (the sender kept
  /// transmitting, so the stall happened inside the NF graph). Flows with
  /// fewer than `min_packets` deliveries are skipped. The victim is
  /// anchored at its worst hop, so the normal queue-based diagnosis runs.
  std::vector<Victim> connection_stall_victims(
      DurationNs stall_gap, std::size_t min_packets = 4) const;

  /// §7 "problems not caused by long queues": packets whose delay *inside*
  /// an NF (tx timestamp - rx timestamp, minus their share of the batch)
  /// exceeds `threshold` — NF misbehaviour, reported directly against that
  /// NF rather than diagnosed through queues.
  std::vector<Victim> in_nf_delay_victims(DurationNs threshold) const;

  const trace::ReconstructedTrace& trace() const { return *rt_; }
  const DiagnoserOptions& options() const { return opts_; }

 private:
  /// Distribute `base_score` of input-driven queue buildup at `node` over
  /// the given period among upstream culprits; recurse (§4.2-§4.3).
  /// `prov`/`prov_parent` (nullable / -1) capture a PropagationStep per
  /// invocation, linked into the provenance tree.
  void propagate(NodeId node, const QueuingPeriod& period, double base_score,
                 int depth, std::uint32_t victim_journey, Diagnosis& out,
                 Provenance* prov, int prov_parent) const;

  /// Emit a local-processing relation at `node` for `period`.
  void emit_local(NodeId node, const QueuingPeriod& period, double score,
                  int depth, Diagnosis& out) const;

  /// Emit a source-traffic relation.
  void emit_source(NodeId source, double score, int depth, TimeNs t0,
                   TimeNs t1, const std::vector<std::uint32_t>& journeys,
                   Diagnosis& out) const;

  /// Culprit flows of the packets arriving at `node` during `period`.
  std::vector<FlowWeight> period_flows(NodeId node,
                                       const QueuingPeriod& period,
                                       double score) const;

  Victim make_latency_victim(std::uint32_t jid) const;

  const trace::ReconstructedTrace* rt_;
  std::vector<RatePerNs> peak_rates_;
  DiagnoserOptions opts_;
};

}  // namespace microscope::core
