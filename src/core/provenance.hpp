// Diagnosis provenance: why each culprit got its share.
//
// A Diagnosis says *who* is to blame and by how much; a Provenance records
// *how* the diagnoser got there — the queuing-period bounds, the eqn (1)-(2)
// inputs (n_i, n_p, r·T) and outputs (S_i, S_p) at every node it visited,
// the per-path PreSet timespans, T_exp, every per-hop attribution share,
// and every zero-out (a candidate whose share fell below min_score and was
// dropped). Capture is opt-in per call (Diagnoser::diagnose(v, &prov)) and
// changes nothing about the diagnosis itself.
//
// Renderers: a human-readable attribution tree (the CLI's --explain mode)
// and a JSON document stamped with the obs/build_info block.
#pragma once

#include <string>
#include <vector>

#include "core/period.hpp"
#include "core/relation.hpp"

namespace microscope::core {

/// What became of one culprit candidate inside a propagation step.
enum class AttributionOutcome : std::uint8_t {
  /// Source-traffic relation emitted against a traffic source.
  kEmittedSource,
  /// Upstream NF had its own queuing period: share split by its local
  /// S_i/S_p and recursed (see child_step / input_part / local_part).
  kRecursed,
  /// Upstream NF attributed locally in full — no queuing period found
  /// there, the recursion depth cap was reached, or its S_i + S_p was 0.
  kTerminalLocal,
  /// Share fell below DiagnoserOptions::min_score and was zeroed out.
  kZeroedBelowMin,
};

std::string to_string(AttributionOutcome o);

/// One hop's timespan and attributed share on one upstream path.
struct HopAttribution {
  NodeId node{kInvalidNode};
  double timespan_ns{0.0};
  double score{0.0};

  friend bool operator==(const HopAttribution&, const HopAttribution&) =
      default;
};

/// §4.2 timespan attribution over one PreSet path group.
struct PathAttribution {
  std::vector<NodeId> path;  // source first, then upstream NFs in order
  std::size_t packets{0};    // PreSet packets that took this path
  double share{0.0};         // base_score * packets / preset_packets
  std::vector<HopAttribution> hops;

  friend bool operator==(const PathAttribution&, const PathAttribution&) =
      default;
};

/// Final accounting for one culprit node within a propagation step.
struct CulpritAttribution {
  NodeId node{kInvalidNode};
  CauseKind kind{CauseKind::kLocalProcessing};
  /// Total share accumulated across this step's paths.
  double score{0.0};
  AttributionOutcome outcome{AttributionOutcome::kTerminalLocal};
  /// kRecursed only: the culprit NF's own local split at its period.
  double sub_s_i{0.0};
  double sub_s_p{0.0};
  /// kRecursed only: score * s_p/(s_i+s_p) kept local vs propagated on.
  double local_part{0.0};
  double input_part{0.0};
  /// Index into Provenance::steps of the recursive step (-1 if the input
  /// part was not propagated, e.g. below min_score).
  int child_step{-1};

  friend bool operator==(const CulpritAttribution&,
                         const CulpritAttribution&) = default;
};

/// One Diagnoser::propagate invocation: the distribution of `base_score`
/// of input-driven buildup at `node` over upstream paths.
struct PropagationStep {
  /// Index of the step that recursed into this one; -1 for the root
  /// (the victim NF's own S_i propagation).
  int parent{-1};
  NodeId node{kInvalidNode};
  int depth{0};
  /// The S_i share flowing into this step.
  double base_score{0.0};
  TimeNs period_start{0};
  TimeNs period_end{0};
  /// Peak rate r_f used for T_exp (packets/ns); 0 aborts attribution.
  double r_pkts_per_ns{0.0};
  /// Expected timespan T_exp = n_i / r_f (ns); 0 when not computed.
  double t_exp_ns{0.0};
  /// PreSet packets grouped into paths / skipped (incomplete journeys).
  std::size_t preset_packets{0};
  std::size_t preset_skipped{0};
  std::vector<PathAttribution> paths;
  std::vector<CulpritAttribution> culprits;
  /// Conservation: `attributed` is the sum of every hop share handed out
  /// by this step; `uncharged` is the share of paths with no visible
  /// timespan compression (deliberately attributed to nobody, see
  /// core/timespan.hpp); `residual` = base_score - attributed - uncharged
  /// is floating-point rounding only (its |value| accumulates into the
  /// core.diagnosis.attribution_residual gauge).
  double attributed{0.0};
  double uncharged{0.0};
  double residual{0.0};

  friend bool operator==(const PropagationStep&, const PropagationStep&) =
      default;
};

/// Full causal explanation of one victim's diagnosis.
struct Provenance {
  Victim victim{};
  /// False: the queue was provably empty on arrival (or the node has no
  /// timeline) — no queue-caused problem, empty diagnosis.
  bool found_period{false};
  TimeNs period_start{0};
  TimeNs period_end{0};
  /// Eqns (1)-(2) at the victim NF: n_i, n_p, expected = r·T, s_i, s_p.
  LocalScores local{};
  /// Whether the S_p local relation was emitted (s_p > min_score).
  bool emitted_local{false};
  /// Whether the S_i share was propagated upstream (s_i > min_score).
  bool propagated{false};
  /// Propagation tree in depth-first emission order; steps[i].parent links
  /// it together. Empty when nothing propagated.
  std::vector<PropagationStep> steps;

  friend bool operator==(const Provenance&, const Provenance&) = default;
};

/// Human-readable attribution tree. `node_names` maps NodeId to a display
/// name (missing/short entries fall back to "node<N>").
std::string render_explain_tree(const Provenance& prov,
                                const std::vector<std::string>& node_names);

/// JSON rendering: {"build": {...}, "victim": {...}, "period": {...},
/// "local": {...}, "steps": [...]}. The build block comes from
/// obs/build_info, so an archived explanation names its binary.
std::string provenance_to_json(const Provenance& prov,
                               const std::vector<std::string>& node_names);

}  // namespace microscope::core
