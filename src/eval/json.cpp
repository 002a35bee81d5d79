#include "eval/json.hpp"

#include <sstream>

namespace microscope::eval {
namespace {

std::string node_name(NodeId id, const autofocus::NfCatalog& cat) {
  return id < cat.node_names.size() ? cat.node_names[id]
                                    : "node" + std::to_string(id);
}

void flow_json(std::ostringstream& os, const FiveTuple& ft) {
  os << "{\"src\":\"" << format_ipv4(ft.src_ip) << "\",\"dst\":\""
     << format_ipv4(ft.dst_ip) << "\",\"sport\":" << ft.src_port
     << ",\"dport\":" << ft.dst_port
     << ",\"proto\":" << static_cast<int>(ft.proto) << "}";
}

const char* kind_str(core::CauseKind k) {
  return k == core::CauseKind::kSourceTraffic ? "source-traffic"
                                              : "local-processing";
}

const char* victim_kind_str(core::Victim::Kind k) {
  switch (k) {
    case core::Victim::Kind::kHighLatency:
      return "high-latency";
    case core::Victim::Kind::kDropped:
      return "dropped";
    case core::Victim::Kind::kLowThroughput:
      return "low-throughput";
    case core::Victim::Kind::kInNfDelay:
      return "in-nf-delay";
    case core::Victim::Kind::kConnectionStall:
      return "connection-stall";
  }
  return "?";
}

}  // namespace

std::string diagnosis_to_json(const core::Diagnosis& d,
                              const autofocus::NfCatalog& catalog) {
  std::ostringstream os;
  os << "{\"victim\":{\"node\":\""
     << json_escape(node_name(d.victim.node, catalog)) << "\",\"kind\":\""
     << victim_kind_str(d.victim.kind) << "\",\"time_ns\":" << d.victim.time
     << ",\"hop_latency_ns\":" << d.victim.hop_latency
     << ",\"e2e_latency_ns\":" << d.victim.e2e_latency << ",\"flow\":";
  flow_json(os, d.victim.flow);
  os << "},\"causes\":[";
  const auto ranked = core::rank_causes(d);
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    if (i) os << ",";
    const auto& rc = ranked[i];
    os << "{\"node\":\"" << json_escape(node_name(rc.culprit.node, catalog))
       << "\",\"kind\":\"" << kind_str(rc.culprit.kind)
       << "\",\"score\":" << rc.score << ",\"t0_ns\":" << rc.t0
       << ",\"t1_ns\":" << rc.t1 << ",\"flows\":[";
    for (std::size_t f = 0; f < rc.flows.size() && f < 5; ++f) {
      if (f) os << ",";
      os << "{\"flow\":";
      flow_json(os, rc.flows[f].flow);
      os << ",\"weight\":" << rc.flows[f].weight << "}";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

std::string report_to_json(std::span<const core::Diagnosis> diagnoses,
                           const autofocus::NfCatalog& catalog,
                           std::span<const autofocus::Pattern> patterns,
                           std::size_t max_diagnoses) {
  std::ostringstream os;
  os << "{\"victims\":" << diagnoses.size() << ",\"diagnoses\":[";
  const std::size_t n = std::min(max_diagnoses, diagnoses.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (i) os << ",";
    os << diagnosis_to_json(diagnoses[i], catalog);
  }
  os << "],\"patterns\":[";
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    if (i) os << ",";
    os << "{\"text\":\""
       << json_escape(autofocus::format_pattern(patterns[i], catalog))
       << "\",\"score\":" << patterns[i].score << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace microscope::eval
