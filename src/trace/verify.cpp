#include "trace/verify.hpp"

#include <stdexcept>

namespace microscope::trace {

VerifyStats verify_against_ground_truth(const ReconstructedTrace& rt,
                                        const collector::Collector& col) {
  VerifyStats stats;
  const GraphView& g = rt.graph();

  for (NodeId d = 0; d < g.node_count(); ++d) {
    if (g.kinds[d] != NodeKind::kNf || !col.has_node(d)) continue;
    const auto& dt = col.node(d);
    if (dt.rx_uids.size() != dt.rx_ipids.size())
      throw std::logic_error("verify: collector has no ground-truth sidecar");
    const NodeAlignment& a = rt.alignments()[d];
    for (std::uint32_t i = 0; i < a.rx_origin.size(); ++i) {
      const TxRef o = a.rx_origin[i];
      if (!o.valid()) continue;
      const auto& ut = col.node(o.node);
      ++stats.links_checked;
      if (ut.tx_uids.at(o.idx) == dt.rx_uids.at(a.rx_base + i))
        ++stats.links_correct;
    }
  }

  for (const std::uint32_t jid : rt.journey_order()) {
    const Journey& j = rt.journey(jid);
    if (!j.complete()) continue;
    // The journey's terminal entry and its source entry must be the same
    // physical packet. Find the terminal uid.
    std::uint64_t terminal_uid = 0;
    bool have_terminal = false;
    for (auto it = j.hops.rbegin(); it != j.hops.rend(); ++it) {
      if (it->rx_idx != kNoEntry && col.has_node(it->node)) {
        terminal_uid = col.node(it->node).rx_uids.at(it->rx_idx);
        have_terminal = true;
        break;
      }
    }
    if (!have_terminal) continue;
    ++stats.journeys_checked;
    const auto& st = col.node(j.source);
    if (st.tx_uids.at(j.source_idx) == terminal_uid) ++stats.journeys_correct;
  }

  for (const std::uint32_t jid : rt.journey_order())
    if (rt.journey(jid).fate == Fate::kDroppedQueue) ++stats.drops_inferred;

  return stats;
}

}  // namespace microscope::trace
